// Run manifests (DESIGN.md §12).
//
// A manifest is the reproducibility receipt of one simulation run: what was
// simulated (workload tag, NodeConfig digest, seeds), by which build (git
// hash, compiler, flags, build type), under which knobs (every SOLSCHED_*
// environment variable), and — optionally — the metrics snapshot the run
// left behind. `solsched-inspect diff` compares two manifests field by
// field, so "why do these two runs disagree" starts from recorded facts
// instead of archaeology.
//
// Build provenance comes from compile definitions stamped by the analysis
// CMakeLists at configure time (SOLSCHED_GIT_HASH and friends); a tree
// without git still builds, reporting "unknown".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nvp/node_config.hpp"

namespace solsched::obs::analysis {

/// What the caller knows about the run being stamped.
struct ManifestInfo {
  std::string workload;             ///< Free-form tag, e.g. "wam_monitoring".
  std::vector<std::uint64_t> seeds; ///< Every RNG seed the run consumed.
  const nvp::NodeConfig* node = nullptr;  ///< Digested when non-null.
  std::string trace_path;           ///< Where the event trace went, if any.
  /// Embed the current global metrics snapshot (counters/gauges/histograms).
  bool include_metrics = false;
};

/// Order-insensitive 64-bit FNV-1a digest of the physically meaningful
/// NodeConfig parameters: grid dimensions, capacitor capacities, voltage
/// window, PMU/backup/restore costs, leakage coefficients and the regulator
/// curves (sampled at fixed voltages — the curves are fitted polynomials,
/// so sampling pins their behaviour without reaching into private
/// coefficients). Two configs with equal digests schedule identically.
std::uint64_t node_config_digest(const nvp::NodeConfig& config);

/// Renders the manifest as a JSON document (stable key order, trailing
/// newline). Pure except for reading the environment and — when
/// include_metrics — the global metrics registry.
std::string manifest_json(const ManifestInfo& info);

/// Writes manifest_json(info) to `path` through util::write_atomic. Throws
/// util::IoError (a std::runtime_error) when the file cannot be written.
void write_manifest(const std::string& path, const ManifestInfo& info);

}  // namespace solsched::obs::analysis
