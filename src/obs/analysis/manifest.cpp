#include "obs/analysis/manifest.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/durable.hpp"

// POSIX environment vector; scanned for SOLSCHED_* knobs.
extern char** environ;

#ifndef SOLSCHED_GIT_HASH
#define SOLSCHED_GIT_HASH "unknown"
#endif
#ifndef SOLSCHED_BUILD_TYPE
#define SOLSCHED_BUILD_TYPE "unknown"
#endif
#ifndef SOLSCHED_CXX_FLAGS
#define SOLSCHED_CXX_FLAGS ""
#endif

namespace solsched::obs::analysis {
namespace {

/// Canonical double rendering for the digest: %.17g survives a round trip,
/// so two configs differing in any bit digest differently.
void feed(std::string& canon, const char* tag, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", tag, value);
  canon += buf;
}

void feed(std::string& canon, const char* tag, std::uint64_t value) {
  canon += tag;
  canon += '=';
  canon += std::to_string(value);
  canon += ';';
}

std::uint64_t fnv1a(const std::string& bytes) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Compiler identity without extra build plumbing: __VERSION__ carries the
/// vendor string on GCC and Clang alike.
const char* compiler_version() noexcept {
#ifdef __VERSION__
  return __VERSION__;
#else
  return "unknown";
#endif
}

/// All SOLSCHED_* environment variables, sorted by name for stable output.
std::vector<std::pair<std::string, std::string>> solsched_env() {
  std::vector<std::pair<std::string, std::string>> vars;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "SOLSCHED_", 9) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    if (eq == nullptr) continue;
    vars.emplace_back(std::string(entry, eq), std::string(eq + 1));
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

}  // namespace

std::uint64_t node_config_digest(const nvp::NodeConfig& config) {
  std::string canon;
  canon.reserve(1024);
  feed(canon, "n_days", static_cast<std::uint64_t>(config.grid.n_days));
  feed(canon, "n_periods", static_cast<std::uint64_t>(config.grid.n_periods));
  feed(canon, "n_slots", static_cast<std::uint64_t>(config.grid.n_slots));
  feed(canon, "dt_s", config.grid.dt_s);
  for (double c : config.capacities_f) feed(canon, "cap_f", c);
  feed(canon, "v_low", config.v_low);
  feed(canon, "v_high", config.v_high);
  feed(canon, "direct_eta", config.pmu.direct_eta);
  feed(canon, "leak_k_cap", config.leakage.k_cap());
  feed(canon, "leak_k_volt", config.leakage.k_volt());
  // The regulator curves are fitted polynomials; sampling them over the
  // operating window pins their behaviour without private access.
  for (double v = 0.5; v <= 5.0; v += 0.5) {
    feed(canon, "eta_chr", config.regulators.input.eta(v));
    feed(canon, "eta_dis", config.regulators.output.eta(v));
  }
  feed(canon, "initial_usable_j", config.initial_usable_j);
  feed(canon, "initial_cap", static_cast<std::uint64_t>(config.initial_cap));
  feed(canon, "backup_j", config.backup_energy_j);
  feed(canon, "restore_j", config.restore_energy_j);
  feed(canon, "volatile_baseline",
       static_cast<std::uint64_t>(config.volatile_baseline ? 1 : 0));
  return fnv1a(canon);
}

std::string manifest_json(const ManifestInfo& info) {
  std::string out;
  out += "{\n";
  out += "  \"workload\": \"" + json_escape(info.workload) + "\",\n";

  out += "  \"seeds\": [";
  for (std::size_t i = 0; i < info.seeds.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(info.seeds[i]);
  }
  out += "],\n";

  if (info.node != nullptr) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      node_config_digest(*info.node)));
    out += "  \"node_config_digest\": \"";
    out += digest;
    out += "\",\n";
    out += "  \"node\": {";
    out += "\"n_days\": " + std::to_string(info.node->grid.n_days);
    out += ", \"n_periods\": " + std::to_string(info.node->grid.n_periods);
    out += ", \"n_slots\": " + std::to_string(info.node->grid.n_slots);
    out += ", \"n_caps\": " + std::to_string(info.node->capacities_f.size());
    out += ", \"volatile_baseline\": ";
    out += info.node->volatile_baseline ? "true" : "false";
    out += "},\n";
  }

  if (!info.trace_path.empty())
    out += "  \"trace\": \"" + json_escape(info.trace_path) + "\",\n";

  out += "  \"build\": {";
  out += "\"git_hash\": \"" + json_escape(SOLSCHED_GIT_HASH) + "\"";
  out += ", \"build_type\": \"" + json_escape(SOLSCHED_BUILD_TYPE) + "\"";
  out += ", \"cxx_flags\": \"" + json_escape(SOLSCHED_CXX_FLAGS) + "\"";
  out += ", \"compiler\": \"" + json_escape(compiler_version()) + "\"";
  out += "},\n";

  out += "  \"env\": {";
  const auto vars = solsched_env();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(vars[i].first);
    out += "\": \"";
    out += json_escape(vars[i].second);
    out += '"';
  }
  out += "}";

  if (info.include_metrics) {
    out += ",\n  \"metrics\": ";
    out += MetricsRegistry::global().snapshot().to_json();
  }
  out += "\n}\n";
  return out;
}

void write_manifest(const std::string& path, const ManifestInfo& info) {
  util::write_atomic(path, manifest_json(info));
}

}  // namespace solsched::obs::analysis
