// Structured simulation event trace.
//
// A SimTrace is an in-memory recorder of typed per-period events emitted by
// nvp::simulate and consumed by examples, benches and tests. One trace per
// simulation: the comparison runner attaches a private trace to each policy
// row, so traces stay deterministic even when rows execute concurrently on
// the thread pool (no cross-row interleaving exists to begin with).
//
// Serialization is JSONL: one event per line, field order fixed by the
// emitter, shortest round-trip doubles (obs::json_number) — golden-file
// friendly. parse_jsonl() reads it back through the one JSON reader
// (obs/json.hpp), exactly: re-serializing the parse reproduces the bytes.
//
// Event vocabulary (emitted by nvp::simulate; DESIGN.md §10):
//   period_energy  solar_in_j, load_served_j, stored_j, migrated_in_j,
//                  cap_supplied_j, conversion_loss_j, leakage_loss_j,
//                  spilled_j
//   bank_energy    begin_j, end_j      (bank total energy at the period
//                  boundaries, after aging/kill; closes the §12 ledger)
//   cap_voltages   selected, v0..v{H-1}
//   deadline       misses, completions, dmr, brownout_slots
//   cap_switch     from, to            (only when the selection changes)
//   migration      migrated_in_j, cap_supplied_j   (only when energy moved)
// Fault-injection events (only with an active fault plan; DESIGN.md §11):
//   power_failure  slot                (blackout entry)
//   backup         slot, cost_j        (NVP checkpoint at blackout entry)
//   restore        slot, cost_j        (recovery at the first powered slot)
//   fallback       code                (policy degraded-mode period)
//   fault_ledger   pf_entries, pf_slots, backups, restores, fallbacks,
//                  backup_j, restore_j, lost_progress_s   (per-period fault
//                  totals; only when the period saw any fault activity)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace solsched::obs {

/// One typed event: a type tag, the (day, period) coordinate, and an
/// ordered list of named numeric fields.
struct SimEvent {
  std::string type;
  std::uint32_t day = 0;
  std::uint32_t period = 0;
  std::vector<std::pair<std::string, double>> fields;

  double field_or(std::string_view name, double fallback = 0.0) const;
};

/// Append-only event recorder. NOT thread-safe: each simulation owns its
/// trace exclusively (the engine is serial); share across threads only
/// after the owning simulation returned.
class SimTrace {
 public:
  void emit(SimEvent event) { events_.push_back(std::move(event)); }
  const std::vector<SimEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }
  void clear() { events_.clear(); }

  // -- consumption helpers -------------------------------------------------
  std::size_t count(std::string_view type) const;
  double sum(std::string_view type, std::string_view field) const;
  /// Mean of `field` over events of `type`; 0 when none exist.
  double mean(std::string_view type, std::string_view field) const;

  // -- serialization -------------------------------------------------------
  std::string to_jsonl() const;

  /// Parses to_jsonl() output. Throws std::runtime_error naming the line
  /// for one that is not an event object: "day" and "period" must be
  /// unsigned integers below 2^32 and every other member but "type" a
  /// number. Round trip: serializing the result reproduces `text`.
  static std::vector<SimEvent> parse_jsonl(const std::string& text);

 private:
  std::vector<SimEvent> events_;
};

}  // namespace solsched::obs
