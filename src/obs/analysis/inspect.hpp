// Entry point of the `solsched-inspect` CLI (tools/solsched_inspect.cpp).
//
// Subcommands (see usage string in inspect.cpp):
//   summary     <trace>            event census, ledger totals, DMR causes
//   ledger      <trace>            per-period energy ledger + conservation
//                                  audit (nonzero exit on audit failure)
//   dmr         <trace>            deadline-miss attribution table
//   diff        <runA> <runB>      field-by-field manifest comparison
//   profile, telemetry, watch, slo, timeline (see the usage string)
//
// Traces are the files the examples/benches write with --trace-out /
// --events-out: JSONL by default, long-format CSV when the path ends in
// ".csv". Lives in the library (not the tool's main.cpp) so tests exercise
// the real command paths.
#pragma once

namespace solsched::obs::analysis {

/// Runs one inspect command. Returns the process exit code: 0 success,
/// 1 check failed (audit violation, manifests differ, SLO alert, trace id
/// absent), 2 usage or I/O error (including a malformed numeric flag);
/// `watch` returns its final snapshot's code (status_exit_code), 3 for a
/// stale one.
int run_inspect(int argc, const char* const* argv);

}  // namespace solsched::obs::analysis
