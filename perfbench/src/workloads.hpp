// The benchmark's workloads. Each builds its inputs from opts.seed, times
// its own set-up, then either measures the end-to-end metrics for
// opts.seconds (opts.trace false) or runs its traced replay and reports the
// per-layer metrics (opts.trace true). Every run checks its outputs.
#pragma once

#include "harness.hpp"

namespace solsched::perfbench {

WorkloadResult run_offline_pipeline(const RunOptions& opts);
WorkloadResult run_campaign_sweep(const RunOptions& opts);
/// serve_hot (mixed false) and serve_mixed (mixed true).
WorkloadResult run_serve(const RunOptions& opts, bool mixed);

}  // namespace solsched::perfbench
