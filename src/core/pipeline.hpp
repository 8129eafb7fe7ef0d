// Offline pipeline (paper Fig. 4, left column).
//
// 1. Super-capacitor sizing on the training trace (Sec. 4.1).
// 2. Long-term DMR optimization by the DP oracle (Sec. 4.2); while the
//    oracle executes on the training trace, every period's *observable*
//    inputs (previous period solar, capacitor voltages, accumulated DMR) are
//    recorded together with the oracle's decisions (capacitor, α, te) as
//    labelled samples; all evaluated options populate the Eq. 13 LUT.
// 3. DBN training: greedy RBM pretraining + supervised fine-tuning.
//
// The result is a TrainedController from which the online ProposedScheduler
// is built.
#pragma once

#include <memory>

#include "ann/dbn.hpp"
#include "nvp/node_config.hpp"
#include "sched/lut.hpp"
#include "sched/optimal.hpp"
#include "sched/proposed.hpp"
#include "sizing/cap_sizing.hpp"

namespace solsched::core {

/// Knobs of the whole offline flow.
struct PipelineConfig {
  /// The oracle's DP config with start-voltage quantization enabled: inside
  /// the pipeline the DP is a training-label generator, so the sub-bucket
  /// plan perturbation is within training noise and buys cross-cell
  /// period-option cache hits (see PeriodOptionCache).
  static sched::OptimalConfig default_dp() {
    sched::OptimalConfig dp;
    dp.v0_quant_steps = 16;
    return dp;
  }

  std::size_t n_caps = 4;  ///< H: number of distributed capacitors to size.
  sizing::SizingConfig sizing{};
  sched::OptimalConfig dp = default_dp();
  ann::DbnConfig dbn{};
  sched::ProposedConfig online{};
};

/// Everything the online side needs, plus offline diagnostics.
struct TrainedController {
  nvp::NodeConfig node;          ///< Node with the sized capacitor bank.
  sched::ProposedModel model;    ///< DBN + normalizer for the online policy.
  sched::Lut lut;                ///< Eq. 13 table from the DP's options.
  sizing::SizingResult sizing;   ///< Daily optima and clusters.
  std::size_t n_samples = 0;     ///< Training samples recorded.
  double train_mse = 0.0;        ///< Final fine-tune loss.
  double oracle_dmr = 0.0;       ///< DMR the oracle achieved on the
                                 ///< training trace (sanity reference).
  sched::ProposedConfig online;  ///< Thresholds for the online policy.
  /// Period-option cache populated by the oracle run. Later Optimal runs on
  /// the same trace/node (e.g. the comparison's Optimal row) reuse it and
  /// hit on nearly every period.
  std::shared_ptr<sched::PeriodOptionCache> option_cache;
  sched::OptionCacheStats dp_cache_stats;  ///< Counters after the oracle run.
};

/// Step 1 of the offline flow: the node with its sized capacitor bank.
struct SizedNode {
  nvp::NodeConfig node;         ///< `base` with the sized bank.
  sizing::SizingResult sizing;  ///< Daily optima and clusters.
};

/// Step 1 (Sec. 4.1): sizes `base`'s capacitor bank on the training trace.
/// It is cheap next to steps 2-3, so a caller can build on the sized node (e.g.
/// run controller-free policies) while they run.
SizedNode size_node(const task::TaskGraph& graph,
                    const solar::SolarTrace& training_trace,
                    const nvp::NodeConfig& base,
                    const PipelineConfig& config = {});

/// Step 2 (Sec. 4.2): runs the DP oracle on the training trace from the
/// node size_node() returned. Returns the controller without its model —
/// node, sizing, LUT, option cache, oracle DMR — and stores the oracle's
/// labelled samples in `*samples`.
TrainedController run_oracle(const task::TaskGraph& graph,
                             const solar::SolarTrace& training_trace,
                             SizedNode sized, const PipelineConfig& config,
                             std::vector<ann::Sample>* samples);

/// Step 3: trains the DBN on run_oracle()'s samples and installs it, with
/// its input normalizer, as `controller->model`. Reads only the node of
/// `*controller`, so the oracle's LUT and option cache may be dropped first.
void fit_dbn(const task::TaskGraph& graph,
             const solar::SolarTrace& training_trace,
             std::vector<ann::Sample> samples, const PipelineConfig& config,
             TrainedController* controller);

/// Runs the full offline flow: size_node, run_oracle, fit_dbn. `base`
/// supplies physics and grid; its capacitor list is replaced by sizing.
TrainedController train_pipeline(const task::TaskGraph& graph,
                                 const solar::SolarTrace& training_trace,
                                 const nvp::NodeConfig& base,
                                 const PipelineConfig& config = {});

/// Builds the online scheduler from a trained controller.
std::unique_ptr<sched::ProposedScheduler> make_proposed(
    const TrainedController& controller);

}  // namespace solsched::core
