// The proposed long-term deadline-aware online scheduler (Sec. 5).
//
// Coarse grain, once per period: a trained DBN maps (previous period's solar
// slots, all capacitor voltages, accumulated DMR) to (capacitor of the day,
// pattern index α, task subset te). The capacitor switch is gated by the
// threshold rule of Eq. 22 (only switch away from a capacitor once its
// stored energy drops below E_th). Fine grain, per slot: if |1 - α| > δ the
// cheap inter-task (LSA) policy runs, otherwise the intra-task load-matching
// policy (Sec. 5.2).
#pragma once

#include <cstddef>
#include <memory>

#include "ann/dbn.hpp"
#include "ann/normalizer.hpp"
#include "fault/fault_injector.hpp"
#include "nvp/scheduler.hpp"
#include "sched/sched_util.hpp"

namespace solsched::sched {

/// Why the proposed scheduler abandoned the DBN's plan for a period
/// (DESIGN.md §11). Stored in PeriodPlan::fallback_code.
enum class FallbackReason : int {
  kNone = 0,
  kNonFinite = 1,     ///< Decoded α (or the raw output) is NaN/inf.
  kAlphaRange = 2,    ///< α outside [0, alpha_cap].
  kDegenerateTe = 3,  ///< te enables no task at all.
  kDeadCap = 4,       ///< Decoded capacitor out of range or stuck-dead.
};

/// The degraded-mode period plan shared by every consumer of FallbackReason
/// (ProposedScheduler and the solsched-serve engine): LSA inter-task over
/// all tasks, keeping the current capacitor unless it is stuck dead — then
/// moving to the fullest live one so the baseline has storage to work with.
/// Pure function of the bank, so online and served fallbacks are
/// bit-identical by construction.
nvp::PeriodPlan lsa_fallback_plan(const storage::CapacitorBank& bank,
                                  FallbackReason reason);

/// Trained artifacts the online policy needs (produced by core::Pipeline).
struct ProposedModel {
  std::shared_ptr<const ann::Dbn> dbn;  ///< Input width N_s + H + 1.
  ann::Normalizer input_norm;           ///< Over the raw input vector.
  std::vector<double> capacities_f;     ///< Bank layout the DBN indexes into.
  std::size_t n_slots = 0;              ///< N_s the model was trained with.
  std::size_t n_tasks = 0;              ///< N of the benchmark.
  double alpha_cap = 3.0;               ///< α is squashed to [0, alpha_cap].
};

/// Fine-grained mode forcing, used by ablation studies.
enum class ModeOverride {
  kAuto,   ///< Use the δ rule on the DBN's α (the paper's behaviour).
  kInter,  ///< Always inter-task (lazy whole-task) scheduling.
  kIntra,  ///< Always intra-task load matching.
};

/// Online thresholds (Sec. 5.2) and ablation switches.
struct ProposedConfig {
  double e_th_j = 20.0;       ///< Eq. 22 switch threshold (~2 periods of a
                              ///< typical 10 J/period workload).
  double delta = 0.5;         ///< Pattern-selection threshold on |1 - α|.
  double margin_slots = 1.0;  ///< Forced-start margin of the inter mode.
  /// Extension beyond the paper (see DESIGN.md): exploit the whole
  /// distributed bank online. When a switch is allowed (Eq. 22), prefer the
  /// *fullest* capacitor so night service drains the bank capacitor by
  /// capacitor; and when the selected capacitor is nearly full while the
  /// period is in surplus (α < 1), move to the capacitor with the most
  /// headroom so midday harvest banks across several capacitors.
  bool greedy_bank = true;
  double fill_fraction = 0.12;  ///< "Nearly full" headroom threshold.
  bool ignore_te = false;     ///< Ablation: run all tasks, ignore DBN's te.
  ModeOverride mode = ModeOverride::kAuto;  ///< Ablation: force a mode.
};

/// DBN-driven scheduler.
class ProposedScheduler final : public nvp::Scheduler {
 public:
  ProposedScheduler(ProposedModel model, ProposedConfig config = {});

  std::string name() const override { return "Proposed"; }
  nvp::PeriodPlan begin_period(const nvp::PeriodContext& ctx) override;
  std::vector<std::size_t> schedule_slot(const nvp::SlotContext& ctx) override;

  /// Decoded DBN outputs of the current period (visible for tests/ablation).
  struct Decoded {
    std::size_t cap_index = 0;
    double alpha = 0.0;
    std::vector<bool> te;
  };
  const Decoded& last_decision() const noexcept { return last_; }
  bool intra_mode() const noexcept { return intra_mode_; }

  /// Attaches a fault injector whose controller-fault table corrupts the
  /// decoded DBN output (testing the degradation path); null detaches. The
  /// injector is read-only and must outlive the scheduler's use of it.
  void attach_faults(const fault::FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// Periods in which the DBN plan was rejected and the LSA inter-task
  /// baseline was substituted, and the most recent reason.
  std::size_t fallback_count() const noexcept { return fallback_count_; }
  FallbackReason last_fallback() const noexcept { return last_fallback_; }

  /// Builds the raw (unnormalized) DBN input vector from period context.
  static ann::Vector build_input(const nvp::PeriodContext& ctx,
                                 std::size_t n_slots);

 private:
  /// Degraded-mode plan: LSA inter-task over all tasks for this period.
  nvp::PeriodPlan fallback_plan(const nvp::PeriodContext& ctx,
                                FallbackReason reason);

  ProposedModel model_;
  ProposedConfig config_;
  Decoded last_;
  std::vector<bool> active_te_;
  bool intra_mode_ = false;
  const fault::FaultInjector* faults_ = nullptr;
  std::size_t fallback_count_ = 0;
  FallbackReason last_fallback_ = FallbackReason::kNone;
  // Slot-path buffers, reused across slots.
  LoadMatchScratch scratch_;
  std::vector<std::size_t> chosen_;
  std::vector<bool> off_te_;
  std::vector<bool> nvp_busy_;
};

}  // namespace solsched::sched
