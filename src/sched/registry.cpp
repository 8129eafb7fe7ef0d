#include "sched/registry.hpp"

#include <stdexcept>
#include <utility>

#include "sched/asap.hpp"
#include "sched/duty_cycle.hpp"
#include "sched/dvfs_match.hpp"
#include "sched/edf.hpp"
#include "sched/energy_edf.hpp"
#include "sched/intra_task.hpp"
#include "sched/lsa_inter.hpp"

namespace solsched::sched {
namespace {

/// Context-free entry for the stateless baselines.
template <typename S>
SchedulerInfo simple(std::string id, std::string display_name) {
  SchedulerInfo info;
  info.id = std::move(id);
  info.display_name = std::move(display_name);
  info.factory = [](const SchedulerContext&) -> std::unique_ptr<nvp::Scheduler> {
    return std::make_unique<S>();
  };
  return info;
}

}  // namespace

Registry::Registry() {
  // Registration order is the comparison runner's row order. The first
  // seven entries replicate the pre-registry hard-wired order exactly —
  // existing campaign journals depend on it — so new policies must only
  // ever be appended.
  entries_.push_back(simple<AsapScheduler>("asap", "ASAP"));
  entries_.push_back(simple<EdfScheduler>("edf", "EDF"));
  entries_.push_back(simple<DutyCycleScheduler>("duty", "Duty-cycle"));
  entries_.push_back(simple<LsaInterScheduler>("inter", "Inter-task"));
  entries_.push_back(simple<IntraTaskScheduler>("intra", "Intra-task"));

  SchedulerInfo proposed;
  proposed.id = "proposed";
  proposed.display_name = "Proposed";
  proposed.needs_controller = true;
  proposed.sized_bank = true;
  proposed.factory =
      [](const SchedulerContext& ctx) -> std::unique_ptr<nvp::Scheduler> {
    if (!ctx.model)
      throw std::invalid_argument(
          "sched::Registry: \"proposed\" needs a trained controller "
          "(SchedulerContext::model is null)");
    auto policy = std::make_unique<ProposedScheduler>(*ctx.model, ctx.online);
    policy->attach_faults(ctx.faults);
    return policy;
  };
  entries_.push_back(std::move(proposed));

  SchedulerInfo optimal;
  optimal.id = "optimal";
  optimal.display_name = "Optimal";
  optimal.sized_bank = true;
  optimal.factory =
      [](const SchedulerContext& ctx) -> std::unique_ptr<nvp::Scheduler> {
    return std::make_unique<OptimalScheduler>(ctx.dp);
  };
  entries_.push_back(std::move(optimal));

  // The energy-aware zoo: display name == id (no paper-era display string
  // to preserve), so journals and reports key these rows by canonical id.
  entries_.push_back(simple<CcEdfScheduler>("ccedf", "ccedf"));
  entries_.push_back(simple<LaEdfScheduler>("laedf", "laedf"));
  entries_.push_back(simple<GreedyFeasibleScheduler>("greedy", "greedy"));
  // DVFS load matching [5, 6, 8]: frequency levels from NodeConfig::dvfs.
  entries_.push_back(simple<DvfsLoadMatcher>("dvfs-match", "dvfs-match"));
}

const Registry& Registry::global() {
  static const Registry instance;
  return instance;
}

const SchedulerInfo* Registry::find(const std::string& id) const noexcept {
  for (const SchedulerInfo& info : entries_)
    if (info.id == id) return &info;
  return nullptr;
}

const SchedulerInfo& Registry::at(const std::string& id) const {
  if (const SchedulerInfo* info = find(id)) return *info;
  throw std::out_of_range("sched::Registry: unknown scheduler id \"" + id +
                          "\" (known: " + known_ids() + ")");
}

std::vector<std::string> Registry::ids() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const SchedulerInfo& info : entries_) out.push_back(info.id);
  return out;
}

std::string Registry::known_ids() const {
  std::string out;
  for (const SchedulerInfo& info : entries_) {
    if (!out.empty()) out += ", ";
    out += info.id;
  }
  return out;
}

std::unique_ptr<nvp::Scheduler> make_scheduler(const std::string& id,
                                               const SchedulerContext& ctx) {
  return Registry::global().at(id).factory(ctx);
}

}  // namespace solsched::sched
