#include "serve/engine.hpp"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

#include "campaign/artifact_cache.hpp"
#include "obs/span.hpp"
#include "sched/proposed.hpp"

namespace solsched::serve {
namespace {

/// The no-controller degradation rung: exactly what the offline
/// LsaInterScheduler::begin_period returns — keep the current capacitor,
/// enable all tasks — tagged with the serve-layer fallback code.
DecisionReply bare_lsa_reply(const QueryRequest& request,
                             std::uint16_t fallback_code) {
  DecisionReply reply;
  reply.fallback_code = fallback_code;
  reply.used_fallback = true;
  reply.controller_key = request.controller_key;
  return reply;
}

/// Maps a PeriodPlan + decoded DBN outputs onto the wire reply.
DecisionReply plan_to_reply(const nvp::PeriodPlan& plan,
                            const QueryRequest& request) {
  DecisionReply reply;
  reply.fallback_code = static_cast<std::uint16_t>(plan.fallback_code);
  reply.used_fallback = plan.used_fallback;
  reply.has_select_cap = plan.select_cap.has_value();
  reply.select_cap = plan.select_cap
                         ? static_cast<std::uint32_t>(*plan.select_cap)
                         : 0;
  reply.controller_key = request.controller_key;
  return reply;
}

}  // namespace

DecisionEngine::DecisionEngine(Options options)
    : options_(std::move(options)), table_(std::make_shared<const Table>()) {}

std::size_t DecisionEngine::load_all() {
  std::size_t loaded = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.cache_dir, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".controller") continue;
    // <016x-hex>.controller
    const std::string stem = entry.path().stem().string();
    if (stem.size() != 16) continue;
    std::uint64_t key = 0;
    bool hex = true;
    for (char c : stem) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else { hex = false; break; }
      key = (key << 4) | static_cast<std::uint64_t>(digit);
    }
    if (!hex) continue;
    std::string message;
    if (load_controller(key, &message)) {
      ++loaded;
    } else {
      std::fprintf(stderr, "solsched-serve: skipping %s: %s\n", name.c_str(),
                   message.c_str());
    }
  }
  return loaded;
}

bool DecisionEngine::load_controller(std::uint64_t key, std::string* message) {
  campaign::ArtifactCache cache(options_.cache_dir);
  auto controller = std::make_shared<core::TrainedController>();
  if (!cache.load(key, controller.get())) {
    if (message) *message = "artifact missing or corrupt: " + cache.path_of(key);
    return false;
  }
  // A controller the wire format cannot carry must not enter the table:
  // rejecting it here turns an impossible reply into the same degradation
  // path as a corrupt artifact.
  if (controller->model.capacities_f.size() > kMaxCaps ||
      controller->model.n_tasks > kMaxTasks) {
    if (message)
      *message = "controller exceeds wire bounds (caps or tasks)";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(reload_mutex_);
    auto next = std::make_shared<Table>(*snapshot());
    (*next)[key] = std::move(controller);
    publish(std::move(next));
  }
  if (message) *message = "loaded " + cache.path_of(key);
  return true;
}

bool DecisionEngine::has_controller(std::uint64_t key) const {
  const auto table = snapshot();
  return table->find(key) != table->end();
}

std::size_t DecisionEngine::controller_count() const {
  return snapshot()->size();
}

std::uint64_t DecisionEngine::expected_infer_us() const noexcept {
  return options_.assume_infer_us > 0
             ? options_.assume_infer_us
             : measured_infer_us_.load(std::memory_order_relaxed);
}

DecisionEngine::Outcome DecisionEngine::decide(const QueryRequest& request,
                                               std::uint64_t remaining_us) {
  Outcome out;
  const auto table = snapshot();
  const auto it = table->find(request.controller_key);
  if (it == table->end()) {
    out.reply = bare_lsa_reply(request, kFallbackNoController);
    return out;
  }
  const core::TrainedController& controller = *it->second;

  // Request/controller shape agreement: a mismatch is a client bug, not a
  // degradation case — guessing a decision for the wrong bank would be
  // worse than refusing.
  const std::size_t n_caps = controller.node.capacities_f.size();
  if (request.cap_voltages.size() != n_caps) {
    out.ok = false;
    out.error = {ErrorCode::kBadRequest,
                 "cap_voltages count does not match the controller's bank "
                 "(expected " +
                     std::to_string(n_caps) + ", got " +
                     std::to_string(request.cap_voltages.size()) + ")"};
    return out;
  }
  if (request.selected_cap >= n_caps) {
    out.ok = false;
    out.error = {ErrorCode::kBadRequest, "selected_cap beyond the bank"};
    return out;
  }

  // Reconstruct the node state the offline scheduler would see.
  storage::CapacitorBank bank = controller.node.make_bank();
  for (std::size_t h = 0; h < n_caps; ++h) {
    bank.at(h).set_voltage(request.cap_voltages[h]);
    if ((request.dead_mask >> h) & 1u) bank.at(h).kill();
  }
  bank.select(request.selected_cap);

  // Budget rung: when the estimated inference cost cannot fit in what is
  // left of the request's deadline, serve the cheap LSA fallback now
  // instead of blowing the deadline with a doomed DBN pass.
  if (expected_infer_us() > remaining_us) {
    auto plan = sched::lsa_fallback_plan(
        bank, sched::FallbackReason::kNone);
    out.reply = plan_to_reply(plan, request);
    out.reply.fallback_code = kFallbackBudgetExhausted;
    return out;
  }

  nvp::PeriodContext ctx;
  ctx.day = request.day;
  ctx.period = request.period;
  ctx.grid = &controller.node.grid;
  ctx.bank = &bank;
  ctx.accumulated_dmr = request.accumulated_dmr;
  ctx.last_period_solar_w = request.last_period_solar_w;

  const std::uint64_t t0 = obs::now_us();
  // Built through the scheduler registry's "proposed" entry (via
  // core::make_proposed), so a served decision is constructed exactly like
  // an offline comparison row — the offline-parity contract holds by
  // construction, not by keeping two call sites in sync.
  auto scheduler = core::make_proposed(controller);
  const nvp::PeriodPlan plan = scheduler->begin_period(ctx);
  const std::uint64_t cost_us = obs::now_us() - t0;

  // Ratchet the measured cost estimate up to the observed maximum.
  std::uint64_t seen = measured_infer_us_.load(std::memory_order_relaxed);
  while (cost_us > seen &&
         !measured_infer_us_.compare_exchange_weak(
             seen, cost_us, std::memory_order_relaxed)) {
  }

  out.reply = plan_to_reply(plan, request);
  out.reply.alpha = scheduler->last_decision().alpha;
  out.reply.intra_mode = scheduler->intra_mode();
  const std::vector<bool>& te = scheduler->last_decision().te;
  out.reply.n_tasks = static_cast<std::uint32_t>(te.size());
  out.reply.te_mask = 0;
  for (std::size_t n = 0; n < te.size(); ++n)
    if (te[n]) out.reply.te_mask |= (std::uint64_t{1} << n);
  if (plan.used_fallback) {
    // A sched-layer fallback (dead cap etc.) serves the LSA plan: te and α
    // are not part of that decision, so the reply carries the neutral
    // values the offline baseline implies.
    out.reply.alpha = 1.0;
    out.reply.intra_mode = false;
    out.reply.n_tasks = 0;
    out.reply.te_mask = 0;
  }
  return out;
}

}  // namespace solsched::serve
