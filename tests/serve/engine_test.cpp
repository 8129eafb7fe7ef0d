// DecisionEngine: cache loading, the four-rung degradation ladder, offline
// parity (a served decision must be bit-identical to what an offline
// ProposedScheduler computes for the same node state), and hot-reload
// under concurrent load (the TSan target of the serve label).
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "../test_helpers.hpp"
#include "campaign/artifact_cache.hpp"
#include "core/pipeline.hpp"
#include "sched/lsa_inter.hpp"
#include "sched/proposed.hpp"
#include "storage/cap_bank.hpp"

namespace solsched::serve {
namespace {

constexpr std::uint64_t kKey = 0xf00dULL;
constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();

const core::TrainedController& tiny_controller() {
  static const core::TrainedController c = [] {
    const auto grid = test::tiny_grid();
    const auto gen = test::scaled_generator(grid, 81);
    core::PipelineConfig config;
    config.n_caps = 2;
    config.dp.energy_buckets = 6;
    config.dbn.pretrain.epochs = 2;
    config.dbn.finetune.epochs = 10;
    return core::train_pipeline(test::indep3(), gen.generate_days(1, grid),
                                test::small_node(grid), config);
  }();
  return c;
}

std::string fresh_cache(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  campaign::ArtifactCache cache(dir);
  cache.store(kKey, tiny_controller());
  return dir;
}

QueryRequest query_for(const core::TrainedController& controller) {
  QueryRequest q;
  q.controller_key = kKey;
  q.day = 0;
  q.period = 4;
  q.selected_cap = 0;
  q.accumulated_dmr = 0.1;
  q.cap_voltages.assign(controller.node.capacities_f.size(), 2.5);
  q.last_period_solar_w.assign(controller.node.grid.n_slots, 0.08);
  return q;
}

TEST(DecisionEngine, LoadAllFindsStoredControllers) {
  DecisionEngine engine({fresh_cache("engine_load"), 0});
  EXPECT_EQ(engine.controller_count(), 0u);
  EXPECT_EQ(engine.load_all(), 1u);
  EXPECT_EQ(engine.controller_count(), 1u);
  EXPECT_TRUE(engine.has_controller(kKey));
  EXPECT_FALSE(engine.has_controller(kKey + 1));
}

TEST(DecisionEngine, ServedDecisionMatchesOfflineSchedulerBitIdentically) {
  DecisionEngine engine({fresh_cache("engine_parity"), 0});
  ASSERT_EQ(engine.load_all(), 1u);
  const QueryRequest q = query_for(tiny_controller());
  const auto out = engine.decide(q, kUnbounded);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.reply.fallback_code, kFallbackNone);
  EXPECT_FALSE(out.reply.used_fallback);

  // Offline replay: reload the same artifact (the cache round-trip is the
  // normalization the daemon serves from) and re-derive the decision.
  campaign::ArtifactCache cache(fresh_cache("engine_parity"));
  core::TrainedController offline;
  ASSERT_TRUE(cache.load(kKey, &offline));
  storage::CapacitorBank bank = offline.node.make_bank();
  for (std::size_t h = 0; h < q.cap_voltages.size(); ++h)
    bank.at(h).set_voltage(q.cap_voltages[h]);
  bank.select(q.selected_cap);
  nvp::PeriodContext ctx;
  ctx.day = q.day;
  ctx.period = q.period;
  ctx.grid = &offline.node.grid;
  ctx.bank = &bank;
  ctx.accumulated_dmr = q.accumulated_dmr;
  ctx.last_period_solar_w = q.last_period_solar_w;
  auto scheduler = core::make_proposed(offline);
  const nvp::PeriodPlan plan = scheduler->begin_period(ctx);

  EXPECT_EQ(out.reply.has_select_cap, plan.select_cap.has_value());
  if (plan.select_cap) {
    EXPECT_EQ(out.reply.select_cap, static_cast<std::uint32_t>(*plan.select_cap));
  }
  // Bit-identical, not approximately equal: both paths ran the same DBN on
  // the same inputs.
  EXPECT_EQ(out.reply.alpha, scheduler->last_decision().alpha);
  EXPECT_EQ(out.reply.intra_mode, scheduler->intra_mode());
  std::uint64_t te_mask = 0;
  const std::vector<bool>& te = scheduler->last_decision().te;
  for (std::size_t n = 0; n < te.size(); ++n)
    if (te[n]) te_mask |= (std::uint64_t{1} << n);
  EXPECT_EQ(out.reply.te_mask, te_mask);
  EXPECT_EQ(out.reply.n_tasks, te.size());

  // Determinism across repeat queries (the kill/restart drill's property).
  const auto again = engine.decide(q, kUnbounded);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.reply.alpha, out.reply.alpha);
  EXPECT_EQ(again.reply.te_mask, out.reply.te_mask);
}

TEST(DecisionEngine, MissingControllerDegradesToOfflineLsaBaseline) {
  DecisionEngine engine({fresh_cache("engine_missing"), 0});
  ASSERT_EQ(engine.load_all(), 1u);
  QueryRequest q = query_for(tiny_controller());
  q.controller_key = 0xdeadULL;  // Never stored.
  const auto out = engine.decide(q, kUnbounded);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.reply.fallback_code, kFallbackNoController);
  EXPECT_TRUE(out.reply.used_fallback);

  // The offline LSA baseline's period plan is the default plan: keep the
  // capacitor, all tasks enabled. The reply must say exactly that.
  sched::LsaInterScheduler lsa;
  storage::CapacitorBank bank = tiny_controller().node.make_bank();
  nvp::PeriodContext ctx;
  ctx.grid = &tiny_controller().node.grid;
  ctx.bank = &bank;
  const nvp::PeriodPlan plan = lsa.begin_period(ctx);
  EXPECT_EQ(out.reply.has_select_cap, plan.select_cap.has_value());
  EXPECT_EQ(out.reply.n_tasks, 0u);   // 0 + mask 0 = "all tasks".
  EXPECT_EQ(out.reply.te_mask, 0u);
  EXPECT_EQ(out.reply.alpha, 1.0);
  EXPECT_FALSE(out.reply.intra_mode);
}

TEST(DecisionEngine, CorruptArtifactIsSkippedAndDegrades) {
  const std::string dir = fresh_cache("engine_corrupt");
  {
    campaign::ArtifactCache cache(dir);
    std::ofstream(cache.path_of(kKey), std::ios::trunc) << "garbage";
  }
  DecisionEngine engine({dir, 0});
  EXPECT_EQ(engine.load_all(), 0u);  // Skipped, not thrown.
  const auto out =
      engine.decide(query_for(tiny_controller()), kUnbounded);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.reply.fallback_code, kFallbackNoController);
  EXPECT_TRUE(out.reply.used_fallback);

  // A reload attempt reports failure but the engine keeps serving.
  std::string message;
  EXPECT_FALSE(engine.load_controller(kKey, &message));
  EXPECT_NE(message.find("missing or corrupt"), std::string::npos);
}

TEST(DecisionEngine, ShapeMismatchIsBadRequestNotAGuess) {
  DecisionEngine engine({fresh_cache("engine_shape"), 0});
  ASSERT_EQ(engine.load_all(), 1u);
  QueryRequest q = query_for(tiny_controller());
  q.cap_voltages.push_back(1.0);  // One capacitor too many.
  auto out = engine.decide(q, kUnbounded);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, ErrorCode::kBadRequest);
  EXPECT_NE(out.error.message.find("expected"), std::string::npos);

  q = query_for(tiny_controller());
  q.selected_cap = 99;
  out = engine.decide(q, kUnbounded);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, ErrorCode::kBadRequest);
}

TEST(DecisionEngine, ExhaustedBudgetServesLsaFallbackPlan) {
  DecisionEngine::Options options{fresh_cache("engine_budget"), 0};
  options.assume_infer_us = 10'000'000;  // Pretend inference costs 10 s.
  DecisionEngine engine(options);
  ASSERT_EQ(engine.load_all(), 1u);
  const QueryRequest q = query_for(tiny_controller());
  const auto out = engine.decide(q, /*remaining_us=*/1000);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.reply.fallback_code, kFallbackBudgetExhausted);
  EXPECT_TRUE(out.reply.used_fallback);
  // With an unbounded budget the same request gets the real decision.
  const auto full = engine.decide(q, kUnbounded);
  ASSERT_TRUE(full.ok);
  EXPECT_EQ(full.reply.fallback_code, kFallbackNone);
}

// Hot-reload while queries are in flight: reader threads hammer decide()
// as the main thread republishes the controller table. Run under TSan via
// ctest -L serve in the sanitizer build; here we also assert every reply
// stays well-formed through the swaps.
TEST(DecisionEngine, HotReloadUnderLoadKeepsEveryReplyWellFormed) {
  const std::string dir = fresh_cache("engine_hot");
  DecisionEngine engine({dir, 0});
  ASSERT_EQ(engine.load_all(), 1u);
  const QueryRequest q = query_for(tiny_controller());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> decided{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto out = engine.decide(q, kUnbounded);
        ASSERT_TRUE(out.ok);
        // Mid-swap requests finish on whichever table they snapshotted;
        // either way the decision is the real one, never a torn mix.
        ASSERT_EQ(out.reply.fallback_code, kFallbackNone);
        decided.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::string message;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(engine.load_controller(kKey, &message)) << message;
  while (decided.load(std::memory_order_relaxed) < 200)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_GE(decided.load(), 200u);
  EXPECT_EQ(engine.controller_count(), 1u);
}

}  // namespace
}  // namespace solsched::serve
