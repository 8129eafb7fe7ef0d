// SimTrace: event recording, aggregation helpers, JSONL serialization and
// its strict reader, and the golden format contract for a tiny seeded
// simulation.
#include "obs/sim_trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../test_helpers.hpp"
#include "nvp/node_sim.hpp"
#include "sched/asap.hpp"

namespace solsched::obs {
namespace {

SimEvent make_event(std::string type, std::uint32_t day, std::uint32_t period,
                    std::vector<std::pair<std::string, double>> fields) {
  SimEvent e;
  e.type = std::move(type);
  e.day = day;
  e.period = period;
  e.fields = std::move(fields);
  return e;
}

TEST(SimTraceTest, FieldOrAndAggregates) {
  SimTrace trace;
  trace.emit(make_event("deadline", 0, 0, {{"misses", 2.0}, {"dmr", 0.25}}));
  trace.emit(make_event("deadline", 0, 1, {{"misses", 0.0}, {"dmr", 0.0}}));
  trace.emit(make_event("cap_switch", 0, 1, {{"from", 0.0}, {"to", 2.0}}));

  EXPECT_EQ(trace.count("deadline"), 2u);
  EXPECT_EQ(trace.count("cap_switch"), 1u);
  EXPECT_EQ(trace.count("migration"), 0u);
  EXPECT_DOUBLE_EQ(trace.sum("deadline", "misses"), 2.0);
  EXPECT_DOUBLE_EQ(trace.mean("deadline", "dmr"), 0.125);
  EXPECT_DOUBLE_EQ(trace.mean("migration", "anything"), 0.0);
  EXPECT_DOUBLE_EQ(trace.events()[0].field_or("dmr"), 0.25);
  EXPECT_DOUBLE_EQ(trace.events()[0].field_or("absent", -1.0), -1.0);
}

// Golden format: the exact bytes of one serialized event. Downstream JSONL
// consumers parse this shape; changing it is a breaking change.
TEST(SimTraceTest, GoldenJsonlLine) {
  SimTrace trace;
  trace.emit(make_event("deadline", 0, 3, {{"misses", 1.0}, {"dmr", 0.125}}));
  EXPECT_EQ(trace.to_jsonl(),
            "{\"type\":\"deadline\",\"day\":0,\"period\":3,"
            "\"misses\":1,\"dmr\":0.125}\n");
}

TEST(SimTraceTest, ParseRoundTrip) {
  SimTrace trace;
  trace.emit(make_event("period_energy", 0, 0,
                        {{"solar_in_j", 12.75}, {"spilled_j", 0.0}}));
  trace.emit(make_event("cap_voltages", 2, 11,
                        {{"selected", 1.0}, {"v0", 2.345678}, {"v1", 0.9}}));
  const std::string jsonl = trace.to_jsonl();
  const std::vector<SimEvent> parsed = SimTrace::parse_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, "period_energy");
  EXPECT_EQ(parsed[1].day, 2u);
  EXPECT_EQ(parsed[1].period, 11u);
  EXPECT_DOUBLE_EQ(parsed[1].field_or("v0"), 2.345678);
  // Re-serializing the parse reproduces the bytes: shortest round-trip
  // doubles make the format a fixed point.
  SimTrace again;
  for (const SimEvent& e : parsed) again.emit(e);
  EXPECT_EQ(again.to_jsonl(), jsonl);
}

TEST(SimTraceTest, ParseRejectsMalformed) {
  EXPECT_THROW(SimTrace::parse_jsonl("not json\n"), std::runtime_error);
  EXPECT_THROW(SimTrace::parse_jsonl("{\"type\":\"x\",\"day\":}\n"),
               std::runtime_error);
  EXPECT_THROW(SimTrace::parse_jsonl("{\"type\":\"x\" \"day\":1}\n"),
               std::runtime_error);
}

// Names are JSON-escaped on the way out and decoded on the way in, so any
// type or field name survives the round trip byte for byte.
TEST(SimTraceTest, JsonlEscapesAndReadsBackAnyName) {
  SimTrace trace;
  trace.emit(make_event("weird,\"type\"", 0, 1, {{"back\\slash", 1.5}}));
  trace.emit(make_event("line\nbreak", 0, 2, {{"tab\t", 2.0}}));
  const std::string jsonl = trace.to_jsonl();
  EXPECT_EQ(jsonl,
            "{\"type\":\"weird,\\\"type\\\"\",\"day\":0,\"period\":1,"
            "\"back\\\\slash\":1.5}\n"
            "{\"type\":\"line\\nbreak\",\"day\":0,\"period\":2,"
            "\"tab\\t\":2}\n");
  const std::vector<SimEvent> parsed = SimTrace::parse_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].type, "weird,\"type\"");
  EXPECT_EQ(parsed[0].fields[0].first, "back\\slash");
  EXPECT_EQ(parsed[1].type, "line\nbreak");
  SimTrace again;
  for (const SimEvent& e : parsed) again.emit(e);
  EXPECT_EQ(again.to_jsonl(), jsonl);
}

// day and period are read from their digits: a sign, a fraction, an
// exponent or a value of 2^32 or more is an error naming the line.
TEST(SimTraceTest, ParseRejectsBadIndicesNamingTheLine) {
  const std::string good = "{\"type\":\"x\",\"day\":0,\"period\":1}\n";
  EXPECT_EQ(SimTrace::parse_jsonl(good + good).size(), 2u);
  for (const char* bad : {"-1", "1.5", "1e3", "4294967296", "1e300", "\"3\""}) {
    SCOPED_TRACE(bad);
    try {
      SimTrace::parse_jsonl(good + "{\"type\":\"x\",\"day\":" + bad + "}\n");
      ADD_FAILURE() << "a bad day parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2: \"day\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(SimTrace::parse_jsonl("{\"day\":4294967295}\n")[0].day,
            4294967295u);
}

TEST(SimTraceTest, ClearEmptiesTrace) {
  SimTrace trace;
  trace.emit(make_event("deadline", 0, 0, {}));
  EXPECT_FALSE(trace.empty());
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

// The tiny-seeded-sim contract: a deterministic simulation emits a
// deterministic trace with the documented per-period event structure, and
// the JSONL survives a byte-exact serialize/parse/serialize round trip.
TEST(SimTraceTest, TinySeededSimTraceIsDeterministic) {
  const auto grid = test::tiny_grid();
  const auto trace =
      test::scaled_generator(grid).generate_days(1, grid,
                                                 solar::DayKind::kClear);
  const auto graph = test::chain2();
  const auto node = test::small_node(grid);

  auto run = [&] {
    sched::AsapScheduler policy;
    SimTrace events;
    nvp::simulate(graph, trace, policy, node, &events);
    return events.to_jsonl();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  const std::vector<SimEvent> parsed = SimTrace::parse_jsonl(first);
  SimTrace reparsed;
  for (const SimEvent& e : parsed) reparsed.emit(e);
  EXPECT_EQ(reparsed.to_jsonl(), first);

  // Every period carries the three unconditional events.
  SimTrace all;
  for (const SimEvent& e : parsed) all.emit(e);
  const std::size_t periods = grid.n_periods;
  EXPECT_EQ(all.count("period_energy"), periods);
  EXPECT_EQ(all.count("cap_voltages"), periods);
  EXPECT_EQ(all.count("deadline"), periods);
  // cap_voltages carries one voltage per capacitor plus the selection.
  for (const SimEvent& e : parsed) {
    if (e.type == "cap_voltages") {
      EXPECT_EQ(e.fields.size(), 1 + node.capacities_f.size());
    }
  }
}

}  // namespace
}  // namespace solsched::obs
