#include "trace_statistics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "../test_helpers.hpp"
#include "solar/trace_generator.hpp"

namespace solsched::solar {
namespace {

SolarTrace periodic(const TimeGrid& day, std::size_t n_days) {
  TimeGrid grid = day;
  grid.n_days = n_days;
  SolarTrace t(grid);
  for (std::size_t f = 0; f < grid.total_slots(); ++f) {
    const double phase = grid.time_of_day_s(f) / grid.day_s();
    t.at_flat(f) =
        std::max(0.0, std::sin(2.0 * std::numbers::pi * phase));
  }
  return t;
}

TEST(Autocorrelation, PeriodicTraceCorrelatesAtDayLag) {
  const auto day = test::tiny_grid();
  const SolarTrace t = periodic(day, 4);
  // Exactly periodic: correlation 1 at a full-day lag.
  EXPECT_NEAR(autocorrelation(t, day.slots_per_day()), 1.0, 1e-9);
  EXPECT_NEAR(autocorrelation(t, 1), 1.0, 0.1);  // Smooth at one slot too.
}

TEST(Autocorrelation, DegenerateCases) {
  const auto day = test::tiny_grid();
  const SolarTrace zero(day);
  EXPECT_DOUBLE_EQ(autocorrelation(zero, 1), 0.0);  // Constant series.
  const SolarTrace t = periodic(day, 1);
  EXPECT_DOUBLE_EQ(autocorrelation(t, day.total_slots() + 5), 0.0);
}

TEST(AnomalyAutocorrelation, RemovesDiurnalCycle) {
  const auto day = test::tiny_grid();
  const SolarTrace t = periodic(day, 4);
  // A perfectly periodic trace has zero anomaly -> no anomaly correlation.
  EXPECT_NEAR(anomaly_autocorrelation(t, 3), 0.0, 1e-9);
}

TEST(AnomalyAutocorrelation, WeatherTracesDecorrelate) {
  const auto grid = solar::default_grid();
  solar::TraceGeneratorConfig config;
  config.seed = 23;
  const auto t =
      TraceGenerator(config).generate_days(10, grid, DayKind::kPartlyCloudy);
  const double short_lag = anomaly_autocorrelation(t, 10);        // 5 min.
  const double long_lag = anomaly_autocorrelation(t, 2880 * 3);   // 3 days.
  EXPECT_GT(short_lag, 0.5);   // Weather persists over minutes.
  EXPECT_LT(long_lag, 0.4);    // And fades over days.
  EXPECT_GT(short_lag, long_lag);
}

TEST(DecorrelationHorizon, FindsThresholdCrossing) {
  const auto grid = solar::default_grid();
  solar::TraceGeneratorConfig config;
  config.seed = 29;
  const auto t =
      TraceGenerator(config).generate_days(8, grid, DayKind::kPartlyCloudy);
  const std::size_t horizon =
      decorrelation_horizon(t, 4 * grid.slots_per_day(), 0.2, 120);
  EXPECT_GT(horizon, 0u);
  EXPECT_LE(horizon, 4 * grid.slots_per_day());
  // At the reported horizon the anomaly correlation is indeed low-ish.
  EXPECT_LT(anomaly_autocorrelation(t, horizon), 0.35);
}

TEST(DayEnergyCorrelation, MarkovChainInducesPersistence) {
  const auto grid = solar::default_grid();
  solar::TraceGeneratorConfig config;
  config.seed = 31;
  const auto t =
      TraceGenerator(config).generate_days(40, grid, DayKind::kClear);
  // Clear days beget clear days (transition 0.6): positive correlation.
  EXPECT_GT(day_energy_correlation(t), 0.0);
}

TEST(DayEnergyCorrelation, TooFewDaysIsZero) {
  const auto day = test::tiny_grid();
  EXPECT_DOUBLE_EQ(day_energy_correlation(periodic(day, 2)), 0.0);
}

}  // namespace
}  // namespace solsched::solar
