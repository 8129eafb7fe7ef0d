#include "solar/csv_trace.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace solsched::solar {
namespace {

TEST(ParseCsvColumn, SkipsHeadersAndBlanks) {
  const auto values = parse_csv_column("power\n0.1\n\n0.2\nbad\n0.3\n", 0);
  EXPECT_EQ(values, (std::vector<double>{0.1, 0.2, 0.3}));
}

TEST(ParseCsvColumn, SelectsColumn) {
  const auto values = parse_csv_column("t,ghi\n0,100\n1,200\n", 1);
  EXPECT_EQ(values, (std::vector<double>{100.0, 200.0}));
}

TEST(ParseCsvColumn, ClampsNegativesToZero) {
  const auto values = parse_csv_column("-5\n7\n", 0);
  EXPECT_EQ(values, (std::vector<double>{0.0, 7.0}));
}

TEST(ParseCsvColumn, RejectsNonFiniteCells) {
  // strtod happily parses "nan"/"inf" spellings; those cells must be
  // skipped like any other junk, never stored in the trace.
  const auto values =
      parse_csv_column("power\n1.0\nnan\ninf\n-inf\nNaN\n2.0\n", 0);
  EXPECT_EQ(values, (std::vector<double>{1.0, 2.0}));
}

TEST(ParseCsvColumn, ThrowsOnNoData) {
  EXPECT_THROW(parse_csv_column("header only\n", 0), std::invalid_argument);
  EXPECT_THROW(parse_csv_column("a,b\nc,d\n", 1), std::invalid_argument);
}

TEST(Resample, ExactFitPassesThrough) {
  const TimeGrid grid{1, 2, 3, 30.0};  // 6 slots.
  const std::vector<double> samples{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(resample_to_grid(samples, grid), samples);
}

TEST(Resample, DownsamplesByAveraging) {
  const TimeGrid grid{1, 1, 3, 30.0};  // 3 slots.
  const auto out = resample_to_grid({1, 3, 5, 7, 9, 11}, grid);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
  EXPECT_DOUBLE_EQ(out[2], 10.0);
}

TEST(Resample, UpsamplesByHold) {
  const TimeGrid grid{1, 2, 2, 30.0};  // 4 slots.
  const auto out = resample_to_grid({10.0, 20.0}, grid);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 10.0);
  EXPECT_DOUBLE_EQ(out[1], 10.0);
  EXPECT_DOUBLE_EQ(out[2], 20.0);
  EXPECT_DOUBLE_EQ(out[3], 20.0);
}

TEST(TraceFromIrradianceCsv, AppliesPanel) {
  const TimeGrid grid{1, 1, 2, 30.0};
  const SolarPanel panel(0.01, 0.1);  // 1 W at 1000 W/m^2.
  const auto trace =
      trace_from_irradiance_csv("ghi\n1000\n500\n", grid, panel);
  EXPECT_DOUBLE_EQ(trace.at(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(trace.at(0, 0, 1), 0.5);
}

TEST(TraceFromCsv, EnergyPreservedUnderResampling) {
  // Downsampling by averaging preserves the integral.
  const TimeGrid grid{1, 2, 10, 30.0};  // 20 slots, 600 s.
  std::string csv;
  double expected = 0.0;
  for (int i = 0; i < 200; ++i) {  // 10 samples per slot.
    const double p = 0.01 + 0.0001 * i;
    csv += std::to_string(p) + "\n";
    expected += p * 3.0;  // Each sample spans 3 s.
  }
  const SolarTrace trace(grid,
                         resample_to_grid(parse_csv_column(csv, 0), grid));
  EXPECT_NEAR(trace.total_energy_j(), expected, 0.01 * expected);
}

}  // namespace
}  // namespace solsched::solar
