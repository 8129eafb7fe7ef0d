// Statistical analysis of solar traces, for the trace generator's tests.
//
// The paper explains the Fig. 10(a) prediction-length plateau by "the
// locality of correlation in solar power": beyond some lag, solar samples
// tell you nothing about each other. These helpers quantify that on any
// trace — autocorrelation at a lag, the decorrelation horizon, and
// day-to-day energy correlation (what the Markov weather model controls).
// No library path needs them, so they live with the tests that check the
// generator's weather model against them.
#pragma once

#include <cstddef>
#include <vector>

#include "solar/solar_trace.hpp"

namespace solsched::solar {

/// Autocorrelation of the per-slot power series at the given lag (slots).
/// Returns 0 for degenerate inputs (constant series, lag >= length).
double autocorrelation(const SolarTrace& trace, std::size_t lag_slots);

/// Autocorrelation restricted to the diurnal *anomaly*: the per-slot mean
/// day profile is removed first, so the 24 h cycle itself does not count
/// as "correlation". This is the weather signal the predictors live off.
double anomaly_autocorrelation(const SolarTrace& trace,
                               std::size_t lag_slots);

/// Smallest lag (slots) at which the anomaly autocorrelation falls below
/// `threshold`, scanned up to `max_lag_slots`; returns max_lag_slots if it
/// never does. This is the trace's decorrelation horizon.
std::size_t decorrelation_horizon(const SolarTrace& trace,
                                  std::size_t max_lag_slots,
                                  double threshold = 0.2,
                                  std::size_t stride = 1);

/// Correlation between consecutive days' total energies (the day-to-day
/// persistence the Markov weather chain induces). Returns 0 with < 3 days.
double day_energy_correlation(const SolarTrace& trace);

}  // namespace solsched::solar
