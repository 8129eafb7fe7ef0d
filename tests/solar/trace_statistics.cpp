#include "trace_statistics.hpp"

#include "util/stats.hpp"

namespace solsched::solar {
namespace {

double series_autocorrelation(const std::vector<double>& xs,
                              std::size_t lag) {
  if (lag >= xs.size()) return 0.0;
  std::vector<double> head(xs.begin(), xs.end() - static_cast<long>(lag));
  std::vector<double> tail(xs.begin() + static_cast<long>(lag), xs.end());
  return util::correlation(head, tail);
}

}  // namespace

double autocorrelation(const SolarTrace& trace, std::size_t lag_slots) {
  return series_autocorrelation(trace.raw(), lag_slots);
}

double anomaly_autocorrelation(const SolarTrace& trace,
                               std::size_t lag_slots) {
  const solar::TimeGrid& grid = trace.grid();
  const std::size_t day_slots = grid.slots_per_day();
  if (day_slots == 0 || grid.n_days == 0) return 0.0;

  // Mean day profile.
  std::vector<double> profile(day_slots, 0.0);
  for (std::size_t f = 0; f < trace.raw().size(); ++f)
    profile[f % day_slots] += trace.raw()[f];
  for (double& p : profile) p /= static_cast<double>(grid.n_days);

  std::vector<double> anomaly(trace.raw().size());
  for (std::size_t f = 0; f < anomaly.size(); ++f)
    anomaly[f] = trace.raw()[f] - profile[f % day_slots];
  return series_autocorrelation(anomaly, lag_slots);
}

std::size_t decorrelation_horizon(const SolarTrace& trace,
                                  std::size_t max_lag_slots, double threshold,
                                  std::size_t stride) {
  if (stride == 0) stride = 1;
  for (std::size_t lag = stride; lag <= max_lag_slots; lag += stride)
    if (anomaly_autocorrelation(trace, lag) < threshold) return lag;
  return max_lag_slots;
}

double day_energy_correlation(const SolarTrace& trace) {
  const std::size_t n_days = trace.grid().n_days;
  if (n_days < 3) return 0.0;
  std::vector<double> today, tomorrow;
  for (std::size_t d = 0; d + 1 < n_days; ++d) {
    today.push_back(trace.day_energy_j(d));
    tomorrow.push_back(trace.day_energy_j(d + 1));
  }
  return util::correlation(today, tomorrow);
}

}  // namespace solsched::solar
