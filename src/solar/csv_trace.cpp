#include "solar/csv_trace.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace solsched::solar {

std::vector<double> parse_csv_column(const std::string& csv_text,
                                     std::size_t column) {
  std::vector<double> values;
  std::istringstream lines(csv_text);
  std::string line;
  while (std::getline(lines, line)) {
    // Split on commas, take the requested field.
    std::size_t start = 0;
    std::string field;
    for (std::size_t c = 0;; ++c) {
      const std::size_t comma = line.find(',', start);
      const std::string cell =
          line.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (c == column) {
        field = cell;
        break;
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (field.empty()) continue;
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str()) continue;  // Header or non-numeric row.
    // strtod happily parses "nan" and "inf" — a corrupt logger cell must be
    // skipped like any other non-numeric row, not fed into the energy model.
    if (!std::isfinite(value)) continue;
    values.push_back(value < 0.0 ? 0.0 : value);
  }
  if (values.empty())
    throw std::invalid_argument("parse_csv_column: no numeric rows");
  return values;
}

std::vector<double> resample_to_grid(const std::vector<double>& samples,
                                     const TimeGrid& grid) {
  const std::size_t n_slots = grid.total_slots();
  std::vector<double> out(n_slots, 0.0);
  if (samples.empty()) return out;
  const double stride =
      static_cast<double>(samples.size()) / static_cast<double>(n_slots);
  for (std::size_t s = 0; s < n_slots; ++s) {
    const auto lo = static_cast<std::size_t>(static_cast<double>(s) * stride);
    auto hi = static_cast<std::size_t>(static_cast<double>(s + 1) * stride);
    hi = std::min(std::max(hi, lo + 1), samples.size());
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += samples[std::min(i, samples.size() - 1)];
    out[s] = acc / static_cast<double>(hi - lo);
  }
  return out;
}

SolarTrace trace_from_irradiance_csv(const std::string& csv_text,
                                     const TimeGrid& grid,
                                     const SolarPanel& panel,
                                     std::size_t column) {
  std::vector<double> irradiance = parse_csv_column(csv_text, column);
  for (double& x : irradiance) x = panel.power_w(x);
  return SolarTrace(grid, resample_to_grid(irradiance, grid));
}

}  // namespace solsched::solar
