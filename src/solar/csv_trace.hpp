// Loading measured solar traces from CSV (NREL MIDC-style exports).
//
// The synthetic generator stands in for the MIDC database, but a downstream
// user with real data can feed it here: one sample per line, either panel
// output power (W) or plane-of-array irradiance (W/m^2) that is converted
// through a SolarPanel. Samples are resampled onto the simulation grid by
// averaging (downsample) or sample-and-hold (upsample).
#pragma once

#include <string>

#include "solar/panel.hpp"
#include "solar/solar_trace.hpp"

namespace solsched::solar {

/// Parses one numeric column from CSV text. `column` selects the field
/// (0-based); lines that do not parse (headers, blanks) are skipped.
/// Throws std::invalid_argument if no numeric rows are found.
std::vector<double> parse_csv_column(const std::string& csv_text,
                                     std::size_t column);

/// Resamples `samples` (uniformly spaced over the grid's total duration)
/// onto the grid's slots: block averages when there are more samples than
/// slots, sample-and-hold otherwise.
std::vector<double> resample_to_grid(const std::vector<double>& samples,
                                     const TimeGrid& grid);

/// Builds a trace from irradiance samples (W/m^2) through a panel model.
SolarTrace trace_from_irradiance_csv(const std::string& csv_text,
                                     const TimeGrid& grid,
                                     const SolarPanel& panel,
                                     std::size_t column = 0);

}  // namespace solsched::solar
