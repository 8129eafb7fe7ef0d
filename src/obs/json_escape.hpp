// The one JSON string escaper and the one CSV cell escaper. Every JSON and
// CSV writer links solsched_obs (trace dumps, telemetry, time series,
// journals, manifests, serve status, util::CsvWriter tables), so they live
// here and the readers (the analysis layer's JSON reader, SimTrace's CSV
// parser) round-trip what they write.
#pragma once

#include <string>

namespace solsched::obs {

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and every control character (\n, \r and \t by name, the
/// rest as \u00XX). Other bytes pass through unchanged.
std::string json_escape(const std::string& s);

/// RFC-4180 cell: quoted (inner quotes doubled) only when the cell contains
/// a separator, quote or line break (\r or \n), so ordinary cells keep the
/// bare spelling.
std::string csv_cell(const std::string& s);

}  // namespace solsched::obs
