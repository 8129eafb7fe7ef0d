// The one JSON string escaper. Every JSON writer links solsched_obs (trace
// dumps, telemetry, time series, journals, manifests, serve status), so it
// lives here and the analysis layer's reader round-trips what it writes.
#pragma once

#include <string>

namespace solsched::obs {

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and every control character (\n, \r and \t by name, the
/// rest as \u00XX). Other bytes pass through unchanged.
std::string json_escape(const std::string& s);

}  // namespace solsched::obs
