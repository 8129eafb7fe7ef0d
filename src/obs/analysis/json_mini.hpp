// The analysis layer's name for the one JSON string escaper (obs/json.hpp,
// which also holds the reader the analysis code parses files with).
#pragma once

#include "obs/json.hpp"

namespace solsched::obs::analysis {

using obs::json_escape;

}  // namespace solsched::obs::analysis
