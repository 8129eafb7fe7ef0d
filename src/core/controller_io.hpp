// Persistence of trained controllers.
//
// The offline pipeline is run on a workstation; the resulting model (DBN
// weights, normalizer ranges, sized capacitor bank, online thresholds) is
// what actually ships to the node. This module round-trips that bundle
// through a plain-text format.
#pragma once

#include <string>

#include "core/pipeline.hpp"

namespace solsched::core {

/// Serializes the deployable parts of a controller (model, bank, online
/// thresholds; offline diagnostics like the LUT and sizing are omitted).
std::string serialize_controller(const TrainedController& controller);

/// Rebuilds a controller from serialize_controller() output. The node
/// config carries the bank and grid; physics models use the library
/// defaults. Throws std::invalid_argument on malformed input.
TrainedController deserialize_controller(const std::string& text);

/// The node exactly as deserialize_controller() rebuilds it from a bundle
/// serialized with `node`: grid, bank and voltage window survive, every
/// other field reverts to the library default. Lets a caller simulate on a
/// controller's deployed node before the controller itself exists.
nvp::NodeConfig deployed_node(const nvp::NodeConfig& node);

/// File convenience wrappers; save (atomic) returns false on I/O failure,
/// load throws on I/O failure or parse errors.
bool save_controller(const TrainedController& controller,
                     const std::string& path);
TrainedController load_controller(const std::string& path);

}  // namespace solsched::core
