#pragma once

/// \file describe.hpp
/// Human-readable network summaries (Darknet prints a similar table on
/// load) and cfg serialization — the inverse of the parser, so built or
/// programmatically modified networks can be written back to disk.

#include <string>

#include "nn/network.hpp"

namespace tincy::nn {

/// Layer-by-layer table: index, type, output shape, ops, precision and, for
/// convolutions, the canonical kernel name.
std::string summary(const Network& net);

/// Serializes the network to Darknet-style cfg text. Reparsing the result
/// with build_network_from_string produces a structurally identical
/// network (weights are not part of cfg files; use weights_io for those).
std::string to_cfg(const Network& net);

}  // namespace tincy::nn
