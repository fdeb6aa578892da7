#pragma once

/// \file pool_unit.hpp
/// Max-pooling unit operating directly on activation codes. Because the
/// A-bit activation grid is monotone, max over codes equals max over the
/// real values — pooling commutes with quantization, so the fabric can
/// pool codes without dequantizing. The golden model relies on the same
/// fact: nn::Network pools the hidden ladder's codes between quantized
/// convs.
///
/// The code-domain layer engine (gemm::run_code_layer) pools each band of
/// threshold-unit output as it streams past, the way this unit sits on
/// the MVTU's output stream; gemm::max_pool_codes is the same pool over a
/// whole map. This file holds the unit's geometry and its cycle cost.

#include <cstdint>

#include "gemm/code_layer.hpp"

namespace tincy::fabric {

/// Darknet-compatible geometry (implicit total padding of size − 1).
using PoolSpec = gemm::PoolGeometry;

/// Cycle cost: one comparison tree evaluation per output pixel per channel
/// group of `pe` channels processed in parallel.
int64_t pool_cycles(const PoolSpec& spec, int64_t pe);

}  // namespace tincy::fabric
