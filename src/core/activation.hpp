#pragma once

/// \file activation.hpp
/// The per-element activation functions, selected once per loop. They sit
/// below the layer framework (nn/activation.hpp re-exports them) so the
/// GEMM drivers can run a layer's activation inside their epilogues.
/// Tincy YOLO's modification (a) replaces leaky ReLU by plain ReLU, which
/// folds away entirely into the FINN threshold units.

#include <bit>
#include <cmath>
#include <cstdint>

namespace tincy {

enum class Activation {
  kLinear,
  kRelu,
  kLeaky,     ///< Darknet leaky ReLU, slope 0.1 on the negative side.
  kLogistic,  ///< sigmoid, used inside the region layer
};

/// One activation, selected at compile time, for loops that pick it once
/// (with_activation) instead of switching per element.
template <Activation A>
inline float activate(float x) {
  if constexpr (A == Activation::kRelu) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (A == Activation::kLeaky) {
    // The product on every lane, then a mask select: `x > 0 ? x : 0.1f * x`
    // keeps the multiply behind a branch (no float speculation under
    // -ftrapping-math), while this form vectorises, same bits.
    const uint32_t neg = std::bit_cast<uint32_t>(0.1f * x);
    const uint32_t pos = 0u - static_cast<uint32_t>(x > 0.0f);  // all ones
    return std::bit_cast<float>((std::bit_cast<uint32_t>(x) & pos) |
                                (neg & ~pos));
  } else if constexpr (A == Activation::kLogistic) {
    return 1.0f / (1.0f + std::exp(-x));
  } else {
    return x;
  }
}

/// Calls f(act) once, where act(x) == activate<a>(x) is a distinct inline
/// callable per activation, so a per-element loop inside f runs without a
/// switch or a call.
template <typename F>
void with_activation(Activation a, F&& f) {
  switch (a) {
    case Activation::kLinear:
      return f([](float x) { return activate<Activation::kLinear>(x); });
    case Activation::kRelu:
      return f([](float x) { return activate<Activation::kRelu>(x); });
    case Activation::kLeaky:
      return f([](float x) { return activate<Activation::kLeaky>(x); });
    case Activation::kLogistic:
      return f([](float x) { return activate<Activation::kLogistic>(x); });
  }
}

}  // namespace tincy
