#pragma once

/// \file activation.hpp
/// Per-element activation functions. Tincy YOLO's modification (a) replaces
/// leaky ReLU by plain ReLU, which folds away entirely into the FINN
/// threshold units.

#include <cmath>
#include <string_view>

#include "core/tensor.hpp"

namespace tincy::nn {

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
  if constexpr (A == Activation::kRelu) return x > 0.0f ? x : 0.0f;
  else if constexpr (A == Activation::kLeaky) return x > 0.0f ? x : 0.1f * x;
  else if constexpr (A == Activation::kLogistic)
    return 1.0f / (1.0f + std::exp(-x));
  else return x;
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

/// Scalar application.
float apply(Activation a, float x);

/// In-place application over a whole tensor.
void apply(Activation a, Tensor& t);

/// Derivative w.r.t. the *pre-activation* input given the input value
/// (used by the training substrate).
float derivative(Activation a, float x);

/// Parses Darknet cfg names: "linear", "relu", "leaky", "logistic".
Activation parse_activation(std::string_view name);

/// Canonical cfg name of an activation.
std::string_view activation_name(Activation a);

}  // namespace tincy::nn
