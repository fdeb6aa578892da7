#pragma once

/// \file activation.hpp
/// Per-element activation functions of the layer framework: the
/// activations themselves live in core/activation.hpp.

#include <string_view>

#include "core/activation.hpp"
#include "core/tensor.hpp"

namespace tincy::nn {

using tincy::activate;
using tincy::Activation;
using tincy::with_activation;

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
