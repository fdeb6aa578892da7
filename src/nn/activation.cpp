#include "nn/activation.hpp"

#include <cmath>

#include "core/errors.hpp"

namespace tincy::nn {

float apply(Activation a, float x) {
  float y = x;
  with_activation(a, [&](auto act) { y = act(x); });
  return y;
}

void apply(Activation a, Tensor& t) {
  if (a == Activation::kLinear) return;
  with_activation(a, [&](auto act) {
    for (int64_t i = 0; i < t.numel(); ++i) t[i] = act(t[i]);
  });
}

float derivative(Activation a, float x) {
  switch (a) {
    case Activation::kLinear:
      return 1.0f;
    case Activation::kRelu:
      return x > 0.0f ? 1.0f : 0.0f;
    case Activation::kLeaky:
      return x > 0.0f ? 1.0f : 0.1f;
    case Activation::kLogistic: {
      const float s = activate<Activation::kLogistic>(x);
      return s * (1.0f - s);
    }
  }
  return 1.0f;
}

Activation parse_activation(std::string_view name) {
  if (name == "linear") return Activation::kLinear;
  if (name == "relu") return Activation::kRelu;
  if (name == "leaky") return Activation::kLeaky;
  if (name == "logistic") return Activation::kLogistic;
  throw Error("unknown activation: " + std::string(name));
}

std::string_view activation_name(Activation a) {
  switch (a) {
    case Activation::kLinear:
      return "linear";
    case Activation::kRelu:
      return "relu";
    case Activation::kLeaky:
      return "leaky";
    case Activation::kLogistic:
      return "logistic";
  }
  return "linear";
}

}  // namespace tincy::nn
