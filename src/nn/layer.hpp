#pragma once

/// \file layer.hpp
/// The layer abstraction of the Darknet-style framework.
///
/// Darknet virtualizes layer functionality through function pointers; the
/// paper's offload mechanism (Fig. 3) exploits exactly that by redirecting
/// a layer's init / load_weights / forward / destroy hooks into a user
/// library. Here the same life cycle is expressed as virtuals on a common
/// base class; OffloadLayer forwards them into a pluggable backend.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/tensor.hpp"
#include "nn/precision.hpp"
#include "quant/thresholds.hpp"

namespace tincy::nn {

class WeightReader;
class WeightWriter;

/// Operation count of one layer, bucketed by precision (Table I/II).
struct OpsCount {
  int64_t ops = 0;  ///< multiply+add counted as 2 ops; pool comparisons per channel.
  Precision precision = kFloat;
};

using quant::CodeGrid;

/// Abstract network layer. Construction plays the role of Darknet's init
/// hook (the layer sizes its buffers from the incoming shape); the other
/// three hooks map to the virtuals below. Layers own their parameters.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Darknet cfg section name of this layer ("convolutional", ...).
  virtual std::string type_name() const = 0;

  /// Shape of the output feature map.
  virtual Shape output_shape() const = 0;

  /// load_weights hook: reads this layer's parameters in file order.
  /// Layers without parameters do nothing.
  virtual void load_weights(WeightReader&) {}

  /// Writes parameters in the same order load_weights reads them.
  virtual void save_weights(WeightWriter&) const {}

  /// forward hook: computes the output feature map from the input.
  /// `out` is pre-allocated to output_shape().
  virtual void forward(const Tensor& in, Tensor& out) = 0;

  /// Code-domain hooks. Network::forward hands activation codes from
  /// layer to layer, instead of dequantising and re-quantising them,
  /// whenever the producer's output grid is the consumer's input grid.
  ///
  /// The grid of the codes forward_codes() emits when it reads codes on
  /// `in`, or nullopt when it cannot read them. A quantized conv reads its
  /// input grid and emits its output grid; a max pool passes the grid
  /// through. Network only hands codes on an exact grid
  /// (CodeGrid::exact).
  virtual std::optional<CodeGrid> code_output(const CodeGrid& /*in*/) const {
    return std::nullopt;
  }
  /// The grid forward() quantizes its float input onto, for a layer that
  /// computes on codes (nullopt for every other layer).
  virtual std::optional<CodeGrid> code_input() const { return std::nullopt; }
  /// Forward over codes: `in` holds input_shape().numel() codes on a grid
  /// code_output() accepts; writes output_shape().numel() codes. Codes are
  /// pixel-major (HWC, gemm/layout.hpp) on both sides: pixel p's C codes
  /// are bytes [p·C, (p+1)·C), whatever the C × H × W shape says.
  virtual void forward_codes(const uint8_t* /*in*/, uint8_t* /*out*/) {
    TINCY_CHECK_MSG(false, type_name() << " has no code-domain forward");
  }

  /// Producer emission: a float layer whose consumer quantises its output
  /// onto grid `g` can write those codes itself, skipping its float
  /// output and the consumer's quantise pass. Whether forward_emit() can
  /// emit codes on `g`.
  virtual bool emits_codes(const CodeGrid& /*g*/) const { return false; }
  /// Float input in, codes on `g` out: byte-identical to forward() followed
  /// by g.quantize(), written pixel-major (HWC) like forward_codes()'s
  /// codes. Keeps what replay_emitted() needs.
  virtual void forward_emit(const Tensor& /*in*/, const CodeGrid& /*g*/,
                            uint8_t* /*out*/) {
    TINCY_CHECK_MSG(false, type_name() << " cannot emit codes");
  }
  /// The float output of the latest forward_emit(), byte-identical to what
  /// forward() writes for that input.
  virtual void replay_emitted(Tensor& /*out*/) {
    TINCY_CHECK_MSG(false, type_name() << " cannot emit codes");
  }

  /// Consumer reading: a float layer whose producer emits codes on grid
  /// `g` can read those codes itself, skipping the producer's dequantise
  /// pass. Whether forward_from_codes() can read codes on `g`.
  virtual bool reads_codes(const CodeGrid& /*g*/) const { return false; }
  /// Codes on `g` in (HWC, input_shape().numel() of them), floats out:
  /// byte-identical to forward() on the dequantised codes.
  virtual void forward_from_codes(const uint8_t* /*in*/, const CodeGrid& /*g*/,
                                  Tensor& /*out*/) {
    TINCY_CHECK_MSG(false, type_name() << " cannot read codes");
  }

  /// Operations per frame in the paper's accounting (see ops.hpp).
  virtual OpsCount ops() const { return {}; }

  /// Precision class this layer computes in.
  virtual Precision precision() const { return kFloat; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace tincy::nn
