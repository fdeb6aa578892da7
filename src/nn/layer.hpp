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
/// What one layer boundary carries: codes on this grid, or floats
/// (nullopt).
using MaybeGrid = std::optional<CodeGrid>;

/// One side of a layer boundary in Network::forward: CHW floats, or u8
/// codes on `grid`, pixel-major (HWC, gemm/layout.hpp) whatever the
/// C × H × W shape says. Exactly one of `floats` and `codes` is set.
template <typename Floats, typename Code>
struct Handoff {
  Floats* floats = nullptr;
  Code* codes = nullptr;
  CodeGrid grid{};  ///< the codes' grid
};
using LayerIn = Handoff<const Tensor, const uint8_t>;
using LayerOut = Handoff<Tensor, uint8_t>;

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

  /// The code hand-off of Network::forward (nn/network.hpp): a layer
  /// boundary carries u8 codes on grid G, instead of floats, when the
  /// producer can write G and the consumer reads G (and G is exact,
  /// CodeGrid::exact). Two queries settle each boundary once, in
  /// Network::add; forward(LayerIn, LayerOut) then runs it every frame.
  ///
  /// The grid this layer reads codes on when its producer offers
  /// `offered` (nullopt: the producer offers none, but writes what its
  /// consumer asks for if it can). nullopt: this layer reads floats.
  virtual MaybeGrid read_grid(MaybeGrid /*offered*/) const {
    return std::nullopt;
  }
  /// The grid this layer writes codes on, given its input (`in`: the grid
  /// of its input codes, nullopt for floats) and the grid its consumer
  /// reads (`wanted`, nullopt for none). Asked with no `wanted` grid, the
  /// grid it offers on its own: codes whose dequantised values are its
  /// float activation. A grid written only because it is wanted quantises
  /// that activation instead, and replay_emitted() recomputes the floats.
  virtual MaybeGrid write_grid(MaybeGrid /*in*/, MaybeGrid /*wanted*/) const {
    return std::nullopt;
  }
  /// Forward across one boundary on each side: each of `in` and `out` is
  /// floats or codes, as the two queries above allow. Byte-identical to
  /// forward(const Tensor&, Tensor&) on the dequantised input, with the
  /// output quantised onto out.grid. A layer without codes needs no
  /// override: floats in and out run the float forward.
  virtual void forward(const LayerIn& in, const LayerOut& out) {
    TINCY_CHECK_MSG(in.floats && out.floats,
                    type_name() << " has no code-domain forward");
    forward(*in.floats, *out.floats);
  }
  /// The float output of the latest forward() that wrote codes on a grid
  /// it does not offer (write_grid), byte-identical to what the float
  /// forward writes for that input.
  virtual void replay_emitted(Tensor& /*out*/) {
    TINCY_CHECK_MSG(false, type_name() << " cannot emit codes");
  }

  /// Operations per frame in the paper's accounting (see ops.hpp).
  virtual OpsCount ops() const { return {}; }

  /// Precision class this layer computes in.
  virtual Precision precision() const { return kFloat; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace tincy::nn
