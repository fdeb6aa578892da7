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
#include "quant/affine.hpp"
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

/// The quantised input frame and calibration an 8-bit layer keeps when it
/// writes codes on a grid it does not offer (Layer::write_grid): what
/// Layer::replay_emitted recomputes its floats from. Per frame, so it
/// lives in the frame's nn::FrameState, not in the layer.
struct EmittedFrame {
  TensorU8 frame;  ///< the layer's input, quantised (C × H × W)
  quant::AffineParams params;
};

/// The input side of a layer boundary in Network::forward: CHW floats, or
/// u8 codes on `grid`, pixel-major (HWC, gemm/layout.hpp) whatever the
/// C × H × W shape says. Exactly one of `floats` and `codes` is set.
struct LayerIn {
  const Tensor* floats = nullptr;
  const uint8_t* codes = nullptr;
  CodeGrid grid{};  ///< the codes' grid
};

/// A max pool over codes: size × size windows at `stride`, Darknet's
/// geometry (nn/maxpool_layer.hpp). Size 0 is no pool.
struct CodePool {
  int64_t size = 0;
  int64_t stride = 0;
};

/// The output side, as LayerIn, plus where an emitting layer keeps its
/// frame (null: nowhere, and the floats cannot be replayed), and the code
/// pool it runs on its output before writing it (Layer::runs_code_pool):
/// `floats` or `codes` then hold the pooled map.
struct LayerOut {
  Tensor* floats = nullptr;
  uint8_t* codes = nullptr;
  CodeGrid grid{};
  EmittedFrame* emitted = nullptr;
  CodePool pool{};
};

/// Abstract network layer. Construction plays the role of Darknet's init
/// hook (the layer sizes its buffers from the incoming shape); the other
/// three hooks map to the virtuals below. Layers own their parameters and
/// hold no per-frame state: forward is const, so frames with their own
/// buffers can run through one layer at once. Lazy caches derived from
/// the parameters are built under a lock.
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
  virtual void forward(const Tensor& in, Tensor& out) const = 0;

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
  virtual void forward(const LayerIn& in, const LayerOut& out) const {
    TINCY_CHECK_MSG(in.floats && out.floats,
                    type_name() << " has no code-domain forward");
    forward(*in.floats, *out.floats);
  }
  /// The float output of a forward() that wrote codes on a grid it does
  /// not offer (write_grid), from the frame it kept in out.emitted;
  /// byte-identical to what the float forward writes for that input.
  virtual void replay_emitted(const EmittedFrame& /*kept*/,
                              Tensor& /*out*/) const {
    TINCY_CHECK_MSG(false, type_name() << " cannot emit codes");
  }

  /// Conv + pool fusion: Network::add has a layer that runs_code_pool()
  /// run the code pool after it (code_pool()) in its own forward, when
  /// codes cross the boundary between them (nn/network.hpp).
  ///
  /// The pool this layer is, when a producer may run it instead; nullopt
  /// for any other layer.
  virtual std::optional<CodePool> code_pool() const { return std::nullopt; }
  /// Whether this layer's code-domain forward pools its output when
  /// LayerOut::pool asks it to.
  virtual bool runs_code_pool() const { return false; }

  /// Operations per frame in the paper's accounting (see ops.hpp).
  virtual OpsCount ops() const { return {}; }

  /// Precision class this layer computes in.
  virtual Precision precision() const { return kFloat; }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace tincy::nn
