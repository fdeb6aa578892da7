#pragma once

/// \file network.hpp
/// The network container: an ordered list of layers plus their activation
/// buffers. Besides the classic whole-net forward() it exposes per-layer
/// invocation — the paper had to "disintegrate" Darknet's forward pass to
/// feed individual layers into the frame pipeline (§III-F); here that
/// access is first-class.
///
/// Inside forward() the W1A<bits> hidden stack runs on activation codes,
/// as the paper's offload segment does (Fig. 3/4): a layer that computes
/// on codes hands its u8 codes straight to the next one whenever the
/// producer's output grid is the consumer's input grid
/// (Layer::code_output). A quantized conv's codes go to the next quantized
/// conv directly or through a max pool that pools codes; they are
/// dequantised only where a float layer reads them.
///
/// The hand-off also reaches back into the float producer of a quantized
/// layer: when a layer quantises its input onto grid G and the float
/// layer before it can emit G (Layer::emits_codes; today an 8-bit kLowp
/// conv with a linear, ReLU or leaky activation), the producer writes G's
/// codes from its accumulators and the consumer reads them directly. On
/// zoo:tincy-w1a3, L0 writes L1's 3-bit codes and L1's quantise pass is
/// gone. Such a producer's float output is not written; layer_output()
/// recomputes it on first read from the quantised frame the producer
/// keeps (Layer::replay_emitted), with no per-frame copy of the input.
///
/// The hand-off depends on the layers' grids alone, and every activation
/// is bit-identical to running the layers one by one on floats.
///
/// Per-layer timing is reported through the telemetry registry: every
/// run_layer/run_layer_into span and every layer of forward() records into
/// `net.layer.<i>.<type>.ms`, and forward() additionally into
/// `net.forward.ms`.

#include <optional>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tincy::nn {

class Network {
 public:
  /// `metrics` defaults to the process-wide registry; hand a dedicated
  /// one for isolated measurements (tests, side-by-side comparisons).
  explicit Network(Shape input_shape,
                   telemetry::MetricsRegistry* metrics = nullptr);

  /// Appends a layer; its input shape is the current output shape.
  void add(LayerPtr layer);

  int64_t num_layers() const { return static_cast<int64_t>(layers_.size()); }
  const std::vector<LayerPtr>& layers() const { return layers_; }
  Layer& layer(int64_t i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int64_t i) const { return *layers_[static_cast<size_t>(i)]; }

  Shape input_shape() const { return input_shape_; }
  /// Input shape of layer i (== output shape of layer i−1).
  Shape layer_input_shape(int64_t i) const;
  /// Output shape of the whole network.
  Shape output_shape() const;

  /// Whole-network inference; returns the final feature map. Each layer
  /// records a telemetry span retrievable via last_layer_ms()/snapshot().
  const Tensor& forward(const Tensor& input);

  /// Runs a single layer on an explicit input (pipeline mode). The result
  /// lands in this layer's activation buffer and is returned.
  const Tensor& run_layer(int64_t i, const Tensor& in);

  /// Runs a single layer into an external output buffer — the demo
  /// pipeline's per-frame-buffer mode, where concurrent frames must not
  /// share activation storage. Records the same telemetry span as
  /// run_layer, so per-layer timings stay fresh in pipeline mode.
  void run_layer_into(int64_t i, const Tensor& in, Tensor& out);

  /// Float activation of layer i after the last forward/run_layer. A layer
  /// that emitted codes in forward() dequantises them on the first read; a
  /// float producer that emitted its consumer's codes recomputes its floats
  /// then, byte-identical to run_layer(i). Like forward(), not safe to call
  /// concurrently.
  const Tensor& layer_output(int64_t i) const;

  /// Milliseconds layer i took in its most recent execution (0 before any
  /// run).
  /// \deprecated Thin adapter over the `net.layer.<i>.<type>.ms`
  /// telemetry histogram; prefer snapshot().
  double last_layer_ms(int64_t i) const;

  /// Sample of this network's metrics (the `net.` namespace of its
  /// registry): per-layer latency histograms plus `net.forward.ms`.
  telemetry::Snapshot snapshot() const;

  /// The registry this network reports into.
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// How forward() runs a layer.
  enum class Mode {
    kFloat,     ///< floats in (dequantised if need be), floats out
    kQuantize,  ///< floats in, quantised onto code_input(), codes out
    kCodes,     ///< the previous layer's codes in, codes out
    kEmit,      ///< floats in, the next layer's input codes out
  };
  struct Slot {
    Mode mode = Mode::kFloat;
    std::optional<CodeGrid> grid_in;   ///< kQuantize: the input grid
    std::optional<CodeGrid> grid_out;  ///< kQuantize/kCodes/kEmit: output grid
    /// kQuantize/kCodes: allocated by the first forward(); a kEmit layer's
    /// codes live in forward()'s arena scratch.
    TensorU8 codes;
    Tensor out;  ///< kFloat: allocated by the next add(); else on first use
    bool out_current = true;  ///< `out` holds the latest activation
  };

  /// The float buffer of layer i, allocated on first use.
  Tensor& float_buffer(int64_t i) const;
  /// float_buffer(i) holding the latest activation of layer i.
  const Tensor& float_output(int64_t i) const;

  Shape input_shape_;
  telemetry::MetricsRegistry* metrics_;
  std::vector<LayerPtr> layers_;
  /// Mutable: layer_output() dequantises a layer's codes on first read.
  mutable std::vector<Slot> slots_;
  std::vector<telemetry::Histogram*> layer_hist_;  ///< net.layer.<i>.<type>.ms
  std::vector<std::string> layer_trace_names_;     ///< net.layer.<i>.<type>
  telemetry::Histogram* forward_hist_;             ///< net.forward.ms
};

}  // namespace tincy::nn
