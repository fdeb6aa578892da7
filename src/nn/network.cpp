#include "nn/network.hpp"

#include "gemm/scratch.hpp"

namespace tincy::nn {

namespace {

/// The telemetry of one layer execution: its latency histogram and a
/// trace span tagged with the frame identity installed by the
/// server/pipeline worker (docs/observability.md "Tracing").
struct LayerSpan {
  LayerSpan(telemetry::Histogram& hist, const std::string& name)
      : timer(hist),
        trace(&telemetry::TraceCollector::global(), name,
              telemetry::current_trace_context()) {}

  telemetry::ScopedTimer timer;
  telemetry::TraceSpan trace;
};

}  // namespace

Network::Network(Shape input_shape, telemetry::MetricsRegistry* metrics)
    : input_shape_(input_shape),
      metrics_(metrics ? metrics : &telemetry::MetricsRegistry::global()) {
  TINCY_CHECK_MSG(input_shape.rank() >= 1, "empty input shape");
  forward_hist_ = &metrics_->histogram("net.forward.ms");
}

void Network::add(LayerPtr layer) {
  TINCY_CHECK(layer != nullptr);
  // Plan forward()'s hand-off: codes pass on whenever this layer reads
  // the previous layer's (exact) output grid.
  Slot slot;
  const std::optional<CodeGrid> prev =
      slots_.empty() ? std::nullopt : slots_.back().grid_out;
  if (prev && prev->exact()) slot.grid_out = layer->code_output(*prev);
  if (slot.grid_out) {
    slot.mode = Mode::kCodes;
  } else if ((slot.grid_in = layer->code_input())) {
    slot.grid_out = layer->code_output(*slot.grid_in);
    TINCY_CHECK(slot.grid_out.has_value());
    slot.mode = Mode::kQuantize;
    // A float producer that can write this layer's input codes does so.
    Slot* prev_slot = slots_.empty() ? nullptr : &slots_.back();
    if (prev_slot && prev_slot->mode == Mode::kFloat &&
        slot.grid_in->exact() && layers_.back()->emits_codes(*slot.grid_in)) {
      prev_slot->mode = Mode::kEmit;
      prev_slot->grid_out = slot.grid_in;
      slot.mode = Mode::kCodes;
    }
  }
  // The previous layer's hand-off is settled now. Float layers need their
  // buffer every frame; any other layer's float buffer is only allocated
  // if its activation is read as floats (the last layer's on first use).
  if (!slots_.empty() && slots_.back().mode == Mode::kFloat)
    slots_.back().out = Tensor(layers_.back()->output_shape());
  slots_.push_back(std::move(slot));
  const std::string label = "net.layer." + std::to_string(layers_.size()) +
                            "." + layer->type_name();
  layer_hist_.push_back(&metrics_->histogram(label + ".ms"));
  layer_trace_names_.push_back(label);
  layers_.push_back(std::move(layer));
}

Shape Network::layer_input_shape(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return i == 0 ? input_shape_
                : layers_[static_cast<size_t>(i - 1)]->output_shape();
}

Shape Network::output_shape() const {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  return layers_.back()->output_shape();
}

Tensor& Network::float_buffer(int64_t i) const {
  Slot& slot = slots_[static_cast<size_t>(i)];
  if (slot.out.empty())
    slot.out = Tensor(layers_[static_cast<size_t>(i)]->output_shape());
  return slot.out;
}

const Tensor& Network::float_output(int64_t i) const {
  Tensor& out = float_buffer(i);
  Slot& slot = slots_[static_cast<size_t>(i)];
  if (!slot.out_current) {
    if (slot.mode == Mode::kEmit)
      layers_[static_cast<size_t>(i)]->replay_emitted(out);
    else
      slot.grid_out->dequantize(slot.codes.data(), slot.codes.numel(),
                                out.data());
    slot.out_current = true;
  }
  return out;
}

const Tensor& Network::forward(const Tensor& input) {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  telemetry::ScopedTimer span(*forward_hist_);
  // Codes only the next layer reads (a kEmit producer's, or the input
  // codes of a kQuantize layer) live in arena scratch for this call.
  auto& arena = gemm::thread_arena();
  gemm::ScratchScope scope(arena);
  const uint8_t* emitted = nullptr;  // the kEmit layer's codes
  for (int64_t i = 0; i < num_layers(); ++i) {
    const auto u = static_cast<size_t>(i);
    Layer& layer = *layers_[u];
    Slot& slot = slots_[u];
    LayerSpan layer_span(*layer_hist_[u], layer_trace_names_[u]);
    if (slot.mode == Mode::kFloat) {
      layer.forward(i == 0 ? input : float_output(i - 1), float_buffer(i));
      slot.out_current = true;
      continue;
    }
    if (slot.mode == Mode::kEmit) {
      uint8_t* codes = arena.alloc<uint8_t>(layer.output_shape().numel());
      layer.forward_emit(i == 0 ? input : float_output(i - 1),
                         *slot.grid_out, codes);
      emitted = codes;
      slot.out_current = false;
      continue;
    }
    if (slot.codes.empty()) slot.codes = TensorU8(layer.output_shape());
    if (slot.mode == Mode::kCodes) {
      layer.forward_codes(slots_[u - 1].mode == Mode::kEmit
                              ? emitted
                              : slots_[u - 1].codes.data(),
                          slot.codes.data());
    } else {
      const Tensor& in = i == 0 ? input : float_output(i - 1);
      TINCY_CHECK(in.shape() == layer_input_shape(i));
      gemm::ScratchScope quantize_scope(arena);
      uint8_t* codes = arena.alloc<uint8_t>(in.numel());
      slot.grid_in->quantize(in.data(), in.numel(), codes);
      layer.forward_codes(codes, slot.codes.data());
    }
    slot.out_current = false;
  }
  return float_output(num_layers() - 1);
}

const Tensor& Network::run_layer(int64_t i, const Tensor& in) {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  run_layer_into(i, in, float_buffer(i));
  slots_[static_cast<size_t>(i)].out_current = true;
  return slots_[static_cast<size_t>(i)].out;
}

void Network::run_layer_into(int64_t i, const Tensor& in, Tensor& out) {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  const auto u = static_cast<size_t>(i);
  LayerSpan span(*layer_hist_[u], layer_trace_names_[u]);
  layers_[u]->forward(in, out);
}

const Tensor& Network::layer_output(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return float_output(i);
}

double Network::last_layer_ms(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return layer_hist_[static_cast<size_t>(i)]->last();
}

telemetry::Snapshot Network::snapshot() const {
  return metrics_->snapshot("net.");
}

}  // namespace tincy::nn
