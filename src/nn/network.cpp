#include "nn/network.hpp"

#include "gemm/layout.hpp"

namespace tincy::nn {

namespace {

/// The telemetry of one layer execution: its latency histogram and a
/// trace span tagged with the frame identity installed by the
/// server worker (docs/observability.md "Tracing").
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
  if (!layers_.empty()) {
    // Settle the boundary into this layer: codes on G when the producer
    // can write G and this layer reads G, floats otherwise.
    const Layer& producer = *layers_.back();
    const MaybeGrid producer_in =
        plan_.size() < 2 ? std::nullopt : plan_[plan_.size() - 2];
    const MaybeGrid wanted =
        layer->read_grid(producer.write_grid(producer_in, std::nullopt));
    if (wanted && wanted->exact() &&
        producer.write_grid(producer_in, wanted) == wanted)
      plan_.back() = wanted;
    else  // floats cross this boundary every frame
      slots_.back().out = Tensor(producer.output_shape());
  }
  // The network's output is floats, its buffer allocated on first use.
  plan_.emplace_back();
  slots_.emplace_back();
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

bool Network::emits(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  const auto u = static_cast<size_t>(i);
  return plan_[u] &&
         layers_[u]->write_grid(i == 0 ? std::nullopt : plan_[u - 1],
                                std::nullopt) != plan_[u];
}

const Tensor& Network::float_output(int64_t i) const {
  Tensor& out = float_buffer(i);
  Slot& slot = slots_[static_cast<size_t>(i)];
  if (!slot.out_current) {
    if (emits(i))
      layers_[static_cast<size_t>(i)]->replay_emitted(out);
    else  // codes are HWC, floats CHW
      gemm::dequantize_to_chw(*plan_[static_cast<size_t>(i)],
                              slot.codes.data(), out.shape().channels(),
                              out.numel() / out.shape().channels(),
                              out.data());
    slot.out_current = true;
  }
  return out;
}

const Tensor& Network::forward(const Tensor& input) {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  telemetry::ScopedTimer span(*forward_hist_);
  LayerIn in{&input};
  for (int64_t i = 0; i < num_layers(); ++i) {
    const auto u = static_cast<size_t>(i);
    Layer& layer = *layers_[u];
    Slot& slot = slots_[u];
    LayerSpan layer_span(*layer_hist_[u], layer_trace_names_[u]);
    if (plan_[u] && slot.codes.empty())
      slot.codes = TensorU8(layer.output_shape());
    const LayerOut out = plan_[u]
                             ? LayerOut{nullptr, slot.codes.data(), *plan_[u]}
                             : LayerOut{&float_buffer(i)};
    layer.forward(in, out);
    slot.out_current = out.floats != nullptr;
    in = {out.floats, out.codes, out.grid};
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

telemetry::Snapshot Network::snapshot() const {
  return metrics_->snapshot("net.");
}

}  // namespace tincy::nn
