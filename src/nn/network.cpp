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
    // A code pool after a layer that runs it, with a producer of its own
    // whose output the state keeps: one pass, no unpooled map.
    fused_.back() = plan_.back() && layers_.size() >= 2 &&
                    layer->code_pool() && producer.runs_code_pool();
  }
  plan_.emplace_back();  // the network's output is floats
  fused_.push_back(false);
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

void Network::bind(FrameState& state) const {
  auto& boundaries = state.boundaries_;
  if (boundaries.size() == layers_.size()) return;
  // A network only grows (add()); a longer state ran another network.
  TINCY_CHECK_MSG(boundaries.size() < layers_.size(),
                  "a frame state of another network");
  boundaries.resize(layers_.size());
}

Tensor& Network::float_buffer(int64_t i, FrameState& state) const {
  Tensor& out = state.boundaries_[static_cast<size_t>(i)].floats;
  if (out.empty()) out = Tensor(layers_[static_cast<size_t>(i)]->output_shape());
  return out;
}

bool Network::emits(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  const auto u = static_cast<size_t>(i);
  return plan_[u] &&
         layers_[u]->write_grid(i == 0 ? std::nullopt : plan_[u - 1],
                                std::nullopt) != plan_[u];
}

bool Network::fuses_pool(int64_t i) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  return fused_[static_cast<size_t>(i)];
}

LayerIn Network::input_of(int64_t i, const Tensor* input,
                          const FrameState& state) const {
  if (i == 0) return LayerIn{input};
  const auto u = static_cast<size_t>(i);
  const FrameState::Boundary& prev = state.boundaries_[u - 1];
  TINCY_CHECK_MSG(!plan_[u - 1] || !prev.codes.empty(),
                  "layer " << i - 1 << " has not run in this state");
  return plan_[u - 1] ? LayerIn{nullptr, prev.codes.data(), *plan_[u - 1]}
                      : LayerIn{&prev.floats};
}

void Network::forward_layer(int64_t i, const Tensor& input,
                            FrameState& state) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  bind(state);
  const auto u = static_cast<size_t>(i);
  LayerSpan span(*layer_hist_[u], layer_trace_names_[u]);
  if (i > 0 && fused_[u - 1]) {
    // The conv before this pool wrote its pooled output here already.
    const FrameState::Boundary& here = state.boundaries_[u];
    TINCY_CHECK_MSG(plan_[u] ? !here.codes.empty() : here.floats_current,
                    "layer " << i - 1 << " has not run in this state");
    return;
  }
  const LayerIn in = input_of(i, &input, state);
  // A fused conv writes its pool's output; its own boundary stays empty
  // and layer_output recomputes it.
  const size_t w = fused_[u] ? u + 1 : u;
  const Layer& writer = *layers_[w];
  FrameState::Boundary& here = state.boundaries_[w];
  LayerOut out;
  if (plan_[w]) {
    if (here.codes.empty()) here.codes = TensorU8(writer.output_shape());
    out = {nullptr, here.codes.data(), *plan_[w], &here.emitted};
  } else {
    out.floats = &float_buffer(static_cast<int64_t>(w), state);
  }
  if (fused_[u]) {
    out.pool = *writer.code_pool();
    state.boundaries_[u].floats_current = false;
  }
  layers_[u]->forward(in, out);
  here.floats_current = out.floats != nullptr;
}

const Tensor& Network::forward(const Tensor& input, FrameState& state) const {
  TINCY_CHECK_MSG(!layers_.empty(), "empty network");
  telemetry::ScopedTimer span(*forward_hist_);
  for (int64_t i = 0; i < num_layers(); ++i) forward_layer(i, input, state);
  return layer_output(num_layers() - 1, state);
}

const Tensor& Network::forward(const Tensor& input) {
  return forward(input, state_);
}

const Tensor& Network::layer_output(int64_t i, FrameState& state) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  bind(state);
  const auto u = static_cast<size_t>(i);
  FrameState::Boundary& here = state.boundaries_[u];
  Tensor& out = float_buffer(i, state);
  if (!here.floats_current) {
    if (fused_[u])  // the unpooled map, from the input the state keeps
      layers_[u]->forward(input_of(i, nullptr, state), LayerOut{&out});
    else if (emits(i))
      layers_[u]->replay_emitted(here.emitted, out);
    else  // codes are HWC, floats CHW
      gemm::dequantize_to_chw(*plan_[u], here.codes.data(),
                              out.shape().channels(),
                              out.numel() / out.shape().channels(),
                              out.data());
    here.floats_current = true;
  }
  return out;
}

const Tensor& Network::layer_output(int64_t i) {
  return layer_output(i, state_);
}

const Tensor& Network::run_layer(int64_t i, const Tensor& in) {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  bind(state_);
  Tensor& out = float_buffer(i, state_);
  run_layer_into(i, in, out);
  state_.boundaries_[static_cast<size_t>(i)].floats_current = true;
  return out;
}

void Network::run_layer_into(int64_t i, const Tensor& in, Tensor& out) const {
  TINCY_CHECK_MSG(i >= 0 && i < num_layers(), "layer " << i);
  const auto u = static_cast<size_t>(i);
  LayerSpan span(*layer_hist_[u], layer_trace_names_[u]);
  layers_[u]->forward(in, out);
}

telemetry::Snapshot Network::snapshot() const {
  return metrics_->snapshot("net.");
}

}  // namespace tincy::nn
