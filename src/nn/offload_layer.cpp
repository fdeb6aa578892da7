#include "nn/offload_layer.hpp"

#include "core/errors.hpp"

namespace tincy::nn {

OffloadRegistry& OffloadRegistry::instance() {
  static OffloadRegistry registry;
  return registry;
}

void OffloadRegistry::register_library(const std::string& library_name,
                                       Factory factory) {
  factories_[library_name] = std::move(factory);
}

std::unique_ptr<OffloadBackend> OffloadRegistry::open(
    const std::string& library_name) const {
  const auto it = factories_.find(library_name);
  TINCY_CHECK_MSG(it != factories_.end(),
                  "offload library not registered: '" << library_name << "'");
  return it->second();
}

bool OffloadRegistry::contains(const std::string& library_name) const {
  return factories_.contains(library_name);
}

OffloadLayer::OffloadLayer(const OffloadConfig& cfg, Shape input_shape)
    : cfg_(cfg) {
  backend_ = OffloadRegistry::instance().open(cfg.library);
  backend_->init(cfg_, input_shape);  // Fig. 3: init() with configuration
  auto& registry = telemetry::MetricsRegistry::global();
  const std::string prefix = "offload." + cfg_.library + ".";
  forward_hist_ = &registry.histogram(prefix + "forward_ms");
  frames_counter_ = &registry.counter(prefix + "frames");
  ops_counter_ = &registry.counter(prefix + "ops");
}

OffloadLayer::~OffloadLayer() {
  if (backend_) backend_->destroy();  // Fig. 3: resource cleanup
}

void OffloadLayer::forward(const Tensor& in, Tensor& out) const {
  TINCY_CHECK(out.shape() == cfg_.output_shape);
  telemetry::ScopedTimer span(*forward_hist_);
  backend_->forward(in, out);
  frames_counter_->add(1);
  ops_counter_->add(backend_->ops().ops);
}

void OffloadLayer::load_weights(WeightReader&) {
  // The offload's parameters come from its own weight store (Fig. 4:
  // `weights=binparam-.../`), not from the enclosing Darknet weight file.
  backend_->load_weights();
}

}  // namespace tincy::nn
