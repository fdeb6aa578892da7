#pragma once

/// \file offload_layer.hpp
/// The paper's generic offload mechanism (Figs. 3 and 4).
///
/// Darknet virtualizes layer functionality through function pointers; the
/// offload layer redirects those pointers into an implementation pulled
/// from "an arbitrary user-defined shared library" named in the cfg
/// (`library=fabric.so`). The backing implementation only has to compute
/// an output feature map from an input feature map — internally it may
/// subsume the computation of many layers, as the fabric offload does.
///
/// In this reproduction, dlopen is replaced by an in-process registry:
/// backends register a factory under the library name, and the offload
/// layer resolves its hooks through it. The life cycle mirrors Fig. 3:
/// init (with access to configuration and weights) → load_weights →
/// forward… → destroy.

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "nn/layer.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::nn {

/// The `[offload]` cfg section contents (Fig. 4).
struct OffloadConfig {
  std::string library;  ///< backend name, e.g. "fabric.so"
  std::string network;  ///< subtopology description understood by the backend
  std::string weights;  ///< trained-weights location (e.g. binparam dir)
  Shape output_shape;   ///< declared output geometry (channel, height, width)
  std::map<std::string, std::string> extra;  ///< remaining key=value pairs
};

/// Interface a backend "shared library" implements — the four hooks of
/// Fig. 3 as virtuals.
class OffloadBackend {
 public:
  virtual ~OffloadBackend() = default;

  /// Initialize with access to the layer configuration; sizes any state.
  virtual void init(const OffloadConfig& cfg, Shape input_shape) = 0;

  /// Load trained weights from the configured location.
  virtual void load_weights() = 0;

  /// Layer inference: compute the output feature map.
  virtual void forward(const Tensor& in, Tensor& out) = 0;

  /// Resource cleanup beyond destruction (optional).
  virtual void destroy() {}

  /// Work subsumed by this backend, for the ops accounting.
  virtual OpsCount ops() const { return {}; }

  /// Precision class of the subsumed computation.
  virtual Precision precision() const { return kFloat; }
};

/// Process-wide registry standing in for dlopen: maps a library name to a
/// backend factory.
class OffloadRegistry {
 public:
  using Factory = std::function<std::unique_ptr<OffloadBackend>()>;

  static OffloadRegistry& instance();

  /// Registers (or replaces) a factory under `library_name`.
  void register_library(const std::string& library_name, Factory factory);

  /// Instantiates a backend; throws tincy::Error for unknown names.
  std::unique_ptr<OffloadBackend> open(const std::string& library_name) const;

  bool contains(const std::string& library_name) const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Darknet layer whose hooks are redirected into an OffloadBackend.
class OffloadLayer final : public Layer {
 public:
  OffloadLayer(const OffloadConfig& cfg, Shape input_shape);
  ~OffloadLayer() override;

  std::string type_name() const override { return "offload"; }
  Shape output_shape() const override { return cfg_.output_shape; }
  /// Runs the backend, whose hooks may keep state of their own: a network
  /// with an offload layer takes one frame at a time through it (the demo
  /// runs it as an engine stage).
  void forward(const Tensor& in, Tensor& out) const override;
  void load_weights(WeightReader&) override;
  OpsCount ops() const override { return backend_->ops(); }
  Precision precision() const override { return backend_->precision(); }

  const OffloadConfig& config() const { return cfg_; }
  OffloadBackend& backend() { return *backend_; }

 private:
  OffloadConfig cfg_;
  std::unique_ptr<OffloadBackend> backend_;
  // Cached global-registry metrics, `offload.<library>.*`: backend spans
  // plus ops/frame counters so fabric vs. CPU work stays attributable.
  telemetry::Histogram* forward_hist_;
  telemetry::Counter* frames_counter_;
  telemetry::Counter* ops_counter_;
};

}  // namespace tincy::nn
