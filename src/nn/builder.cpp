#include "nn/builder.hpp"

#include "core/errors.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/offload_layer.hpp"
#include "nn/region_layer.hpp"

namespace tincy::nn {
namespace {

/// cfg `kernel=` names: the four canonical names (the ones describe.cpp
/// prints), then the legacy names of deleted runtime paths, accepted as
/// aliases of the path that replaced them.
struct KernelName {
  const char* name;
  ConvKernel kernel;
};
constexpr KernelName kKernelNames[] = {
    {"reference", ConvKernel::kReference},
    {"fused", ConvKernel::kFused},
    {"lowp", ConvKernel::kLowp},
    {"quant_reference", ConvKernel::kQuantReference},
    {"fused_lowp", ConvKernel::kLowp},
    {"first16_acc16", ConvKernel::kLowp},
    {"first16_acc32", ConvKernel::kLowp},
    {"first16_f32", ConvKernel::kFused},
};

ConvKernel parse_kernel(const std::string& name) {
  for (const KernelName& k : kKernelNames)
    if (name == k.name) return k.kernel;
  throw Error("unknown conv kernel: " + name);
}

/// A geometry field that must be >= 1: a zero stride divides by zero and a
/// negative size or filter count sizes a negative tensor.
int64_t positive_int(const Section& s, const std::string& key,
                     int64_t fallback) {
  const int64_t v = s.get_int(key, fallback);
  if (v < 1)
    throw Error("[" + s.name + "] " + key + "=" + std::to_string(v) +
                " must be >= 1 (line " + std::to_string(s.line) + ")");
  return v;
}

LayerPtr make_conv(const Section& s, Shape in_shape) {
  ConvConfig cfg;
  cfg.filters = positive_int(s, "filters", 1);
  cfg.size = positive_int(s, "size", 3);
  cfg.stride = positive_int(s, "stride", 1);
  cfg.pad = s.get_int("pad", 0) != 0;
  cfg.activation =
      parse_activation(s.get_string("activation", "leaky"));
  cfg.batch_normalize = s.get_int("batch_normalize", 0) != 0;
  cfg.binary_weights = s.get_int("binary", 0) != 0;
  cfg.act_bits = static_cast<int>(s.get_int("abits", 32));
  cfg.in_scale = static_cast<float>(s.get_double("in_scale", 1.0));
  cfg.out_scale = static_cast<float>(s.get_double("out_scale", 1.0));
  cfg.bipolar = s.get_int("bipolar", 0) != 0;
  cfg.kernel = parse_kernel(s.get_string("kernel", "reference"));
  return std::make_unique<ConvLayer>(cfg, in_shape);
}

LayerPtr make_maxpool(const Section& s, Shape in_shape) {
  MaxPoolConfig cfg;
  cfg.size = positive_int(s, "size", 2);
  cfg.stride = positive_int(s, "stride", 2);
  return std::make_unique<MaxPoolLayer>(cfg, in_shape);
}

LayerPtr make_connected(const Section& s, Shape in_shape) {
  ConnectedConfig cfg;
  cfg.outputs = s.get_int("output", 1);
  cfg.activation = parse_activation(s.get_string("activation", "linear"));
  cfg.binary_weights = s.get_int("binary", 0) != 0;
  cfg.act_bits = static_cast<int>(s.get_int("abits", 32));
  cfg.in_scale = static_cast<float>(s.get_double("in_scale", 1.0));
  cfg.out_scale = static_cast<float>(s.get_double("out_scale", 1.0));
  cfg.bipolar = s.get_int("bipolar", 0) != 0;
  cfg.lowp = s.get_int("lowp", 0) != 0;
  return std::make_unique<ConnectedLayer>(cfg, in_shape);
}

LayerPtr make_region(const Section& s, Shape in_shape) {
  RegionConfig cfg;
  cfg.classes = s.get_int("classes", 20);
  cfg.coords = s.get_int("coords", 4);
  cfg.num = s.get_int("num", 5);
  cfg.anchors = s.get_float_list("anchors");
  cfg.softmax = s.get_int("softmax", 1) != 0;
  return std::make_unique<RegionLayer>(cfg, in_shape);
}

LayerPtr make_offload(const Section& s, Shape in_shape) {
  OffloadConfig cfg;
  cfg.library = s.require_string("library");
  cfg.network = s.get_string("network", "");
  cfg.weights = s.get_string("weights", "");
  const int64_t c = s.require_int("channel");
  const int64_t h = s.require_int("height");
  const int64_t w = s.require_int("width");
  TINCY_CHECK_MSG(c > 0 && h > 0 && w > 0,
                  "[offload] needs positive output geometry "
                  "height/width/channel (line " << s.line << ")");
  cfg.output_shape = Shape{c, h, w};
  for (const auto& [k, v] : s.kv) {
    if (k != "library" && k != "network" && k != "weights" && k != "channel" &&
        k != "height" && k != "width")
      cfg.extra[k] = v;
  }
  return std::make_unique<OffloadLayer>(cfg, in_shape);
}

}  // namespace

std::unique_ptr<Network> build_network(const std::vector<Section>& sections,
                                       telemetry::MetricsRegistry* metrics) {
  TINCY_CHECK_MSG(!sections.empty() && sections.front().name == "net",
                  "cfg must start with a [net] section");
  const Section& net_s = sections.front();
  const Shape input{net_s.get_int("channels", 3), net_s.get_int("height", 416),
                    net_s.get_int("width", 416)};
  auto net = std::make_unique<Network>(input, metrics);

  for (size_t i = 1; i < sections.size(); ++i) {
    const Section& s = sections[i];
    const Shape in_shape = net->num_layers() == 0
                               ? input
                               : net->layers().back()->output_shape();
    if (s.name == "convolutional" || s.name == "conv") {
      net->add(make_conv(s, in_shape));
    } else if (s.name == "maxpool") {
      net->add(make_maxpool(s, in_shape));
    } else if (s.name == "connected") {
      net->add(make_connected(s, in_shape));
    } else if (s.name == "region") {
      net->add(make_region(s, in_shape));
    } else if (s.name == "offload") {
      net->add(make_offload(s, in_shape));
    } else {
      throw Error("unsupported cfg section [" + s.name + "] at line " +
                  std::to_string(s.line));
    }
  }
  return net;
}

std::unique_ptr<Network> build_network_from_string(
    const std::string& cfg_text, telemetry::MetricsRegistry* metrics) {
  return build_network(parse_cfg(cfg_text), metrics);
}

std::unique_ptr<Network> build_network_from_file(
    const std::string& path, telemetry::MetricsRegistry* metrics) {
  return build_network(parse_cfg_file(path), metrics);
}

}  // namespace tincy::nn
