#include "nn/describe.hpp"

#include <sstream>

#include "core/string_utils.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"
#include "nn/offload_layer.hpp"
#include "nn/ops.hpp"
#include "nn/region_layer.hpp"

namespace tincy::nn {
namespace {

const char* kernel_name(ConvKernel k) {
  switch (k) {
    case ConvKernel::kReference:
      return "reference";
    case ConvKernel::kFused:
      return "fused";
    case ConvKernel::kLowp:
      return "lowp";
    case ConvKernel::kQuantReference:
      return "quant_reference";
  }
  return "reference";
}

void emit(std::ostream& os, const ConvLayer& l) {
  const auto& c = l.config();
  os << "[convolutional]\n";
  if (c.batch_normalize) os << "batch_normalize=1\n";
  os << "filters=" << c.filters << "\nsize=" << c.size
     << "\nstride=" << c.stride << "\npad=" << (c.pad ? 1 : 0)
     << "\nactivation=" << activation_name(c.activation) << "\n";
  if (c.binary_weights) os << "binary=1\n";
  if (c.act_bits < 32) os << "abits=" << c.act_bits << "\n";
  if (c.bipolar) os << "bipolar=1\n";
  if (c.in_scale != 1.0f) os << "in_scale=" << c.in_scale << "\n";
  if (c.out_scale != 1.0f) os << "out_scale=" << c.out_scale << "\n";
  os << "kernel=" << kernel_name(c.kernel) << "\n\n";
}

void emit(std::ostream& os, const ConnectedLayer& l) {
  const auto& c = l.config();
  os << "[connected]\noutput=" << c.outputs
     << "\nactivation=" << activation_name(c.activation) << "\n";
  if (c.binary_weights) os << "binary=1\n";
  if (c.act_bits < 32) os << "abits=" << c.act_bits << "\n";
  if (c.bipolar) os << "bipolar=1\n";
  if (c.in_scale != 1.0f) os << "in_scale=" << c.in_scale << "\n";
  if (c.out_scale != 1.0f) os << "out_scale=" << c.out_scale << "\n";
  os << "\n";
}

void emit(std::ostream& os, const MaxPoolLayer& l) {
  os << "[maxpool]\nsize=" << l.config().size
     << "\nstride=" << l.config().stride << "\n\n";
}

void emit(std::ostream& os, const RegionLayer& l) {
  const auto& c = l.config();
  os << "[region]\nanchors=";
  for (size_t i = 0; i < c.anchors.size(); ++i) {
    if (i) os << ',';
    os << c.anchors[i];
  }
  os << "\nclasses=" << c.classes << "\ncoords=" << c.coords
     << "\nnum=" << c.num << "\nsoftmax=" << (c.softmax ? 1 : 0) << "\n\n";
}

void emit(std::ostream& os, const OffloadLayer& l) {
  const auto& c = l.config();
  os << "[offload]\nlibrary=" << c.library << "\nnetwork=" << c.network
     << "\nweights=" << c.weights << "\nheight=" << c.output_shape.height()
     << "\nwidth=" << c.output_shape.width()
     << "\nchannel=" << c.output_shape.channels() << "\n";
  for (const auto& [k, v] : c.extra) os << k << '=' << v << "\n";
  os << "\n";
}

}  // namespace

std::string summary(const Network& net) {
  std::ostringstream os;
  os << "layer  type            output            ops             "
        "precision  kernel\n";
  const auto rows = ops_rows(net);
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    const Layer& layer = net.layer(i);
    const auto* conv = dynamic_cast<const ConvLayer*>(&layer);
    char line[160];
    std::snprintf(line, sizeof line, "%5lld  %-14s  %-16s  %14s  %-9s  %s\n",
                  static_cast<long long>(i), layer.type_name().c_str(),
                  layer.output_shape().to_string().c_str(),
                  with_commas(rows[static_cast<size_t>(i)].ops).c_str(),
                  rows[static_cast<size_t>(i)].precision.name().c_str(),
                  conv ? kernel_name(conv->config().kernel) : "-");
    os << line;
  }
  os << "total ops/frame: " << with_commas(total_ops(net)) << "\n";
  return os.str();
}

std::string to_cfg(const Network& net) {
  std::ostringstream os;
  const Shape in = net.input_shape();
  os << "[net]\nwidth=" << in.width() << "\nheight=" << in.height()
     << "\nchannels=" << in.channels() << "\n\n";
  for (int64_t i = 0; i < net.num_layers(); ++i) {
    const Layer& layer = net.layer(i);
    if (const auto* l = dynamic_cast<const ConvLayer*>(&layer)) emit(os, *l);
    else if (const auto* l2 = dynamic_cast<const ConnectedLayer*>(&layer)) emit(os, *l2);
    else if (const auto* l3 = dynamic_cast<const MaxPoolLayer*>(&layer)) emit(os, *l3);
    else if (const auto* l4 = dynamic_cast<const RegionLayer*>(&layer)) emit(os, *l4);
    else if (const auto* l5 = dynamic_cast<const OffloadLayer*>(&layer)) emit(os, *l5);
    else throw Error("to_cfg: unknown layer type " + layer.type_name());
  }
  return os.str();
}

}  // namespace tincy::nn
