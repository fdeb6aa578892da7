#include "offload/import.hpp"

#include <cmath>
#include <limits>

#include "core/errors.hpp"
#include "nn/connected_layer.hpp"
#include "nn/conv_layer.hpp"
#include "nn/maxpool_layer.hpp"

namespace tincy::offload {
namespace {

/// Threshold fold for a connected layer (bias only, no batch norm):
/// z = in_scale · acc + bias_c, compared against the activation targets.
fabric::ThresholdChannel fold_connected_channel(const nn::ConnectedConfig& cfg,
                                                float bias) {
  fabric::ThresholdChannel ch;
  const int levels = cfg.bipolar ? 1 : (1 << cfg.act_bits) - 1;
  for (int k = 1; k <= levels; ++k) {
    const double target =
        cfg.bipolar ? 0.0 : static_cast<double>(cfg.out_scale) * (k - 0.5);
    ch.thresholds.push_back(static_cast<int32_t>(
        std::ceil((target - bias) / cfg.in_scale - 1e-9)));
  }
  return ch;
}

/// Maps a quantized connected layer onto the accelerator: an FC layer is a
/// 1×1 convolution over a 1×1 feature map whose channel count is the
/// flattened input size.
fabric::BinparamLayer fc_stage(const nn::ConnectedLayer& fc) {
  const auto& cfg = fc.config();
  TINCY_CHECK_MSG(cfg.binary_weights && cfg.act_bits < 8,
                  "offloaded connected layers must be quantized");
  fabric::BinparamLayer stage;
  stage.spec.in_channels = fc.inputs();
  stage.spec.in_height = 1;
  stage.spec.in_width = 1;
  stage.spec.filters = cfg.outputs;
  stage.spec.kernel = 1;
  stage.spec.stride = 1;
  stage.spec.pad = 0;
  stage.spec.act_bits_in = cfg.act_bits;
  stage.spec.act_bits_out = cfg.act_bits;
  stage.spec.in_scale = cfg.in_scale;
  stage.spec.out_scale = cfg.out_scale;
  stage.spec.bipolar = cfg.bipolar;
  stage.weights = quant::binarize(fc.weights());
  for (int64_t c = 0; c < cfg.outputs; ++c)
    stage.thresholds.push_back(fold_connected_channel(cfg, fc.biases()[c]));
  return stage;
}

}  // namespace

std::vector<fabric::BinparamLayer> extract_stages(const nn::Network& subnet) {
  std::vector<fabric::BinparamLayer> stages;
  for (int64_t i = 0; i < subnet.num_layers(); ++i) {
    if (const auto* fc =
            dynamic_cast<const nn::ConnectedLayer*>(&subnet.layer(i))) {
      stages.push_back(fc_stage(*fc));
      continue;
    }
    const auto* conv = dynamic_cast<const nn::ConvLayer*>(&subnet.layer(i));
    TINCY_CHECK_MSG(conv != nullptr, "offload subtopology layer "
                                         << i
                                         << " must be convolutional or "
                                            "connected");
    const auto& cfg = conv->config();
    TINCY_CHECK_MSG(cfg.binary_weights && cfg.act_bits < 8,
                    "offload subtopology layer "
                        << i << " must be quantized (binary=1, abits<8)");

    fabric::BinparamLayer stage;
    const auto& g = conv->geometry();
    stage.spec.in_channels = g.in_channels;
    stage.spec.in_height = g.in_height;
    stage.spec.in_width = g.in_width;
    stage.spec.filters = cfg.filters;
    stage.spec.kernel = g.kernel;
    stage.spec.stride = g.stride;
    stage.spec.pad = g.pad;
    stage.spec.act_bits_in = cfg.act_bits;
    stage.spec.act_bits_out = cfg.act_bits;
    stage.spec.in_scale = cfg.in_scale;
    stage.spec.out_scale = cfg.out_scale;
    stage.spec.bipolar = cfg.bipolar;

    // A following maxpool fuses into this stage's pool unit.
    if (i + 1 < subnet.num_layers()) {
      if (const auto* pool =
              dynamic_cast<const nn::MaxPoolLayer*>(&subnet.layer(i + 1))) {
        stage.spec.pool_after = true;
        stage.spec.pool_size = pool->config().size;
        stage.spec.pool_stride = pool->config().stride;
        ++i;
      }
    }

    stage.weights = conv->binary_weights();
    stage.thresholds = conv->quant_thresholds();
    stages.push_back(std::move(stage));
  }
  TINCY_CHECK_MSG(!stages.empty(), "offload subtopology is empty");
  return stages;
}

fabric::QnnAccelerator import_accelerator(const nn::Network& subnet,
                                          fabric::CycleModel model,
                                          fabric::Device device) {
  fabric::QnnAccelerator acc(model, device);
  for (const auto& stage : extract_stages(subnet))
    acc.add_layer(stage.spec, stage.weights, stage.thresholds);
  return acc;
}

void export_binparams(const nn::Network& subnet, const std::string& dir) {
  fabric::save_binparams(dir, extract_stages(subnet));
}

}  // namespace tincy::offload
