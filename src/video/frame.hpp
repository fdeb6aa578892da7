#pragma once

/// \file frame.hpp
/// A video frame moving through the processing pipeline, carrying its
/// capture sequence number (the pipeline must keep frames in order) and
/// the annotations attached along the way. A frame carries its network
/// activations in `state`, so the demo's layer stages hand each other
/// codes as Network::forward's layers do.

#include <cstdint>
#include <vector>

#include "core/tensor.hpp"
#include "detect/box.hpp"
#include "nn/frame_state.hpp"

namespace tincy::video {

struct Frame {
  int64_t sequence = -1;           ///< capture order, 0-based
  Tensor image;                    ///< (3, H, W) RGB in [0, 1]
  Tensor boxed;                    ///< letterboxed network input (stage #1)
  nn::FrameState state;            ///< the network's activations (layer stages)
  Tensor features;                 ///< output map of stages run outside `state`
  std::vector<detect::Detection> detections;  ///< after object boxing
  std::vector<detect::GroundTruth> truth;     ///< synthetic camera's GT
};

}  // namespace tincy::video
