#pragma once

/// \file frame_state.hpp
/// One frame's activations in a Network (nn/network.hpp). The network is
/// the plan: its layers and the hand-off settled at each boundary. A
/// FrameState holds what one frame leaves along it: per boundary, the
/// codes Network::forward hands across it, the floats it writes there or
/// Network::layer_output makes on read, and the frame an emitting layer
/// kept for replay. A conv that ran the pool after it
/// (Network::fuses_pool) leaves its own boundary empty until
/// Network::layer_output recomputes it. It is caller-owned, one per frame
/// in flight, so frames
/// with their own states can run through one network at once; a demo
/// stage carries its frame's state to the next stage (video::Frame).
///
/// Buffers are allocated on first use and reused by the state's next
/// frame. A state serves one network.

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace tincy::nn {

class FrameState {
 public:
  /// Whether a float buffer was made for layer i's output: by a forward
  /// where floats cross, or by Network::layer_output on read.
  bool has_floats(int64_t i) const {
    return in_range(i) && !boundaries_[static_cast<size_t>(i)].floats.empty();
  }
  /// Whether a code buffer was made for layer i's output: by a forward
  /// that handed layer i + 1 codes (not by a conv that ran the pool after
  /// it, which writes the pool's).
  bool has_codes(int64_t i) const {
    return in_range(i) && !boundaries_[static_cast<size_t>(i)].codes.empty();
  }

 private:
  friend class Network;

  /// Layer i's output.
  struct Boundary {
    TensorU8 codes;  ///< shaped C × H × W, stored HWC
    Tensor floats;
    bool floats_current = true;  ///< `floats` holds the latest activation
    EmittedFrame emitted;        ///< the frame layer i kept, if it emits
  };

  bool in_range(int64_t i) const {
    return i >= 0 && i < static_cast<int64_t>(boundaries_.size());
  }

  std::vector<Boundary> boundaries_;
};

}  // namespace tincy::nn
