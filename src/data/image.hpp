#pragma once

/// \file image.hpp
/// Image utilities on CHW float tensors (RGB, values in [0, 1]), including
/// the letterboxing step of the paper's pipeline (Fig. 5, stage #1:
/// "Letter Boxing" — scale preserving aspect ratio, pad with gray).

#include "core/tensor.hpp"

namespace tincy::core {
class ThreadPool;
}  // namespace tincy::core

namespace tincy::data {

/// Bilinear resize of a (C, H, W) image to (C, out_h, out_w).
Tensor resize_bilinear(const Tensor& image, int64_t out_h, int64_t out_w);

/// Letterboxes `image` into a (C, size, size) square: scales so the larger
/// side fits, centers, and pads with 0.5 — Darknet's letterbox_image.
Tensor letterbox(const Tensor& image, int64_t size);

/// letterbox() into a caller-owned (C, size, size) frame, its rows sharded
/// over `pool` for frames of 64 K floats or more (smaller ones run on the
/// calling thread). Writes every element: 0.5 into the pad rows and
/// columns, the resized image between them. Allocation-free once the
/// calling thread's scratch arena has held the column taps.
void letterbox_into(const Tensor& image, Tensor& boxed,
                    core::ThreadPool& pool);

/// Maps a box from letterboxed coordinates back to original-image
/// normalized coordinates (inverse of letterbox for annotation overlay).
/// `bx..bh` are normalized in the letterboxed frame.
void unletterbox_box(float& bx, float& by, float& bw, float& bh,
                     int64_t orig_w, int64_t orig_h, int64_t boxed_size);

}  // namespace tincy::data
