#pragma once

/// \file im2col.hpp
/// The im2col / col2im transforms reducing convolution to matrix multiply.
///
/// As the paper explains (§I), the multiplicand matrix is built from the
/// linearized kernel-application footprints; with stride 1 and small K the
/// transform inflates the feature map by ~K². Layout follows Darknet:
/// the column matrix has C·K·K rows and outH·outW columns, so that
/// weights (C'×C·K·K) times columns yields the C'×(outH·outW) output map.

#include <cstdint>

#include "core/tensor.hpp"

namespace tincy::gemm {

/// Static geometry of a 2-d convolution over a C × H × W feature map (CHW
/// floats for the float im2col; the bit-plane im2col reads HWC codes).
struct ConvGeometry {
  int64_t in_channels = 0;
  int64_t in_height = 0;
  int64_t in_width = 0;
  int64_t kernel = 1;  ///< square K×K kernel
  int64_t stride = 1;
  int64_t pad = 0;  ///< symmetric zero padding

  int64_t out_height() const {
    return (in_height + 2 * pad - kernel) / stride + 1;
  }
  int64_t out_width() const { return (in_width + 2 * pad - kernel) / stride + 1; }
  /// Rows of the column matrix == depth of each dot product.
  int64_t patch_size() const { return in_channels * kernel * kernel; }
  /// Columns of the column matrix == kernel applications per channel.
  int64_t num_patches() const { return out_height() * out_width(); }
};

/// Expands a CHW image into the column matrix (patch_size × num_patches).
/// Out-of-image taps are filled with `pad_value` (0 for floats; the
/// zero-point code for affine-quantized uint8 data, keeping padding exact).
template <typename T>
void im2col(const T* image, const ConvGeometry& g, T* columns,
            T pad_value = T{});

/// Convenience overload allocating the output tensor.
Tensor im2col(const Tensor& image, const ConvGeometry& g);
TensorU8 im2col(const TensorU8& image, const ConvGeometry& g,
                uint8_t pad_value);

/// Scatters a column matrix back into image space, *accumulating*
/// overlapping contributions — the adjoint of im2col, needed by the
/// training substrate's convolution backward pass.
void col2im(const float* columns, const ConvGeometry& g, float* image);

extern template void im2col<float>(const float*, const ConvGeometry&, float*,
                                   float);
extern template void im2col<uint8_t>(const uint8_t*, const ConvGeometry&,
                                     uint8_t*, uint8_t);

}  // namespace tincy::gemm
