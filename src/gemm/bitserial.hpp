#pragma once

/// \file bitserial.hpp
/// The bit-serial dot-product kernel behind every W1A<bits> path: the CPU
/// golden model (nn::ConvLayer, kQuantReference) and the fabric MVTU for
/// binary, bipolar and ternary weights all compute their accumulators
/// here.
///
/// Arithmetic. Weights w ∈ {−1, 0, +1} are stored as two bit-planes per
/// row: `positive` (w = +1) and `nonzero` (w ≠ 0; implicit all-ones for
/// binary ±1 weights). A-bit activation codes are split into A bit-planes
/// a_b. With S(m) = Σ_b 2^b · popcount(m ∧ a_b):
///
///   unsigned, ternary:  Σ w·x = 2·S(positive) − S(nonzero)
///   unsigned, binary:   Σ w·x = 2·S(positive) − Σ x
///   bipolar (A = 1, x = ±1 from bit 1/0, binary weights):
///                       Σ w·x = K − 2·|positive| − 2·|a| + 4·S(positive)
///
/// so one popcount tile kernel (gemm/kernels.hpp, BitSerialFn, runtime-
/// dispatched over portable / POPCNT / AVX2 / AVX-512 VPOPCNTDQ) does all
/// the work, identities included; the rest is packing.
///
/// Layout. A convolution's patch is ordered channel-major — patch bit
/// t·C + c holds channel c of kernel tap t = kh·K + kw — so the im2col
/// copies each input pixel's C-bit channel word per tap instead of
/// gathering single bits. Weight rows (Darknet order c·K² + t) are
/// permuted into the same order when packed; an FC layer is K = 1 and
/// keeps its order. A packed column is `bits` planes of `words` words.
/// The weight planes are row-group-interleaved, [group][word][8 rows]:
/// word i of rows 8g…8g+7 is the 64-byte run at (g·words + i)·8, so the
/// kernel loads one row group's word as one vector and keeps output
/// channels in SIMD lanes, the way the paper's MVTU computes several
/// output rows per PE (FINN-R's PE × SIMD folding). Rows are zero-padded
/// to whole groups.
///
/// Im2col is two steps, each over a range: pixel_planes over input rows
/// and patch_columns over output positions. The code-domain layer engine
/// (gemm/code_layer.hpp), the one threaded driver, runs both per band of
/// output rows, halo rows included, and hands the band's columns to the
/// tile kernel block by block.

#include <cstdint>
#include <vector>

#include "gemm/im2col.hpp"
#include "gemm/kernels.hpp"
#include "quant/binary.hpp"
#include "quant/ternary.hpp"

namespace tincy::gemm {

/// 64-bit words per packed patch plane.
inline int64_t bitplane_words(int64_t patch_size) {
  return (patch_size + 63) / 64;
}

/// Weights packed for the bit-serial kernel: groups() × words × 8 words
/// per plane, interleaved as above.
struct BitSerialWeights {
  int64_t rows = 0;
  int64_t cols = 0;   ///< dot-product depth (C·K²)
  int64_t words = 0;  ///< bitplane_words(cols)
  std::vector<uint64_t> positive;  ///< bit set iff w = +1
  std::vector<uint64_t> nonzero;   ///< bit set iff w ≠ 0; empty for binary
  std::vector<int64_t> positive_count;  ///< |positive| per live row

  bool ternary() const { return !nonzero.empty(); }
  /// Row groups of kBitSerialGroupRows rows, the last one zero-padded.
  int64_t groups() const {
    return (rows + kBitSerialGroupRows - 1) / kBitSerialGroupRows;
  }
  /// Word i of row r's plane in `positive` or `nonzero`.
  static int64_t index(int64_t r, int64_t i, int64_t words) {
    return ((r / kBitSerialGroupRows) * words + i) * kBitSerialGroupRows +
           r % kBitSerialGroupRows;
  }
};

/// Packs ±1 weights; `kernel` is the conv's spatial size K (cols must be
/// a multiple of K²), 1 for FC layers and plain matrices.
BitSerialWeights pack_bitserial(const quant::BinaryMatrix& m,
                                int64_t kernel = 1);
/// Packs {−1, 0, +1} weights; same `kernel` convention.
BitSerialWeights pack_bitserial(const quant::TernaryMatrix& m,
                                int64_t kernel = 1);

/// Words of the pixel planes of `rows` input rows of `g`'s map (row r's
/// start at pixel_plane_words(g, bits, r)).
int64_t pixel_plane_words(const ConvGeometry& g, int bits, int64_t rows);

/// The first of im2col's two steps, over input rows [row_lo, row_hi) of an
/// HWC map of A-bit codes (gemm/layout.hpp): the `bits` bit-planes of each
/// pixel's channels, read once per pixel. When C is a multiple of 8 each
/// row's plane is one run of bytes with the conv's padding pixels on both
/// sides, so the gather moves a kernel row of a patch as one window;
/// otherwise pixel (row_lo + r, w)'s planes are bitplane_words(C) words
/// each at pix + (r·W + w)·bits·bitplane_words(C).
void pixel_planes(const uint8_t* image, const ConvGeometry& g, int bits,
                  int64_t row_lo, int64_t row_hi, uint64_t* pix);

/// The second step: the packed columns of output positions [j0, j1)
/// (j = oh·out_w + ow), column j at planes + (j − j0)·bits·words, from
/// pixel planes of input rows pix_row0 on (every row those columns read).
/// Padding taps are code 0.
void patch_columns(const uint64_t* pix, int64_t pix_row0,
                   const ConvGeometry& g, int bits, int64_t j0, int64_t j1,
                   uint64_t* planes);

/// The tile-kernel arguments of one call over `w` (the identities above
/// in BitSerialTileArgs' linear form). Bipolar calls need `row_bias`
/// storage for groups()·kBitSerialGroupRows entries; others ignore it.
BitSerialTileArgs tile_args(const BitSerialWeights& w, int bits, bool bipolar,
                            int64_t* row_bias = nullptr);

/// `a` restricted to row groups [g0, g1): a kernel given the result writes
/// acc[j·rows' + r − 8·g0] for the slice's live rows (rows' of them).
BitSerialTileArgs slice_groups(const BitSerialTileArgs& a, int64_t g0,
                               int64_t g1);

/// Scalar oracle of the whole path, in Darknet order and with no bit
/// tricks: acc[j·rows + r] = Σ_k w[r·cols + k] · x_j[k], where w ∈
/// {−1, 0, +1}, x_j[k] = codes[j·cols + k] (unsigned) or ±1 from the
/// code's bit (bipolar).
void bitserial_gemm_reference(const int8_t* w, int64_t rows, int64_t cols,
                              const uint8_t* codes, int64_t n, bool bipolar,
                              int32_t* acc);

}  // namespace tincy::gemm
