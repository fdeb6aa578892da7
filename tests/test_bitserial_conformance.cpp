// Differential conformance harness of the bit-serial dot-product kernel
// (gemm/bitserial.hpp): every dispatchable popcount variant (portable,
// POPCNT, AVX2, AVX-512 VPOPCNTDQ — whichever the machine runs) must
// reproduce the scalar oracle bitserial_gemm_reference exactly, for
// binary, ternary and bipolar weights, activation precisions A = 1…8,
// dot-product depths that are not multiples of 64 (up to Tincy's 4608),
// batches of columns, and channel-major conv im2col at awkward
// geometries. Columns are built by the band pieces the layer engine runs
// (pixel_planes + patch_columns, here over whole maps) and fed to the
// tile kernel 16 at a time, as gemm/code_layer.cpp's bands do. The tile
// kernels keep 8 rows per group and several columns per tile, so the
// edges get their own sweep: partial row groups, 1–3-word and long
// depths, and column counts that leave partial column tiles.
//
// Rep count scales with TINCY_CONFORMANCE_REPS (default 40), like the
// GEMM conformance suite; the tier2-conformance entry raises it.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <vector>

#include "core/rng.hpp"
#include "gemm/bitserial.hpp"
#include "gemm/code_layer.hpp"
#include "gemm/im2col.hpp"

namespace tincy::gemm {
namespace {

int conformance_reps() {
  if (const char* env = std::getenv("TINCY_CONFORMANCE_REPS")) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 40;
}

enum class Weights { kBinary, kTernary, kBipolar };

const char* weights_name(Weights k) {
  switch (k) {
    case Weights::kBinary: return "binary";
    case Weights::kTernary: return "ternary";
    case Weights::kBipolar: return "bipolar";
  }
  return "?";
}

/// A {−1, 0, +1} matrix in Darknet order plus its packed form.
struct Matrix {
  int64_t rows = 0, cols = 0;
  std::vector<int8_t> values;
  BitSerialWeights packed;
};

Matrix make_matrix(Rng& rng, int64_t rows, int64_t cols, int64_t kernel,
                   Weights kind) {
  Matrix m{rows, cols, std::vector<int8_t>(static_cast<size_t>(rows * cols)),
           {}};
  for (auto& v : m.values)
    v = static_cast<int8_t>(kind == Weights::kTernary
                                ? rng.uniform_int(-1, 1)
                                : (rng.bernoulli(0.5) ? 1 : -1));
  if (kind == Weights::kTernary) {
    quant::TernaryMatrix t;
    t.rows = rows;
    t.cols = cols;
    for (int64_t r = 0; r < rows; ++r) {
      BitVector nz(cols), pos(cols);
      for (int64_t c = 0; c < cols; ++c) {
        const int8_t v = m.values[static_cast<size_t>(r * cols + c)];
        nz.set(c, v != 0);
        pos.set(c, v > 0);
      }
      t.nonzero.push_back(std::move(nz));
      t.positive.push_back(std::move(pos));
      t.row_scale.push_back(1.0f);
    }
    m.packed = pack_bitserial(t, kernel);
  } else {
    Tensor w(Shape{rows, cols});
    for (int64_t i = 0; i < w.numel(); ++i)
      w[i] = m.values[static_cast<size_t>(i)];
    m.packed = pack_bitserial(quant::binarize(w), kernel);
  }
  return m;
}

std::vector<uint8_t> random_codes(Rng& rng, int64_t n, int bits) {
  std::vector<uint8_t> v(static_cast<size_t>(n));
  const int64_t top = (int64_t{1} << bits) - 1;
  for (auto& x : v)
    // A quarter of the codes sit at the top of the grid.
    x = static_cast<uint8_t>(rng.uniform_int(0, 3) == 0
                                 ? top
                                 : rng.uniform_int(0, top));
  return v;
}

/// Columns per tile-kernel call, as the layer engine's bands make them.
constexpr int64_t kBlockColumns = 16;

/// The packed columns of a whole HWC map, column j (row-major over the
/// output positions) at j·bits·words: pixel_planes over every input row,
/// then patch_columns over every output position.
std::vector<uint64_t> map_columns(const uint8_t* hwc, const ConvGeometry& g,
                                  int bits) {
  std::vector<uint64_t> pix(
      static_cast<size_t>(pixel_plane_words(g, bits, g.in_height)));
  std::vector<uint64_t> planes(static_cast<size_t>(
      g.num_patches() * bits * bitplane_words(g.patch_size())));
  pixel_planes(hwc, g, bits, 0, g.in_height, pix.data());
  patch_columns(pix.data(), 0, g, bits, 0, g.num_patches(), planes.data());
  return planes;
}

/// Packs `n` Darknet-ordered columns as the MVTU does: each column is
/// the single footprint of a K×K, C-channel image (c·K² + t, i.e. CHW),
/// handed to the im2col pixel-major (t·C + c).
std::vector<uint64_t> pack_columns(const std::vector<uint8_t>& codes,
                                   int64_t n, int64_t cols, int64_t kernel,
                                   int bits) {
  ConvGeometry g;
  g.in_channels = cols / (kernel * kernel);
  g.in_height = g.in_width = g.kernel = kernel;
  const int64_t taps = kernel * kernel;
  const int64_t col_words = bits * bitplane_words(cols);
  std::vector<uint64_t> planes(static_cast<size_t>(n * col_words));
  std::vector<uint8_t> hwc(static_cast<size_t>(cols));
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t c = 0; c < g.in_channels; ++c)
      for (int64_t t = 0; t < taps; ++t)
        hwc[static_cast<size_t>(t * g.in_channels + c)] =
            codes[static_cast<size_t>(j * cols + c * taps + t)];
    const std::vector<uint64_t> col = map_columns(hwc.data(), g, bits);
    std::copy(col.begin(), col.end(), planes.begin() + j * col_words);
  }
  return planes;
}

/// Fill of the accumulator words a tile-kernel call must not write.
constexpr int32_t kGuard = 0x5a5a5a5a;

/// Every weight row against `n` packed columns through variant `k`'s tile
/// kernel, kBlockColumns columns per call. Each call writes into a block
/// buffer with a guard column after its `count` columns, which must keep
/// its fill.
std::vector<int32_t> run(const BitSerialWeights& w,
                         const std::vector<uint64_t>& planes, int64_t n,
                         int bits, bool bipolar, PopcountKernel k) {
  std::vector<int64_t> row_bias(
      static_cast<size_t>(w.groups() * kBitSerialGroupRows));
  const BitSerialTileArgs args = tile_args(w, bits, bipolar, row_bias.data());
  const BitSerialFn fn = bitserial_kernel(k);
  const int64_t col_words = bits * w.words;
  std::vector<int32_t> acc(static_cast<size_t>(n * w.rows), INT32_MIN);
  std::vector<int32_t> block(static_cast<size_t>((kBlockColumns + 1) * w.rows));
  for (int64_t j0 = 0; j0 < n; j0 += kBlockColumns) {
    const int64_t count = std::min(kBlockColumns, n - j0);
    std::fill(block.begin(), block.end(), kGuard);
    fn(args, planes.data() + j0 * col_words, count, block.data());
    EXPECT_TRUE(std::all_of(block.begin() + count * w.rows,
                            block.begin() + (count + 1) * w.rows,
                            [](int32_t v) { return v == kGuard; }))
        << kernel_name(k) << " wrote past its " << count << " columns";
    std::copy(block.begin(), block.begin() + count * w.rows,
              acc.begin() + j0 * w.rows);
  }
  return acc;
}

std::vector<int32_t> oracle(const Matrix& m, const std::vector<uint8_t>& codes,
                            int64_t n, bool bipolar) {
  std::vector<int32_t> acc(static_cast<size_t>(n * m.rows));
  bitserial_gemm_reference(m.values.data(), m.rows, m.cols, codes.data(), n,
                           bipolar, acc.data());
  return acc;
}

/// Checks every dispatchable variant on one matrix-level case.
void check_case(Rng& rng, int64_t rows, int64_t cols, int64_t kernel,
                int bits, Weights kind, int64_t n) {
  const bool bipolar = kind == Weights::kBipolar;
  const Matrix m = make_matrix(rng, rows, cols, kernel, kind);
  const std::vector<uint8_t> codes = random_codes(rng, n * cols, bits);
  const std::vector<uint64_t> planes =
      pack_columns(codes, n, cols, kernel, bits);
  const std::vector<int32_t> expected = oracle(m, codes, n, bipolar);
  for (const PopcountKernel k : dispatchable_popcount_kernels())
    ASSERT_EQ(run(m.packed, planes, n, bits, bipolar, k), expected)
        << kernel_name(k) << " " << weights_name(kind) << " rows=" << rows
        << " cols=" << cols << " K=" << kernel << " A=" << bits
        << " n=" << n;
}

TEST(BitSerialConformance, RandomShapesEveryVariant) {
  Rng rng(2024);
  const int reps = conformance_reps();
  for (int rep = 0; rep < reps; ++rep) {
    const auto kind = static_cast<Weights>(rng.uniform_int(0, 2));
    const int bits = kind == Weights::kBipolar
                         ? 1
                         : static_cast<int>(rng.uniform_int(1, 8));
    const int64_t kernel = rng.bernoulli(0.5) ? 1 : 3;
    const int64_t channels = rng.uniform_int(1, 150);
    check_case(rng, rng.uniform_int(1, 40), channels * kernel * kernel,
               kernel, bits, kind, rng.uniform_int(1, 12));
  }
}

TEST(BitSerialConformance, DepthTailsAroundWordBoundaries) {
  Rng rng(7);
  for (const int64_t cols :
       {1, 2, 63, 64, 65, 127, 128, 129, 191, 255, 256, 257, 511, 513, 4621})
    for (const Weights kind :
         {Weights::kBinary, Weights::kTernary, Weights::kBipolar})
      check_case(rng, 9, cols, 1, kind == Weights::kBipolar ? 1 : 3, kind, 3);
}

TEST(BitSerialConformance, TileEdgesEveryVariant) {
  // Rows around the 8-row group, depths of 1–3 words (the Tincy hidden
  // layers' short K) and of more than 8 words, and column counts that
  // are not a multiple of any variant's column tile.
  Rng rng(12);
  for (const int64_t rows : {1, 7, 8, 9, 63, 125})
    for (const int64_t cols : {9, 27, 64, 144, 600, 1152})
      for (const int64_t n : {1, 3, 5, 17})
        for (const Weights kind :
             {Weights::kBinary, Weights::kTernary, Weights::kBipolar}) {
          const int bits = kind == Weights::kBipolar
                               ? 1
                               : static_cast<int>(rng.uniform_int(1, 4));
          check_case(rng, rows, cols, cols % 9 == 0 ? 3 : 1, bits, kind, n);
        }
}

TEST(BitSerialConformance, TileKernelWritesOnlyItsColumns) {
  // One tile-kernel call over all its columns: every output lands in
  // acc[j·rows + r] for j < count and r < rows, and the words past the
  // block keep their guard value.
  Rng rng(14);
  constexpr int64_t kGuardWords = 64;
  for (const int64_t rows : {9, 64})
    for (const int64_t n : {1, 3, 5, 17}) {
      const int64_t cols = 144;
      const Matrix m = make_matrix(rng, rows, cols, 3, Weights::kBinary);
      const std::vector<uint8_t> codes = random_codes(rng, n * cols, 3);
      const std::vector<uint64_t> planes = pack_columns(codes, n, cols, 3, 3);
      const std::vector<int32_t> expected = oracle(m, codes, n, false);
      const BitSerialTileArgs args = tile_args(m.packed, 3, false);
      for (const PopcountKernel k : dispatchable_popcount_kernels()) {
        std::vector<int32_t> acc(static_cast<size_t>(n * rows + kGuardWords),
                                 kGuard);
        bitserial_kernel(k)(args, planes.data(), n, acc.data());
        const std::vector<int32_t> got(acc.begin(), acc.begin() + n * rows);
        EXPECT_EQ(got, expected) << kernel_name(k) << " rows=" << rows
                                 << " n=" << n;
        EXPECT_TRUE(std::all_of(acc.begin() + n * rows, acc.end(),
                                [](int32_t v) { return v == kGuard; }))
            << kernel_name(k) << " wrote past its block, rows=" << rows
            << " n=" << n;
      }
    }
}

TEST(BitSerialConformance, PaddedRowsAreZero) {
  // 9 rows pack into two 8-row groups; rows 9–15 are padding. They must
  // be zero words in both planes, and positive_count must describe only
  // the live rows, or the bipolar identity would be off.
  Rng rng(13);
  for (const Weights kind : {Weights::kBinary, Weights::kTernary}) {
    const int64_t rows = 9, cols = 144;
    const Matrix m = make_matrix(rng, rows, cols, 3, kind);
    const BitSerialWeights& p = m.packed;
    ASSERT_EQ(p.groups(), 2);
    const auto size = static_cast<size_t>(2 * p.words * kBitSerialGroupRows);
    ASSERT_EQ(p.positive.size(), size);
    ASSERT_EQ(p.nonzero.size(), kind == Weights::kTernary ? size : 0u);
    ASSERT_EQ(p.positive_count.size(), static_cast<size_t>(rows));
    for (int64_t r = rows; r < 2 * kBitSerialGroupRows; ++r)
      for (int64_t i = 0; i < p.words; ++i) {
        const auto at =
            static_cast<size_t>(BitSerialWeights::index(r, i, p.words));
        EXPECT_EQ(p.positive[at], 0u) << "row " << r << " word " << i;
        if (p.ternary()) {
          EXPECT_EQ(p.nonzero[at], 0u) << "row " << r << " word " << i;
        }
      }
    for (int64_t r = 0; r < rows; ++r)
      EXPECT_EQ(p.positive_count[static_cast<size_t>(r)],
                std::count(m.values.begin() + r * cols,
                           m.values.begin() + (r + 1) * cols, int8_t{1}))
          << "row " << r;
  }
  // Bipolar exactness at a partial group, every variant.
  check_case(rng, 9, 144, 3, 1, Weights::kBipolar, 5);
}

TEST(BitSerialConformance, EveryActivationPrecision) {
  Rng rng(8);
  for (int bits = 1; bits <= 8; ++bits)
    for (const Weights kind : {Weights::kBinary, Weights::kTernary})
      check_case(rng, 17, 16 * 9, 3, bits, kind, 5);
}

TEST(BitSerialConformance, ExtremeAccumulators) {
  // All-(+1) and all-(−1) rows against all-255 codes at the Tincy depth:
  // the largest magnitudes an A8 accumulator of this depth can reach.
  const int64_t cols = 4608, n = 2;
  Tensor w(Shape{2, cols});
  for (int64_t c = 0; c < cols; ++c) {
    w.at2(0, c) = 1.0f;
    w.at2(1, c) = -1.0f;
  }
  const BitSerialWeights packed = pack_bitserial(quant::binarize(w), 3);
  const std::vector<uint8_t> codes(static_cast<size_t>(n * cols), 255);
  const auto planes = pack_columns(codes, n, cols, 3, 8);
  const std::vector<int32_t> expected{255 * 4608, -255 * 4608, 255 * 4608,
                                      -255 * 4608};
  for (const PopcountKernel k : dispatchable_popcount_kernels())
    EXPECT_EQ(run(packed, planes, n, 8, false, k), expected) << kernel_name(k);
}

struct ConvCase {
  int64_t channels, height, width, kernel, stride, pad;
};

TEST(BitSerialConformance, ConvIm2colMatchesDarknetIm2col) {
  // Channel-major bit-plane im2col of whole frames (padding taps, strides,
  // channel counts straddling word boundaries, two frames stacked as the
  // fabric's gang passes do) against Darknet's im2col + the oracle.
  Rng rng(9);
  const ConvCase cases[] = {{1, 5, 5, 3, 1, 1},   {3, 7, 6, 3, 2, 1},
                            {16, 9, 9, 3, 1, 1},  {64, 4, 4, 3, 1, 1},
                            {70, 5, 3, 3, 1, 0},  {130, 3, 3, 3, 1, 1},
                            {5, 6, 6, 1, 1, 0},   {8, 8, 8, 2, 2, 0}};
  for (const ConvCase& c : cases)
    for (const Weights kind :
         {Weights::kBinary, Weights::kTernary, Weights::kBipolar}) {
      if (kind == Weights::kBipolar && c.pad != 0) continue;
      const ConvGeometry g{c.channels, c.height, c.width,
                           c.kernel,   c.stride, c.pad};
      const int bits = kind == Weights::kBipolar
                           ? 1
                           : static_cast<int>(rng.uniform_int(1, 8));
      const int64_t frames = 2, n = g.num_patches(), patch = g.patch_size();
      const int64_t image = c.channels * c.height * c.width;
      const Matrix m = make_matrix(rng, 11, patch, c.kernel, kind);
      const std::vector<uint8_t> images =
          random_codes(rng, frames * image, bits);

      // Oracle columns: Darknet im2col (patch × n), transposed per frame.
      std::vector<uint8_t> columns(static_cast<size_t>(frames * n * patch));
      std::vector<uint8_t> cm(static_cast<size_t>(patch * n));
      for (int64_t f = 0; f < frames; ++f) {
        im2col<uint8_t>(images.data() + f * image, g, cm.data(), 0);
        for (int64_t k = 0; k < patch; ++k)
          for (int64_t j = 0; j < n; ++j)
            columns[static_cast<size_t>((f * n + j) * patch + k)] =
                cm[static_cast<size_t>(k * n + j)];
      }
      const bool bipolar = kind == Weights::kBipolar;
      const std::vector<int32_t> expected =
          oracle(m, columns, frames * n, bipolar);

      // The bit-plane im2col reads pixel-major (HWC) maps.
      const int64_t pixels = c.height * c.width;
      std::vector<uint8_t> hwc(images.size());
      for (int64_t f = 0; f < frames; ++f)
        for (int64_t ch = 0; ch < c.channels; ++ch)
          for (int64_t p = 0; p < pixels; ++p)
            hwc[static_cast<size_t>(f * image + p * c.channels + ch)] =
                images[static_cast<size_t>(f * image + ch * pixels + p)];
      std::vector<uint64_t> planes;
      for (int64_t f = 0; f < frames; ++f) {
        const std::vector<uint64_t> frame =
            map_columns(hwc.data() + f * image, g, bits);
        planes.insert(planes.end(), frame.begin(), frame.end());
      }
      for (const PopcountKernel k : dispatchable_popcount_kernels())
        ASSERT_EQ(run(m.packed, planes, frames * n, bits, bipolar, k),
                  expected)
            << kernel_name(k) << " " << weights_name(kind) << " C="
            << c.channels << " " << c.height << "x" << c.width
            << " K=" << c.kernel << " s=" << c.stride << " p=" << c.pad;
    }
}

TEST(BitSerialConformance, TincyDepthMatchesOracle) {
  // Tincy layer-11 depth (512·9) over 40 columns: two full blocks of 16
  // and a partial one.
  Rng rng(10);
  for (const Weights kind : {Weights::kBinary, Weights::kTernary})
    check_case(rng, 96, 4608, 3, 3, kind, 40);
}

TEST(BitSerialConformance, RejectsUnsupportedEncodings) {
  // The engine refuses what the identities cannot express: bipolar codes
  // of more than one bit or against ternary weights, and codes of more
  // than 8 bits.
  Rng rng(11);
  const Matrix binary = make_matrix(rng, 2, 64, 1, Weights::kBinary);
  const Matrix ternary = make_matrix(rng, 2, 64, 1, Weights::kTernary);
  const std::vector<quant::ThresholdChannel> channels(2, {{0}, true});
  const ThresholdTable table(channels);
  CodeLayer layer;
  layer.geom = ConvGeometry{64, 1, 1, 1, 1, 0};
  layer.thresholds = &table;
  const std::vector<uint8_t> in(64, 0);
  std::vector<uint8_t> out(2);
  const auto attempt = [&](const Matrix& m, int bits, bool bipolar) {
    CodeLayer l = layer;
    l.weights = &m.packed;
    l.bits = bits;
    l.bipolar = bipolar;
    run_code_layer(l, in.data(), 1, out.data());
  };
  EXPECT_THROW(attempt(binary, 3, true), Error);
  EXPECT_THROW(attempt(ternary, 1, true), Error);
  EXPECT_THROW(attempt(binary, 9, false), Error);
  EXPECT_NO_THROW(attempt(binary, 1, true));  // the layer is otherwise sound
  Tensor w(Shape{2, 10});
  EXPECT_THROW(pack_bitserial(quant::binarize(w), 3), Error);  // 10 % 9 != 0
}

TEST(BitSerialDispatch, Contract) {
  const auto all = dispatchable_popcount_kernels();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), PopcountKernel::kPortable);
  const PopcountKernel widest = all.back();
  EXPECT_EQ(resolve_kernel(PopcountKernel::kAuto), widest);
  EXPECT_FALSE(kernel_supported(PopcountKernel::kAuto));
  for (const PopcountKernel k : all) {
    EXPECT_TRUE(kernel_supported(k));
    EXPECT_EQ(resolve_kernel(k), k);
  }
  for (const PopcountKernel k : {PopcountKernel::kPopcnt, PopcountKernel::kAvx2,
                                 PopcountKernel::kAvx512}) {
    if (!kernel_supported(k)) {
      EXPECT_EQ(resolve_kernel(k), widest);
    }
  }
}

}  // namespace
}  // namespace tincy::gemm
