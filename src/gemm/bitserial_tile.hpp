#pragma once

/// \file bitserial_tile.hpp
/// The loop every bit-serial tile kernel shares (gemm/kernels.hpp,
/// BitSerialTileArgs), plus the scalar tile behind kPortable and kPopcnt.
/// Internal to the kernel translation units.
///
/// A call walks its columns in chunks of kTileChunkColumns. Per chunk it
/// computes each column's bias once, then runs tiles of NC columns × NG
/// row groups — group tiles outer, so a tile's weight words stay in L1
/// while the chunk's columns stream past — and narrower tiles at the
/// edges (fewer columns, then single groups). A `Tile` supplies
///   template <int NC, int NG, bool kTernary>
///   static void run(const BitSerialTileArgs& a, const uint64_t* planes,
///                   int64_t g0, const int64_t* bias, int32_t* acc);
/// which accumulates columns planes[0, NC) against groups [g0, g0 + NG)
/// and writes acc[j·rows + r] for their live rows. The shared pieces are
/// force-inlined, so a kernel compiled with target("popcnt") gets the
/// POPCNT instruction from std::popcount.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "gemm/kernels.hpp"

#if defined(__GNUC__)
#define TINCY_FORCE_INLINE inline __attribute__((always_inline))
#else
#define TINCY_FORCE_INLINE inline
#endif

namespace tincy::gemm::tile {

constexpr int kRows = static_cast<int>(kBitSerialGroupRows);
/// Columns whose biases are computed together.
constexpr int64_t kTileChunkColumns = 16;

inline int64_t groups(const BitSerialTileArgs& a) {
  return (a.rows + kRows - 1) / kRows;
}

/// col_base + col_scale·Σx of one packed column.
TINCY_FORCE_INLINE int64_t column_bias(const BitSerialTileArgs& a,
                                       const uint64_t* col) {
  if (a.col_scale == 0) return a.col_base;
  int64_t sum = 0;
  for (int b = a.bits - 1; b >= 0; --b) {
    int64_t s = 0;
    for (int64_t i = 0; i < a.words; ++i)
      s += std::popcount(col[b * a.words + i]);
    sum = 2 * sum + s;
  }
  return a.col_base + a.col_scale * sum;
}

/// Writes the live rows of one group from its 8 finished int32 values.
TINCY_FORCE_INLINE void store_group(const BitSerialTileArgs& a, int64_t g,
                                    const int32_t* v, int32_t* acc_col) {
  const int64_t live = std::min<int64_t>(kRows, a.rows - g * kRows);
  std::memcpy(acc_col + g * kRows, v, static_cast<size_t>(live) * 4);
}

/// Runs the tile for `nc` ≤ NC columns.
template <int NC, int NG, bool kTernary, class Tile>
TINCY_FORCE_INLINE void column_tile(int nc, const BitSerialTileArgs& a,
                                    const uint64_t* planes, int64_t g0,
                                    const int64_t* bias, int32_t* acc) {
  if constexpr (NC > 1)
    if (nc < NC)
      return column_tile<NC - 1, NG, kTernary, Tile>(nc, a, planes, g0, bias,
                                                     acc);
  Tile::template run<NC, NG, kTernary>(a, planes, g0, bias, acc);
}

template <int NC, int NG, bool kTernary, class Tile>
TINCY_FORCE_INLINE void run_tiles(const BitSerialTileArgs& a,
                                  const uint64_t* planes, int64_t count,
                                  int32_t* acc) {
  const int64_t col_words = a.bits * a.words, total_groups = groups(a);
  int64_t bias[kTileChunkColumns];
  for (int64_t c0 = 0; c0 < count; c0 += kTileChunkColumns) {
    const int64_t chunk = std::min(kTileChunkColumns, count - c0);
    for (int64_t jj = 0; jj < chunk; ++jj)
      bias[jj] = column_bias(a, planes + (c0 + jj) * col_words);
    for (int64_t g0 = 0; g0 < total_groups; g0 += NG) {
      const int64_t ng = std::min<int64_t>(NG, total_groups - g0);
      for (int64_t j = 0; j < chunk; j += NC) {
        const int nc = static_cast<int>(std::min<int64_t>(NC, chunk - j));
        const uint64_t* p = planes + (c0 + j) * col_words;
        int32_t* out = acc + (c0 + j) * a.rows;
        if (ng == NG)
          column_tile<NC, NG, kTernary, Tile>(nc, a, p, g0, bias + j, out);
        else  // the last few groups, one at a time
          for (int64_t g = g0; g < g0 + ng; ++g)
            column_tile<NC, 1, kTernary, Tile>(nc, a, p, g, bias + j, out);
      }
    }
  }
}

/// Entry point of one variant: picks the binary or ternary tile.
template <int NC, int NG, class Tile>
TINCY_FORCE_INLINE void run_call(const BitSerialTileArgs& a,
                                 const uint64_t* planes, int64_t count,
                                 int32_t* acc) {
  if (a.nonzero)
    run_tiles<NC, NG, true, Tile>(a, planes, count, acc);
  else
    run_tiles<NC, NG, false, Tile>(a, planes, count, acc);
}

/// Scalar tile: one group of 8 rows in int64 accumulators, one column per
/// broadcast word. Compiles to whatever std::popcount is in the caller.
struct ScalarTile {
  template <int NC, int NG, bool kTernary>
  TINCY_FORCE_INLINE static void run(const BitSerialTileArgs& a,
                                     const uint64_t* planes, int64_t g0,
                                     const int64_t* bias, int32_t* acc) {
    static_assert(NG == 1, "the scalar tile is one group wide");
    const int64_t words = a.words, col_words = a.bits * words;
    const uint64_t* pos = a.positive + g0 * words * kRows;
    const uint64_t* nz = kTernary ? a.nonzero + g0 * words * kRows : nullptr;
    int64_t t[NC][kRows] = {};
    for (int b = a.bits - 1; b >= 0; --b) {
#pragma GCC unroll 8
      for (int j = 0; j < NC; ++j)
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) t[j][r] *= 2;
      for (int64_t i = 0; i < words; ++i) {
        const uint64_t* wp = pos + i * kRows;
#pragma GCC unroll 8
        for (int j = 0; j < NC; ++j) {
          const uint64_t x = planes[j * col_words + b * words + i];
#pragma GCC unroll 8
          for (int r = 0; r < kRows; ++r) {
            const int64_t p = std::popcount(wp[r] & x);
            if constexpr (kTernary)
              t[j][r] += 2 * p - std::popcount(nz[i * kRows + r] & x);
            else
              t[j][r] += p;
          }
        }
      }
    }
    for (int j = 0; j < NC; ++j) {
      int32_t v[kRows];
      for (int r = 0; r < kRows; ++r)
        v[r] = static_cast<int32_t>(
            t[j][r] * (int64_t{1} << a.shift) + bias[j] +
            (a.row_bias ? a.row_bias[g0 * kRows + r] : 0));
      store_group(a, g0, v, acc + j * a.rows);
    }
  }
};

}  // namespace tincy::gemm::tile
