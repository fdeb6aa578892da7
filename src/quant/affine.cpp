#include "quant/affine.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"

namespace tincy::quant {

AffineParams choose_affine_params(float rmin, float rmax) {
  // Widen the range to include zero so that 0.0 has an exact code.
  rmin = std::min(rmin, 0.0f);
  rmax = std::max(rmax, 0.0f);
  if (rmin == rmax) return {1.0f, 0};

  AffineParams p;
  p.scale = (rmax - rmin) / 255.0f;
  // zero_point is the code whose dequantized value is exactly 0.
  const float zp = -rmin / p.scale;
  p.zero_point = static_cast<int32_t>(std::lround(std::clamp(zp, 0.0f, 255.0f)));
  return p;
}

namespace {

/// lo = std::min(lo, x[i]) and hi = std::max(hi, x[i]) for i < n, lane-
/// parallel: every lane starts at the incoming lo/hi, so a NaN there
/// stays, as in the scan, and NaNs in x are skipped. Which of two equal
/// zeros a lane keeps is left open; min_max settles ±0 afterwards.
void scan_min_max(const float* x, int64_t n, float& l, float& h) {
  constexpr int64_t kLanes = 16;
  float lo[kLanes], hi[kLanes];
  std::fill(lo, lo + kLanes, l);
  std::fill(hi, hi + kLanes, h);
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (int64_t k = 0; k < kLanes; ++k) {
      const float v = x[i + k];  // std::min(lo, v) and std::max(hi, v)
      lo[k] = v < lo[k] ? v : lo[k];
      hi[k] = hi[k] < v ? v : hi[k];
    }
  for (int64_t k = 0; k < kLanes; ++k) {
    l = std::min(l, lo[k]);
    h = std::max(h, hi[k]);
  }
  for (; i < n; ++i) {
    l = std::min(l, x[i]);
    h = std::max(h, x[i]);
  }
}

/// The scan keeps the first of equal values, which only shows for ±0: a
/// zero extreme is the first element equal to zero.
std::pair<float, float> first_zero_extremes(const float* x, int64_t n,
                                            float l, float h) {
  if (l == 0.0f) l = *std::find(x, x + n, 0.0f);
  if (h == 0.0f) h = *std::find(x, x + n, 0.0f);
  return {l, h};
}

/// Elements per shard of the sharded frame passes: below two shards'
/// worth a map stays on the calling thread.
constexpr int64_t kMinShardElems = int64_t{1} << 16;
constexpr int64_t kMaxShards = 64;

int64_t shard_count(const core::ThreadPool& pool, int64_t n) {
  return std::min<int64_t>({pool.threads(), n / kMinShardElems, kMaxShards});
}

struct MinMaxShards {
  const float* x;
  int64_t n, shards;
  float lo[kMaxShards], hi[kMaxShards];
};

void min_max_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<MinMaxShards*>(p);
  for (int64_t s = lo; s < hi; ++s) {
    const int64_t begin = ctx.n * s / ctx.shards;
    const int64_t end = ctx.n * (s + 1) / ctx.shards;
    ctx.lo[s] = ctx.hi[s] = ctx.x[0];
    scan_min_max(ctx.x + begin, end - begin, ctx.lo[s], ctx.hi[s]);
  }
}

struct QuantizeShards {
  const float* x;
  int64_t n, shards;
  AffineParams params;
  uint8_t* codes;
};

void quantize_shard(int64_t lo, int64_t hi, void* p) {
  auto& ctx = *static_cast<QuantizeShards*>(p);
  for (int64_t s = lo; s < hi; ++s) {
    const int64_t begin = ctx.n * s / ctx.shards;
    const int64_t end = ctx.n * (s + 1) / ctx.shards;
    quantize(ctx.x + begin, end - begin, ctx.params, ctx.codes + begin);
  }
}

}  // namespace

std::pair<float, float> min_max(const Tensor& t) {
  return min_max(t.data(), t.numel());
}

std::pair<float, float> min_max(const float* x, int64_t n) {
  if (n == 0) return {0.0f, 0.0f};
  float l = x[0], h = x[0];
  scan_min_max(x + 1, n - 1, l, h);
  return first_zero_extremes(x, n, l, h);
}

std::pair<float, float> min_max(const float* x, int64_t n,
                                core::ThreadPool& pool) {
  const int64_t shards = shard_count(pool, n);
  // A leading NaN poisons the scan; any other shard result is NaN-free,
  // since every shard starts from x[0] and skips NaNs.
  if (shards < 2 || x[0] != x[0]) return min_max(x, n);
  MinMaxShards ctx{x, n, shards, {}, {}};
  pool.parallel_for(0, shards, shards, min_max_shard, &ctx);
  float l = x[0], h = x[0];
  for (int64_t s = 0; s < shards; ++s) {
    l = std::min(l, ctx.lo[s]);
    h = std::max(h, ctx.hi[s]);
  }
  return first_zero_extremes(x, n, l, h);
}

TensorU8 quantize(const Tensor& t, const AffineParams& params) {
  TensorU8 q(t.shape());
  quantize(t.data(), t.numel(), params, q.data());
  return q;
}

void quantize(const float* __restrict x, int64_t n, const AffineParams& params,
              uint8_t* __restrict codes) {
  // Fixed-length blocks over restrict pointers: the body vectorises at -O2.
  constexpr int64_t kBlock = 16;
  int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock)
    for (int64_t k = 0; k < kBlock; ++k)
      codes[i + k] = params.quantize(x[i + k]);
  for (; i < n; ++i) codes[i] = params.quantize(x[i]);
}

void quantize(const float* x, int64_t n, const AffineParams& params,
              uint8_t* codes, core::ThreadPool& pool) {
  const int64_t shards = shard_count(pool, n);
  if (shards < 2) return quantize(x, n, params, codes);
  QuantizeShards ctx{x, n, shards, params, codes};
  pool.parallel_for(0, shards, shards, quantize_shard, &ctx);
}

Tensor dequantize(const TensorU8& t, const AffineParams& params) {
  Tensor r(t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) r[i] = params.dequantize(t[i]);
  return r;
}

}  // namespace tincy::quant
