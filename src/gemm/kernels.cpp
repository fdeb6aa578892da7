#include "gemm/kernels.hpp"

#include <cstdlib>
#include <cstring>

#include "gemm/bitserial_tile.hpp"
#include "gemm/gemm_packed.hpp"
#include "simd/vec.hpp"

namespace tincy::gemm {

namespace {

// --- kScalar: plain loops, auto-vectorization disabled ------------------
//
// The baseline the bench gate measures the SIMD variants against, and the
// shoulder-check next to the gemm_lowp_i32 oracle: with vectorization off
// this is as close to "one lane at a time on the A53" as x86 gets.

#if defined(__GNUC__) && !defined(__clang__)
#define TINCY_NO_VECTORIZE \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define TINCY_NO_VECTORIZE
#endif

TINCY_NO_VECTORIZE
void scalar_i32(const uint8_t* a, const uint8_t* b, int64_t K,
                uint32_t* tile) {
  uint32_t acc[kMr * kNr] = {};
  for (int64_t k = 0; k < K; ++k) {
    const uint8_t* bk = b + k * kNr;
    const uint8_t* ak = a + k * kMr;
    for (int64_t r = 0; r < kMr; ++r) {
      const uint32_t s = ak[r];
      for (int64_t j = 0; j < kNr; ++j)
        acc[r * kNr + j] += static_cast<uint16_t>(s * bk[j]);
    }
  }
  std::memcpy(tile, acc, sizeof(acc));
}

#undef TINCY_NO_VECTORIZE

// --- kLanes: the portable NEON lane model (simd/vec.hpp) ----------------
//
// Fixed trip-count loops over 16-lane register blocks that compilers
// auto-vectorize to the host's baseline ISA; each op documents the NEON
// instruction it models, so the kernel reads like the paper's §III-D
// intrinsics originals.

/// 4×16 i32 micro-kernel over one packed LHS panel and one RHS panel.
/// Inner loop is the zero-point decomposition's raw unsigned dot: each
/// packed LHS byte is broadcast and widening-MAC'd across the 16-lane RHS
/// row (VDUP.8 + VMULL.U8 + VADDW.U16). Offsets are corrected on
/// write-back, so no subtraction pollutes the hot loop.
void lanes_i32(const uint8_t* __restrict a, const uint8_t* __restrict b,
               int64_t K, uint32_t* __restrict tile) {
  using namespace simd;
  U32x16 acc0{}, acc1{}, acc2{}, acc3{};
  int64_t k = 0;
  for (; k + 4 <= K; k += 4) {
    for (int64_t u = 0; u < 4; ++u) {
      const U8x16 bv = U8x16::load(b + (k + u) * kNr);
      const uint8_t* ak = a + (k + u) * kMr;
      acc0 = widening_mla(acc0, bv, ak[0]);
      acc1 = widening_mla(acc1, bv, ak[1]);
      acc2 = widening_mla(acc2, bv, ak[2]);
      acc3 = widening_mla(acc3, bv, ak[3]);
    }
  }
  for (; k < K; ++k) {
    const U8x16 bv = U8x16::load(b + k * kNr);
    const uint8_t* ak = a + k * kMr;
    acc0 = widening_mla(acc0, bv, ak[0]);
    acc1 = widening_mla(acc1, bv, ak[1]);
    acc2 = widening_mla(acc2, bv, ak[2]);
    acc3 = widening_mla(acc3, bv, ak[3]);
  }
  acc0.store(tile);
  acc1.store(tile + kNr);
  acc2.store(tile + 2 * kNr);
  acc3.store(tile + 3 * kNr);
}

/// kPortable bit-serial kernel: the scalar tile, one column at a time.
void portable_bitserial(const BitSerialTileArgs& a, const uint64_t* planes,
                        int64_t count, int32_t* acc) {
  tile::run_call<1, 1, tile::ScalarTile>(a, planes, count, acc);
}

}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kAuto: return "auto";
    case Kernel::kScalar: return "scalar";
    case Kernel::kLanes: return "lanes";
    case Kernel::kAvx2: return "avx2";
    case Kernel::kAvx512: return "avx512";
  }
  return "?";
}

Kernel parse_kernel_name(const char* name) {
  if (!name) return Kernel::kAuto;
  if (std::strcmp(name, "scalar") == 0) return Kernel::kScalar;
  if (std::strcmp(name, "lanes") == 0) return Kernel::kLanes;
  if (std::strcmp(name, "avx2") == 0) return Kernel::kAvx2;
  if (std::strcmp(name, "avx512") == 0) return Kernel::kAvx512;
  return Kernel::kAuto;
}

bool kernel_supported(Kernel k) {
  switch (k) {
    case Kernel::kAuto: return false;
    case Kernel::kScalar:
    case Kernel::kLanes: return true;
    case Kernel::kAvx2:
    case Kernel::kAvx512: return x86_lowp_kernel(k) != nullptr;
  }
  return false;
}

Kernel widest_supported_kernel() {
  Kernel widest = Kernel::kLanes;
  for (const Kernel k : kConcreteKernels)
    if (kernel_supported(k)) widest = k;
  return widest;
}

Kernel resolve_kernel(Kernel requested) {
  if (requested == Kernel::kAuto) {
    // Read per call (a linear environ scan, negligible next to a GEMM) so
    // tests and benches can flip the override without process restarts.
    const Kernel env = parse_kernel_name(std::getenv("TINCY_GEMM_KERNEL"));
    if (env != Kernel::kAuto && kernel_supported(env)) return env;
    return widest_supported_kernel();
  }
  return kernel_supported(requested) ? requested : widest_supported_kernel();
}

std::vector<Kernel> dispatchable_kernels() {
  std::vector<Kernel> v;
  for (const Kernel k : kConcreteKernels)
    if (kernel_supported(k)) v.push_back(k);
  return v;
}

LowpTileFn lowp_kernel(Kernel resolved) {
  if (resolved == Kernel::kScalar) return scalar_i32;
  if (const LowpTileFn fn = x86_lowp_kernel(resolved)) return fn;
  return lanes_i32;
}

const char* kernel_name(PopcountKernel k) {
  switch (k) {
    case PopcountKernel::kAuto: return "auto";
    case PopcountKernel::kPortable: return "portable";
    case PopcountKernel::kPopcnt: return "popcnt";
    case PopcountKernel::kAvx2: return "avx2";
    case PopcountKernel::kAvx512: return "avx512";
  }
  return "?";
}

bool kernel_supported(PopcountKernel k) {
  if (k == PopcountKernel::kAuto) return false;
  return k == PopcountKernel::kPortable || x86_bitserial_kernel(k) != nullptr;
}

std::vector<PopcountKernel> dispatchable_popcount_kernels() {
  std::vector<PopcountKernel> v;
  for (const PopcountKernel k :
       {PopcountKernel::kPortable, PopcountKernel::kPopcnt,
        PopcountKernel::kAvx2, PopcountKernel::kAvx512})
    if (kernel_supported(k)) v.push_back(k);
  return v;
}

PopcountKernel resolve_kernel(PopcountKernel requested) {
  if (kernel_supported(requested)) return requested;
  static const PopcountKernel widest = dispatchable_popcount_kernels().back();
  return widest;
}

BitSerialFn bitserial_kernel(PopcountKernel resolved) {
  if (resolved != PopcountKernel::kPortable)
    if (const BitSerialFn fn = x86_bitserial_kernel(resolved)) return fn;
  return portable_bitserial;
}

}  // namespace tincy::gemm
