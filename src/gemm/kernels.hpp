#pragma once

/// \file kernels.hpp
/// Runtime-dispatched micro-kernel variants of the packed GEMM engine.
///
/// The paper's §III-D CPU kernels get their throughput from NEON widening
/// i8 multiply-accumulates and saturating rounding narrows. This host is
/// x86, so the engine ships the same micro-kernels at three width tiers
/// and picks the widest one the machine can run:
///
///   kScalar — plain scalar loops with auto-vectorization disabled. The
///             slowest variant and the micro-kernel-level baseline the
///             bench gate measures speedups against; also the most
///             trustworthy shoulder-check next to the gemm_lowp_i32 /
///             gemm_lowp_i32_shift4 oracles.
///   kLanes  — the portable NEON lane model (simd/vec.hpp): fixed
///             trip-count 16-lane loops over U32x16/I16x16 register
///             blocks that compilers auto-vectorize to the host's
///             baseline ISA (SSE2 on x86-64).
///   kAvx2   — AVX2 intrinsics issuing the same arithmetic on 256-bit
///             registers (one 16-lane row per VPMULLW + widening adds),
///             compiled per-function with target("avx2") and selected at
///             runtime via cpuid.
///
/// Every variant computes bit-identical results for all inputs — the
/// contract enforced by tests/test_gemm_conformance.cpp, which sweeps
/// randomized shapes and saturation-boundary values across every
/// dispatchable variant against the scalar oracles.
///
/// Dispatch: GemmOptions::kernel defaults to Kernel::kAuto, which obeys
/// the TINCY_GEMM_KERNEL environment override ("scalar", "lanes",
/// "avx2") when set and valid, else picks the widest supported variant.
/// Requesting an unsupported variant falls back to the widest supported
/// one rather than failing — the override is a testing/benching knob,
/// not a correctness switch.

#include <cstdint>
#include <vector>

namespace tincy::gemm {

/// Micro-kernel variant of one packed GEMM call.
enum class Kernel : int {
  kAuto = 0,  ///< TINCY_GEMM_KERNEL override, else widest supported
  kScalar,    ///< scalar loops, auto-vectorization disabled (baseline)
  kLanes,     ///< portable NEON lane model, compiler-auto-vectorized
  kAvx2,      ///< AVX2 intrinsics, runtime cpuid-dispatched (x86 only)
};

/// One variant's micro-kernel entry points. All operate on the packed
/// panel layouts of gemm_packed.hpp (kMr-row LHS panels, kNr-wide RHS
/// panels) and are bit-identical across variants by contract.
struct MicroKernels {
  /// 4×16 tile of the exact-i32 path: raw unsigned u8·u8 dot products
  /// into u32 accumulators; zero-point corrections happen on write-back.
  void (*i32)(const uint8_t* a, const uint8_t* b, int64_t K, uint32_t* tile);
  /// 4×16 tile of the paper's 16-bit accumulator path: centered products
  /// rounding-right-shifted by 4, saturating-added, rescaled by 16.
  void (*i16shift4)(const uint8_t* a, const uint8_t* b, int64_t K,
                    int32_t lhs_zero, int32_t rhs_zero, int32_t* tile);
  /// GEMV (N == 1) flat-dot kernel over one packed row block: `a` is the
  /// K·kMr-byte packed block, `bexp` the RHS column replicated kMr times;
  /// writes kMr raw (offset-uncorrected) dot products.
  void (*gemv)(const uint8_t* a, const uint8_t* bexp, int64_t len,
               int64_t* raw);
};

/// Human-readable variant name ("auto", "scalar", "lanes", "avx2").
const char* kernel_name(Kernel k);

/// Parses a TINCY_GEMM_KERNEL-style name; returns kAuto for anything
/// unrecognized (including nullptr).
Kernel parse_kernel_name(const char* name);

/// True when the variant can run on this machine (kScalar/kLanes always;
/// kAvx2 requires x86 AVX2, probed once via cpuid). kAuto is not a
/// concrete variant and reports false.
bool kernel_supported(Kernel k);

/// Widest supported concrete variant on this machine.
Kernel widest_supported_kernel();

/// Resolves a requested variant to the concrete variant a call will run:
/// kAuto honours TINCY_GEMM_KERNEL (read per call, so tests can flip it)
/// then falls back to widest_supported_kernel(); an unsupported explicit
/// request also falls back to widest_supported_kernel().
Kernel resolve_kernel(Kernel requested);

/// All concrete variants runnable on this machine, narrowest first —
/// the sweep list of the conformance harness and the bench gate.
std::vector<Kernel> dispatchable_kernels();

/// Entry points of a concrete (resolved) variant.
const MicroKernels& micro_kernels(Kernel resolved);

/// AVX2 entry points, or nullptr when the build or machine lacks AVX2.
/// Defined in kernels_avx2.cpp; exposed for the dispatch table only.
const MicroKernels* avx2_micro_kernels();

// --- Bit-serial popcount variants (gemm/bitserial.hpp) ------------------
//
// The W1A<bits> dot product reduces to popcounts of ANDed 64-bit words.
// Weights are stored row-group-interleaved, [group][word][8 rows], so
// word i of eight consecutive rows is one contiguous 64-byte vector; the
// tile kernel keeps those rows in SIMD lanes (one 64-bit lane per row),
// broadcasts one activation word to every lane, ANDs, popcounts and
// adds. Planes combine by Horner (total = 2·total + S_b), so nothing is
// summed horizontally and no load is masked. kAuto picks the widest
// variant the machine runs, as does an explicit request for an
// unsupported one; tests and benches name a variant explicitly. Every
// variant writes identical accumulators —
// tests/test_bitserial_conformance.cpp.

/// Popcount variant of one bit-serial call.
enum class PopcountKernel : int {
  kAuto = 0,  ///< widest supported
  kPortable,  ///< std::popcount as the baseline ISA compiles it (no POPCNT
              ///< on x86-64: a bit-twiddling sequence) — the baseline
  kPopcnt,    ///< scalar POPCNT, cpuid-gated (x86 only)
  kAvx2,      ///< VPSHUFB nibble table + VPSADBW, 4 rows per ymm
  kAvx512,    ///< AVX-512 VPOPCNTDQ, 8 rows per zmm
};

/// Rows per interleaved weight group: word i of group g's rows lives at
/// [(g·words + i)·8, +8). Rows are zero-padded to whole groups.
constexpr int64_t kBitSerialGroupRows = 8;

/// One bit-serial call as the tile kernels see it. With T_j[r] the
/// Horner total of column j against row r,
///   binary weights:  T = Σ_b 2^b · popcount(positive_r ∧ a_b)
///   ternary weights: T = Σ_b 2^b · (2·popcount(positive_r ∧ a_b)
///                                   − popcount(nonzero_r ∧ a_b))
/// a kernel writes, for every live row r,
///   acc[j·rows + r] = (T_j[r] << shift) + col_base + col_scale·Σx_j
///                     + row_bias[r]
/// where Σx_j = Σ_b 2^b · popcount(a_b) is the sum of column j's codes.
struct BitSerialTileArgs {
  const uint64_t* positive = nullptr;  ///< interleaved, [group][word][8]
  const uint64_t* nonzero = nullptr;   ///< same layout; null for binary
  int64_t rows = 0;   ///< live rows; the last group may be padded
  int64_t words = 0;  ///< words per plane
  int bits = 1;       ///< activation planes per column (plane b at b·words)
  int shift = 0;
  int64_t col_base = 0;
  int64_t col_scale = 0;
  const int64_t* row_bias = nullptr;  ///< whole groups of rows, or null
};

/// Tile kernel: `count` packed columns (column j at planes + j·bits·words)
/// against every row of `args`, written to acc[j·rows + r].
using BitSerialFn = void (*)(const BitSerialTileArgs& args,
                             const uint64_t* planes, int64_t count,
                             int32_t* acc);

/// Variant name ("auto", "portable", "popcnt", "avx2", "avx512").
const char* kernel_name(PopcountKernel k);

/// True when the variant runs on this machine (kPortable always).
bool kernel_supported(PopcountKernel k);

/// The variant a request runs: itself when supported, else (and for
/// kAuto) the widest supported one.
PopcountKernel resolve_kernel(PopcountKernel requested);

/// All runnable popcount variants, narrowest first.
std::vector<PopcountKernel> dispatchable_popcount_kernels();

/// Entry point of a concrete (resolved) popcount variant.
BitSerialFn bitserial_kernel(PopcountKernel resolved);

/// x86 entry point of kPopcnt / kAvx2 / kAvx512, or nullptr when the
/// build or machine lacks it. Defined in kernels_popcount_x86.cpp.
BitSerialFn x86_bitserial_kernel(PopcountKernel k);

}  // namespace tincy::gemm
