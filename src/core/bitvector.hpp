#pragma once

/// \file bitvector.hpp
/// Bit-packed vectors: the storage of binarized and ternarized weight
/// rows. Dot products over them run in gemm/bitserial.hpp, which packs
/// the rows into its own contiguous layout.

#include <cstdint>
#include <vector>

#include "core/errors.hpp"

namespace tincy {

/// Fixed-length packed bit vector (little-endian within each 64-bit word).
class BitVector {
 public:
  BitVector() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit BitVector(int64_t size);

  int64_t size() const { return size_; }

  bool get(int64_t i) const;
  void set(int64_t i, bool value);

  /// Number of set bits.
  int64_t popcount() const;

  /// Raw packed words; trailing bits past size() are guaranteed zero.
  const std::vector<uint64_t>& words() const { return words_; }

  bool operator==(const BitVector& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }

 private:
  int64_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace tincy
