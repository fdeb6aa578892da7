#pragma once

/// \file zoo.hpp
/// Model zoo: cfg generators for every topology the paper evaluates.
///
/// Tiny YOLO variants follow §III-E: (a) leaky ReLU → ReLU; (b) layer-3
/// output channels 32 → 64; (c) layers 13 & 14 channels 1024 → 512;
/// (d) drop the first maxpool and give the first conv stride 2. Tincy
/// YOLO is (a)+(b)+(c)+(d). MLP-4 and CNV-6 are the earlier FINN show
/// cases of Table II (MNIST MLP and the CIFAR-10-class CNN).
///
/// All zoo networks are produced as cfg text and built through the parser,
/// so the cfg path is exercised by every consumer.

#include <memory>
#include <string>

#include "core/rng.hpp"
#include "nn/network.hpp"

namespace tincy::nn::zoo {

enum class TinyVariant {
  kTiny,   ///< original Tiny YOLO
  kA,      ///< + (a)
  kABC,    ///< + (a, b, c)
  kTincy,  ///< + (a, b, c, d) — Tincy YOLO
};

enum class QuantMode {
  kFloat,  ///< all layers float
  kW1A3,   ///< hidden layers binary weights / 3-bit activations
};

/// Execution-kernel profile for the CPU layers.
enum class CpuProfile {
  kReference,  ///< Darknet generic path everywhere
  kFused,      ///< fused NEON-style float kernels
  kOptimized,  ///< 8-bit (lowp) first and last layers, fused float elsewhere
};

/// cfg text for a Tiny/Tincy YOLO variant at the given input resolution
/// (the paper uses 416; tests use smaller multiples of 32).
std::string tiny_yolo_cfg(TinyVariant v, QuantMode q, int input_size = 416,
                          CpuProfile p = CpuProfile::kReference);

/// cfg text for the fully binarized 4-layer MNIST MLP (Table II MLP-4).
std::string mlp4_cfg();

/// cfg text for the 6-conv CIFAR-10-class network (Table II CNV-6):
/// 8-bit first conv, W1A1 everywhere else.
std::string cnv6_cfg();

/// Human-readable variant name ("Tiny YOLO", "Tincy YOLO", ...).
std::string variant_name(TinyVariant v);

/// Builds a zoo network and leaves weights zero (enough for ops counting).
std::unique_ptr<Network> build(const std::string& cfg_text);

/// He-initializes all conv/connected weights and batch-norm statistics.
void randomize(Network& net, Rng& rng);

}  // namespace tincy::nn::zoo
