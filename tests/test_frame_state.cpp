// Two frames in flight through one network: each thread runs its own
// nn::FrameState through a network whose weight caches are cold, and every
// activation must be byte-identical to a sequential run. This is the data
// race audit of Network::forward(input, state) and the layers' lazy weight
// caches; run it under TINCY_SANITIZE=thread (tests/README.md).

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"

namespace tincy {
namespace {

constexpr int kThreads = 2;
constexpr int kFramesPerThread = 3;

/// A zoo network with seeded weights; randomize() leaves its caches cold.
std::unique_ptr<nn::Network> seeded(const std::string& cfg) {
  auto net = nn::zoo::build(cfg);
  Rng rng(5);
  nn::zoo::randomize(*net, rng);
  return net;
}

/// Every layer_output of one frame.
using Activations = std::vector<Tensor>;

Activations outputs(const nn::Network& net, nn::FrameState& state) {
  Activations out;
  for (int64_t i = 0; i < net.num_layers(); ++i)
    out.push_back(net.layer_output(i, state));
  return out;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_concurrent_matches_sequential(const std::string& cfg) {
  std::vector<Tensor> inputs;
  {
    const auto net = seeded(cfg);
    Rng rng(9);
    for (int f = 0; f < kThreads * kFramesPerThread; ++f) {
      Tensor x(net->input_shape());
      for (int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(0.0f, 1.0f);
      inputs.push_back(std::move(x));
    }
  }
  // The sequential run: one state, frame after frame.
  std::vector<Activations> want;
  {
    const auto net = seeded(cfg);
    nn::FrameState state;
    for (const Tensor& x : inputs) {
      net->forward(x, state);
      want.push_back(outputs(*net, state));
    }
  }

  const auto net = seeded(cfg);
  std::vector<Activations> got(inputs.size());
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      nn::FrameState state;
      start.arrive_and_wait();
      for (int k = 0; k < kFramesPerThread; ++k) {
        const auto f = static_cast<size_t>(k * kThreads + t);
        net->forward(inputs[f], state);
        got[f] = outputs(*net, state);
      }
    });
  for (auto& th : threads) th.join();

  for (size_t f = 0; f < inputs.size(); ++f) {
    ASSERT_EQ(got[f].size(), want[f].size());
    for (size_t i = 0; i < want[f].size(); ++i)
      EXPECT_TRUE(same_bytes(got[f][i], want[f][i]))
          << "frame " << f << " layer " << i;
  }
}

TEST(FrameState, TwoFramesInFlightTincyW1A3At64) {
  expect_concurrent_matches_sequential(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 64,
      nn::zoo::CpuProfile::kOptimized));
}

TEST(FrameState, TwoFramesInFlightCnv6) {
  expect_concurrent_matches_sequential(nn::zoo::cnv6_cfg());
}

TEST(FrameState, AStateServesOneNetwork) {
  const auto longer = seeded(nn::zoo::cnv6_cfg());
  const auto shorter = seeded(nn::zoo::mlp4_cfg());
  nn::FrameState state;
  longer->forward(Tensor(longer->input_shape()), state);
  EXPECT_THROW(shorter->forward(Tensor(shorter->input_shape()), state),
               Error);
}

TEST(FrameState, ALayerReadsItsProducersOutputInTheState) {
  const auto net = seeded(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kW1A3, 64,
      nn::zoo::CpuProfile::kOptimized));
  const Tensor x(net->input_shape());
  nn::FrameState state;
  // L0 hands L1 codes, which this state does not hold yet.
  EXPECT_THROW(net->forward_layer(1, x, state), Error);
  // Step by step, the state ends where forward() ends.
  for (int64_t i = 0; i < net->num_layers(); ++i)
    net->forward_layer(i, x, state);
  nn::FrameState whole;
  net->forward(x, whole);
  EXPECT_TRUE(same_bytes(net->layer_output(net->num_layers() - 1, state),
                         net->layer_output(net->num_layers() - 1, whole)));
}

}  // namespace
}  // namespace tincy
