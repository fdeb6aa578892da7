#include <gtest/gtest.h>

#include <filesystem>

#include "core/rng.hpp"
#include "fabric/accelerator.hpp"
#include "fabric/binparam.hpp"
#include "fabric/dataflow.hpp"
#include "fabric/folding.hpp"
#include "fabric/mvtu.hpp"
#include "fabric/pool_unit.hpp"
#include "fabric/resource_model.hpp"
#include "fabric/sliding_window.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "telemetry/metrics.hpp"

namespace tincy::fabric {
namespace {

quant::BinaryMatrix random_binary(Rng& rng, int64_t rows, int64_t cols) {
  Tensor w(Shape{rows, cols});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  return quant::binarize(w);
}

std::vector<ThresholdChannel> identity_thresholds(int64_t rows, int levels) {
  // Thresholds at 1, 2, ... — the level equals clamp(acc, 0, levels).
  std::vector<ThresholdChannel> t(static_cast<size_t>(rows));
  for (auto& ch : t)
    for (int k = 1; k <= levels; ++k) ch.thresholds.push_back(k);
  return t;
}

TEST(Folding, CycleFormula) {
  // 64×144 matrix on a 32×36 array, 3-bit activations:
  // ceil(64/32)·ceil(144/36)·3 = 2·4·3 = 24 cycles per column.
  EXPECT_EQ(fold_cycles_per_vector({64, 144}, {32, 36}, 3), 24);
  EXPECT_EQ(fold_cycles_per_layer({64, 144}, {32, 36}, 3, 100), 2400);
  // Non-dividing folds round up.
  EXPECT_EQ(fold_cycles_per_vector({65, 145}, {32, 36}, 1), 3 * 5);
}

TEST(Folding, InvalidArgsThrow) {
  EXPECT_THROW(fold_cycles_per_vector({0, 10}, {8, 8}, 1), Error);
  EXPECT_THROW(fold_cycles_per_vector({10, 10}, {0, 8}, 1), Error);
  EXPECT_THROW(fold_cycles_per_vector({10, 10}, {8, 8}, 0), Error);
}

TEST(Mvtu, AccumulateMatchesDirectDot) {
  Rng rng(101);
  const int64_t rows = 20, cols = 100;
  const quant::BinaryMatrix w = random_binary(rng, rows, cols);
  Mvtu mvtu(w, identity_thresholds(rows, 7), /*act_bits_in=*/3);

  std::vector<uint8_t> column(static_cast<size_t>(cols));
  for (auto& c : column) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<int32_t> acc(static_cast<size_t>(rows));
  mvtu.accumulate(column, acc);
  for (int64_t r = 0; r < rows; ++r) {
    int32_t expected = 0;
    for (int64_t c = 0; c < cols; ++c)
      expected += static_cast<int32_t>(w.value(r, c)) * column[static_cast<size_t>(c)];
    EXPECT_EQ(acc[static_cast<size_t>(r)], expected) << "row " << r;
  }
}

TEST(Mvtu, ComputeAppliesThresholds) {
  Rng rng(103);
  const int64_t rows = 8, cols = 64;
  const quant::BinaryMatrix w = random_binary(rng, rows, cols);
  Mvtu mvtu(w, identity_thresholds(rows, 7), 3);
  std::vector<uint8_t> column(static_cast<size_t>(cols));
  for (auto& c : column) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<int32_t> acc(static_cast<size_t>(rows));
  std::vector<uint8_t> out(static_cast<size_t>(rows));
  mvtu.accumulate(column, acc);
  mvtu.compute(column, out);
  for (int64_t r = 0; r < rows; ++r) {
    const int expected =
        std::clamp(acc[static_cast<size_t>(r)], 0, 7);
    EXPECT_EQ(out[static_cast<size_t>(r)], expected);
  }
}

TEST(Mvtu, ThresholdCountMustMatchRows) {
  Rng rng(104);
  const quant::BinaryMatrix w = random_binary(rng, 4, 16);
  EXPECT_THROW(Mvtu(w, identity_thresholds(3, 7), 3), Error);
}

TEST(SlidingWindow, StreamCycles) {
  const SlidingWindowUnit swu({16, 8, 8, 3, 1, 1});
  EXPECT_EQ(swu.num_columns(), 8 * 8);
  EXPECT_EQ(swu.cycles_per_column(36), (16 * 9 + 35) / 36);
}

TEST(PoolUnit, MatchesFloatSemantics) {
  Rng rng(107);
  const PoolSpec spec{4, 6, 6, 2, 2};
  std::vector<uint8_t> in(static_cast<size_t>(4 * 36));
  for (auto& v : in) v = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<uint8_t> out(static_cast<size_t>(4 * 9));
  max_pool_codes(spec, in, out);
  for (int64_t c = 0; c < 4; ++c)
    for (int64_t y = 0; y < 3; ++y)
      for (int64_t x = 0; x < 3; ++x) {
        uint8_t m = 0;
        for (int64_t dy = 0; dy < 2; ++dy)
          for (int64_t dx = 0; dx < 2; ++dx)
            m = std::max(m, in[static_cast<size_t>((c * 6 + 2 * y + dy) * 6 +
                                                   2 * x + dx)]);
        EXPECT_EQ(out[static_cast<size_t>((c * 3 + y) * 3 + x)], m);
      }
}

TEST(PoolUnit, Stride1KeepsSize) {
  const PoolSpec spec{1, 13, 13, 2, 1};
  EXPECT_EQ(spec.out_height(), 13);
  EXPECT_EQ(spec.out_width(), 13);
}

TEST(ResourceModel, SingleEngineConstraint) {
  // The paper's architectural constraint: the sized-up engine (largest
  // Tincy hidden layer resident) fits the XCZU3EG exactly once.
  EngineSpec spec;
  spec.folding = {32, 36};
  spec.act_bits = 3;
  spec.max_rows = 512;
  spec.max_depth = 4608;  // 512 channels × 3×3
  spec.weight_bits_on_chip = 512 * 4608;
  const Device zu3eg;
  const Resources r = estimate_engine(spec);
  EXPECT_TRUE(fits(r, zu3eg));
  EXPECT_EQ(max_engines(spec, zu3eg), 1);
}

TEST(ResourceModel, SmallEnginesFitMultipleTimes) {
  EngineSpec tiny;
  tiny.folding = {4, 8};
  tiny.act_bits = 1;
  tiny.max_rows = 64;
  tiny.max_depth = 128;
  tiny.weight_bits_on_chip = 64 * 128;
  EXPECT_GT(max_engines(tiny, Device{}), 1);
}

// --- Whole-accelerator bit-exactness against the CPU golden model ---

std::unique_ptr<nn::Network> quant_subnet(Rng& rng) {
  // Two quantized convs with pools, as the fabric offload would host.
  const std::string cfg =
      "[net]\nwidth=12\nheight=12\nchannels=4\n"
      "[convolutional]\nbatch_normalize=1\nfilters=8\nsize=3\nstride=1\n"
      "pad=1\nactivation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n"
      "in_scale=0.25\nout_scale=0.5\n"
      "[maxpool]\nsize=2\nstride=2\n"
      "[convolutional]\nbatch_normalize=1\nfilters=16\nsize=3\nstride=1\n"
      "pad=1\nactivation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n"
      "in_scale=0.5\nout_scale=0.5\n";
  auto net = nn::build_network_from_string(cfg);
  nn::zoo::randomize(*net, rng);
  return net;
}

TEST(Accelerator, BitExactAgainstCpuQuantReference) {
  Rng rng(109);
  const auto subnet = quant_subnet(rng);
  const QnnAccelerator acc = offload::import_accelerator(*subnet);

  Tensor in(Shape{4, 12, 12});
  for (int64_t i = 0; i < in.numel(); ++i)
    in[i] = 0.25f * static_cast<float>(rng.uniform_int(0, 7));

  const Tensor expected = [&] {
    Tensor t = subnet->forward(in);
    return t;
  }();
  const Tensor got = acc.forward(in);
  ASSERT_EQ(got.shape(), expected.shape());
  for (int64_t i = 0; i < got.numel(); ++i)
    EXPECT_FLOAT_EQ(got[i], expected[i]) << "element " << i;
}

TEST(Accelerator, LayerChainingValidated) {
  Rng rng(111);
  QnnAccelerator acc;
  QnnLayerSpec spec;
  spec.in_channels = 2;
  spec.in_height = 4;
  spec.in_width = 4;
  spec.filters = 4;
  acc.add_layer(spec, random_binary(rng, 4, 18), identity_thresholds(4, 7));
  // Mismatched follow-up layer must be rejected.
  QnnLayerSpec bad = spec;
  bad.in_channels = 3;
  EXPECT_THROW(
      acc.add_layer(bad, random_binary(rng, 4, 27), identity_thresholds(4, 7)),
      Error);
}

TEST(Accelerator, PerfReportPlausible) {
  Rng rng(113);
  const auto subnet = quant_subnet(rng);
  const QnnAccelerator acc = offload::import_accelerator(*subnet);
  ASSERT_EQ(acc.num_layers(), 2);
  for (int64_t i = 0; i < acc.num_layers(); ++i) {
    const LayerPerf p = acc.layer_perf(i);
    EXPECT_GT(p.compute_cycles, 0);
    EXPECT_GT(p.weight_dma_cycles, 0);
    EXPECT_GT(p.total_cycles(), p.compute_cycles);
  }
  EXPECT_GT(acc.total_ms(), 0.0);
  // This test subnet is tiny; the sized engine fits at least once (the
  // single-engine constraint for full Tincy dims is covered above).
  EXPECT_GE(acc.engines_fitting(), 1);
}

TEST(Binparam, RoundTripThroughDirectory) {
  Rng rng(115);
  const auto subnet = quant_subnet(rng);
  const auto dir =
      (std::filesystem::temp_directory_path() / "tincy_binparam_test").string();
  std::filesystem::remove_all(dir);
  offload::export_binparams(*subnet, dir);

  const QnnAccelerator direct = offload::import_accelerator(*subnet);
  const QnnAccelerator loaded = load_accelerator(dir);
  ASSERT_EQ(loaded.num_layers(), direct.num_layers());

  Tensor in(Shape{4, 12, 12});
  for (int64_t i = 0; i < in.numel(); ++i)
    in[i] = 0.25f * static_cast<float>(rng.uniform_int(0, 7));
  const Tensor a = direct.forward(in);
  const Tensor b = loaded.forward(in);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  std::filesystem::remove_all(dir);
}

TEST(Binparam, MissingDirectoryThrows) {
  EXPECT_THROW(load_binparams("/nonexistent/tincy"), Error);
}

// --- Dataflow execution model (§III-A architectural argument) ---

std::vector<QnnLayerSpec> two_stage_specs() {
  QnnLayerSpec a;
  a.in_channels = 8;
  a.in_height = 8;
  a.in_width = 8;
  a.filters = 16;
  a.kernel = 3;
  a.pad = 1;
  QnnLayerSpec b = a;
  b.in_channels = 16;
  b.filters = 32;
  return {a, b};
}

TEST(Dataflow, InitiationIntervalIsSlowestStage) {
  const auto specs = two_stage_specs();
  const auto plan = uniform_plan(specs, {8, 9});
  const auto r = evaluate_dataflow(plan, Device{}, 300.0);
  int64_t slowest = 0, total = 0;
  for (const auto& s : plan) {
    const auto g = s.spec.conv_geometry();
    const int64_t c = fold_cycles_per_layer({s.spec.filters, g.patch_size()},
                                            s.folding, s.spec.act_bits_in,
                                            g.num_patches());
    slowest = std::max(slowest, c);
    total += c;
  }
  EXPECT_EQ(r.initiation_interval_cycles, slowest);
  EXPECT_EQ(r.latency_cycles, total);
  EXPECT_NEAR(r.throughput_fps, 300e6 / static_cast<double>(slowest), 1.0);
}

TEST(Dataflow, BalancedPlanEvensOutStageCycles) {
  const auto specs = two_stage_specs();
  const auto uniform = uniform_plan(specs, {4, 9});
  const auto balanced = balanced_plan(specs, 2 * 4 * 9);
  const auto ru = evaluate_dataflow(uniform, Device{}, 300.0);
  const auto rb = evaluate_dataflow(balanced, Device{}, 300.0);
  // Same total lane budget, better (or equal) initiation interval.
  EXPECT_LE(rb.initiation_interval_cycles,
            ru.initiation_interval_cycles * 2);
  EXPECT_GT(rb.throughput_fps, 0.0);
}

TEST(Dataflow, TincyHiddenLayersDoNotFit) {
  // The seven Tincy hidden engines with resident weights overflow the
  // XCZU3EG — the constraint that forces layer-at-a-time execution.
  std::vector<QnnLayerSpec> specs;
  const int64_t channels[][2] = {{16, 64},  {64, 64},   {64, 128},
                                 {128, 256}, {256, 512}, {512, 512},
                                 {512, 512}};
  int64_t size = 208;
  for (const auto& c : channels) {
    QnnLayerSpec s;
    s.in_channels = c[0];
    s.in_height = size;
    s.in_width = size;
    s.filters = c[1];
    s.kernel = 3;
    s.pad = 1;
    specs.push_back(s);
    if (size > 13) size /= 2;
  }
  const auto r =
      evaluate_dataflow(uniform_plan(specs, {32, 36}), Device{}, 300.0);
  EXPECT_FALSE(r.fits_device);
}

TEST(Dataflow, EmptyPlanRejected) {
  EXPECT_THROW(evaluate_dataflow({}, Device{}, 300.0), Error);
}

// --- Ternary MVTU (related-work coverage: TWN on FPGAs) ---

TEST(TernaryMvtu, AccumulateMatchesDirectDot) {
  Rng rng(211);
  const int64_t rows = 12, cols = 80;
  Tensor w(Shape{rows, cols});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const quant::TernaryMatrix tw = quant::ternarize(w, /*with_scale=*/false);
  Mvtu mvtu(tw, identity_thresholds(rows, 7), /*act_bits_in=*/3);

  std::vector<uint8_t> column(static_cast<size_t>(cols));
  for (auto& c : column) c = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<int32_t> acc(static_cast<size_t>(rows));
  mvtu.accumulate(column, acc);
  for (int64_t r = 0; r < rows; ++r) {
    int32_t expected = 0;
    for (int64_t c = 0; c < cols; ++c)
      expected += static_cast<int32_t>(tw.value(r, c)) *
                  column[static_cast<size_t>(c)];
    EXPECT_EQ(acc[static_cast<size_t>(r)], expected) << "row " << r;
  }
}

TEST(TernaryMvtu, ZeroWeightsContributeNothing) {
  quant::TernaryMatrix tw;
  tw.rows = 1;
  tw.cols = 4;
  tw.nonzero.emplace_back(4);
  tw.positive.emplace_back(4);
  tw.row_scale.push_back(1.0f);
  tw.nonzero[0].set(0, true);
  tw.positive[0].set(0, true);   // +1
  tw.nonzero[0].set(2, true);    // −1 (nonzero, not positive)
  // Indices 1 and 3 are exact zeros.
  Mvtu mvtu(tw, identity_thresholds(1, 7), 3);
  const std::vector<uint8_t> column{5, 7, 2, 7};
  std::vector<int32_t> acc(1);
  mvtu.accumulate(column, acc);
  EXPECT_EQ(acc[0], 5 - 2);
}

TEST(TernaryMvtu, SameFoldingCostAsBinary) {
  Rng rng(212);
  Tensor w(Shape{64, 288});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const Mvtu binary(quant::binarize(w), identity_thresholds(64, 7), 3);
  const Mvtu ternary(quant::ternarize(w), identity_thresholds(64, 7), 3);
  const Folding f{32, 36};
  EXPECT_EQ(binary.cycles_per_column(f), ternary.cycles_per_column(f));
}

// ---- Batched (weight-resident) execution parity -------------------------

TEST(Mvtu, BatchMatchesSequentialCompute) {
  Rng rng(301);
  const int64_t rows = 20, cols = 100, batch = 5;
  const quant::BinaryMatrix w = random_binary(rng, rows, cols);
  const Mvtu mvtu(w, identity_thresholds(rows, 7), /*act_bits_in=*/3);

  std::vector<uint8_t> columns(static_cast<size_t>(batch * cols));
  for (auto& c : columns) c = static_cast<uint8_t>(rng.uniform_int(0, 7));

  std::vector<uint8_t> batched(static_cast<size_t>(batch * rows));
  std::vector<int32_t> acc_batched(static_cast<size_t>(batch * rows));
  mvtu.compute_batch(columns, batch, batched);
  mvtu.accumulate_batch(columns, batch, acc_batched);

  std::vector<uint8_t> expected(static_cast<size_t>(rows));
  std::vector<int32_t> acc_expected(static_cast<size_t>(rows));
  for (int64_t b = 0; b < batch; ++b) {
    const std::span<const uint8_t> col(columns.data() + b * cols,
                                       static_cast<size_t>(cols));
    mvtu.compute(col, expected);
    mvtu.accumulate(col, acc_expected);
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(batched[static_cast<size_t>(b * rows + r)],
                expected[static_cast<size_t>(r)])
          << "frame " << b << " row " << r;
      EXPECT_EQ(acc_batched[static_cast<size_t>(b * rows + r)],
                acc_expected[static_cast<size_t>(r)])
          << "frame " << b << " row " << r;
    }
  }
}

TEST(Mvtu, BipolarBatchMatchesSequential) {
  Rng rng(302);
  const int64_t rows = 16, cols = 64, batch = 4;
  const quant::BinaryMatrix w = random_binary(rng, rows, cols);
  std::vector<ThresholdChannel> th(static_cast<size_t>(rows));
  for (auto& ch : th) ch.thresholds.push_back(0);  // sign of the accumulator
  const Mvtu mvtu(w, std::move(th), /*act_bits_in=*/1, ActEncoding::kBipolar);

  std::vector<uint8_t> columns(static_cast<size_t>(batch * cols));
  for (auto& c : columns) c = static_cast<uint8_t>(rng.uniform_int(0, 1));

  std::vector<uint8_t> batched(static_cast<size_t>(batch * rows));
  mvtu.compute_batch(columns, batch, batched);
  std::vector<uint8_t> expected(static_cast<size_t>(rows));
  for (int64_t b = 0; b < batch; ++b) {
    mvtu.compute(std::span<const uint8_t>(columns.data() + b * cols,
                                          static_cast<size_t>(cols)),
                 expected);
    for (int64_t r = 0; r < rows; ++r)
      EXPECT_EQ(batched[static_cast<size_t>(b * rows + r)],
                expected[static_cast<size_t>(r)])
          << "frame " << b << " row " << r;
  }
}

TEST(TernaryMvtu, BatchMatchesSequential) {
  Rng rng(303);
  const int64_t rows = 12, cols = 80, batch = 3;
  Tensor w(Shape{rows, cols});
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal();
  const Mvtu mvtu(quant::ternarize(w), identity_thresholds(rows, 7),
                  /*act_bits_in=*/3);

  std::vector<uint8_t> columns(static_cast<size_t>(batch * cols));
  for (auto& c : columns) c = static_cast<uint8_t>(rng.uniform_int(0, 7));

  std::vector<uint8_t> batched(static_cast<size_t>(batch * rows));
  std::vector<int32_t> acc_batched(static_cast<size_t>(batch * rows));
  mvtu.compute_batch(columns, batch, batched);
  mvtu.accumulate_batch(columns, batch, acc_batched);
  std::vector<uint8_t> expected(static_cast<size_t>(rows));
  std::vector<int32_t> acc_expected(static_cast<size_t>(rows));
  for (int64_t b = 0; b < batch; ++b) {
    const std::span<const uint8_t> col(columns.data() + b * cols,
                                       static_cast<size_t>(cols));
    mvtu.compute(col, expected);
    mvtu.accumulate(col, acc_expected);
    for (int64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(batched[static_cast<size_t>(b * rows + r)],
                expected[static_cast<size_t>(r)]);
      EXPECT_EQ(acc_batched[static_cast<size_t>(b * rows + r)],
                acc_expected[static_cast<size_t>(r)]);
    }
  }
}

TEST(PoolUnit, BatchMatchesPerFrame) {
  Rng rng(305);
  const PoolSpec spec{4, 6, 6, 2, 2};
  const int64_t batch = 3;
  const int64_t in_size = 4 * 36, out_size = 4 * 9;
  std::vector<uint8_t> in(static_cast<size_t>(batch * in_size));
  for (auto& v : in) v = static_cast<uint8_t>(rng.uniform_int(0, 7));
  std::vector<uint8_t> batched(static_cast<size_t>(batch * out_size));
  max_pool_codes_batch(spec, in, batched, batch);
  std::vector<uint8_t> expected(static_cast<size_t>(out_size));
  for (int64_t b = 0; b < batch; ++b) {
    max_pool_codes(spec,
                   std::span<const uint8_t>(in.data() + b * in_size,
                                            static_cast<size_t>(in_size)),
                   expected);
    for (int64_t i = 0; i < out_size; ++i)
      EXPECT_EQ(batched[static_cast<size_t>(b * out_size + i)],
                expected[static_cast<size_t>(i)]);
  }
}

TEST(Accelerator, BatchedBitExactOnQuantSubnet) {
  // Tincy-style golden: the batched whole-network path over a conv+pool
  // chain must be bit-identical to running every frame alone.
  Rng rng(306);
  const auto subnet = quant_subnet(rng);
  const QnnAccelerator acc = offload::import_accelerator(*subnet);
  const int64_t batch = 4;
  const int64_t in_n = acc.input_shape().numel();
  const int64_t out_n = acc.output_shape().numel();

  std::vector<uint8_t> inputs(static_cast<size_t>(batch * in_n));
  for (auto& v : inputs) v = static_cast<uint8_t>(rng.uniform_int(0, 7));
  const std::vector<uint8_t> batched = acc.forward_codes_batched(inputs, batch);
  ASSERT_EQ(static_cast<int64_t>(batched.size()), batch * out_n);
  for (int64_t b = 0; b < batch; ++b) {
    const std::vector<uint8_t> one(
        inputs.begin() + static_cast<std::ptrdiff_t>(b * in_n),
        inputs.begin() + static_cast<std::ptrdiff_t>((b + 1) * in_n));
    const std::vector<uint8_t> expected = acc.forward_codes(one);
    for (int64_t i = 0; i < out_n; ++i)
      EXPECT_EQ(batched[static_cast<size_t>(b * out_n + i)],
                expected[static_cast<size_t>(i)])
          << "frame " << b << " element " << i;
  }
}

/// CNV-style bipolar chain (W1A1, valid convs, mid-chain max pool).
QnnAccelerator bipolar_accelerator(Rng& rng) {
  QnnAccelerator acc;
  QnnLayerSpec l1;
  l1.in_channels = 4;
  l1.in_height = 6;
  l1.in_width = 6;
  l1.filters = 8;
  l1.kernel = 3;
  l1.pad = 0;
  l1.act_bits_in = 1;
  l1.act_bits_out = 1;
  l1.bipolar = true;
  l1.pool_after = true;
  l1.pool_size = 2;
  l1.pool_stride = 2;
  std::vector<ThresholdChannel> th1(8);
  for (auto& ch : th1) ch.thresholds.push_back(0);
  acc.add_layer(l1, random_binary(rng, 8, 4 * 9), std::move(th1));

  QnnLayerSpec l2;
  l2.in_channels = 8;
  l2.in_height = 2;
  l2.in_width = 2;
  l2.filters = 4;
  l2.kernel = 1;
  l2.pad = 0;
  l2.act_bits_in = 1;
  l2.act_bits_out = 1;
  l2.bipolar = true;
  std::vector<ThresholdChannel> th2(4);
  for (auto& ch : th2) ch.thresholds.push_back(0);
  acc.add_layer(l2, random_binary(rng, 4, 8), std::move(th2));
  return acc;
}

TEST(Accelerator, BatchedBitExactBipolar) {
  Rng rng(307);
  const QnnAccelerator acc = bipolar_accelerator(rng);
  const int64_t batch = 6;
  const int64_t in_n = acc.input_shape().numel();
  const int64_t out_n = acc.output_shape().numel();
  std::vector<uint8_t> inputs(static_cast<size_t>(batch * in_n));
  for (auto& v : inputs) v = static_cast<uint8_t>(rng.uniform_int(0, 1));
  const std::vector<uint8_t> batched = acc.forward_codes_batched(inputs, batch);
  for (int64_t b = 0; b < batch; ++b) {
    const std::vector<uint8_t> one(
        inputs.begin() + static_cast<std::ptrdiff_t>(b * in_n),
        inputs.begin() + static_cast<std::ptrdiff_t>((b + 1) * in_n));
    const std::vector<uint8_t> expected = acc.forward_codes(one);
    for (int64_t i = 0; i < out_n; ++i)
      EXPECT_EQ(batched[static_cast<size_t>(b * out_n + i)],
                expected[static_cast<size_t>(i)])
          << "frame " << b << " element " << i;
  }
}

TEST(Accelerator, LayerPerfBatchedAmortizesWeightDma) {
  Rng rng(308);
  const auto subnet = quant_subnet(rng);
  const QnnAccelerator acc = offload::import_accelerator(*subnet);
  const LayerPerf one = acc.layer_perf(0);
  const LayerPerf four = acc.layer_perf_batched(0, 4);
  // Weight stream and invocation overhead are paid once per pass; the
  // per-frame work scales with the batch.
  EXPECT_EQ(four.batch, 4);
  EXPECT_EQ(four.weight_dma_cycles, one.weight_dma_cycles);
  EXPECT_EQ(four.overhead_cycles, one.overhead_cycles);
  EXPECT_EQ(four.compute_cycles, 4 * one.compute_cycles);
  EXPECT_EQ(four.fmap_dma_cycles, 4 * one.fmap_dma_cycles);
  EXPECT_EQ(four.pool_cycles, 4 * one.pool_cycles);
  EXPECT_LT(four.cycles_per_frame(), static_cast<double>(one.total_cycles()));
  EXPECT_DOUBLE_EQ(four.weight_dma_per_frame(),
                   static_cast<double>(one.weight_dma_cycles) / 4.0);
  EXPECT_EQ(four.dma_saved_cycles(), 3 * one.weight_dma_cycles);
  EXPECT_EQ(one.dma_saved_cycles(), 0);
  // layer_perf is exactly the batch-1 case.
  EXPECT_EQ(one.total_cycles(), acc.layer_perf_batched(0, 1).total_cycles());
}

TEST(Accelerator, BatchedTelemetryCountsAmortization) {
  Rng rng(309);
  const auto subnet = quant_subnet(rng);
  QnnAccelerator acc = offload::import_accelerator(*subnet);
  telemetry::MetricsRegistry registry;
  acc.set_metrics(&registry);

  const int64_t in_n = acc.input_shape().numel();
  std::vector<uint8_t> one(static_cast<size_t>(in_n), 3);
  acc.forward_codes(one);  // batch of 1: nothing to amortize, no samples
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("fabric.batched_passes"), 0);
  EXPECT_EQ(snap.counter_value("fabric.dma_amortized"), 0);

  const int64_t batch = 4;
  const int64_t layers = acc.num_layers();
  std::vector<uint8_t> inputs(static_cast<size_t>(batch * in_n), 3);
  acc.forward_codes_batched(inputs, batch);
  snap = registry.snapshot();
  // One coalesced pass per offloaded layer, each over `batch` frames.
  EXPECT_EQ(snap.counter_value("fabric.batched_passes"), layers);
  EXPECT_EQ(snap.counter_value("fabric.batched_frames"), layers * batch);
  EXPECT_EQ(snap.counter_value("fabric.dma_amortized"), layers * (batch - 1));
  int64_t expected_saved = 0;
  for (int64_t i = 0; i < layers; ++i)
    expected_saved += (batch - 1) * acc.layer_perf(i).weight_dma_cycles;
  EXPECT_EQ(snap.counter_value("fabric.dma_saved_cycles"), expected_saved);
}

}  // namespace
}  // namespace tincy::fabric
