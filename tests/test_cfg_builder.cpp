#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/rng.hpp"
#include "nn/builder.hpp"
#include "nn/cfg.hpp"
#include "nn/describe.hpp"
#include "nn/conv_layer.hpp"
#include "nn/ops.hpp"
#include "nn/weights_io.hpp"
#include "nn/zoo.hpp"

namespace tincy::nn {
namespace {

using zoo::CpuProfile;
using zoo::QuantMode;
using zoo::TinyVariant;

TEST(CfgParser, SectionsAndKeyValues) {
  const auto sections = parse_cfg(
      "# comment\n"
      "[net]\n"
      "width=32\n"
      "height = 24 ; trailing comment\n"
      "\n"
      "[convolutional]\n"
      "filters=7\n");
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "net");
  EXPECT_EQ(sections[0].get_int("width", 0), 32);
  EXPECT_EQ(sections[0].get_int("height", 0), 24);
  EXPECT_EQ(sections[1].get_int("filters", 0), 7);
  EXPECT_EQ(sections[1].get_int("missing", 42), 42);
}

TEST(CfgParser, FloatList) {
  const auto sections = parse_cfg("[region]\nanchors=1.08,1.19, 3.42,4.41\n");
  const auto anchors = sections[0].get_float_list("anchors");
  ASSERT_EQ(anchors.size(), 4u);
  EXPECT_FLOAT_EQ(anchors[0], 1.08f);
  EXPECT_FLOAT_EQ(anchors[3], 4.41f);
}

TEST(CfgParser, Errors) {
  EXPECT_THROW(parse_cfg("key=value\n"), Error);        // before any section
  EXPECT_THROW(parse_cfg("[net\nwidth=1\n"), Error);    // malformed header
  EXPECT_THROW(parse_cfg("[net]\nnot a kv line\n"), Error);
}

TEST(CfgParser, EmptyFileYieldsNoSections) {
  EXPECT_TRUE(parse_cfg("").empty());
  EXPECT_TRUE(parse_cfg("\n\n# only comments\n; and darknet ones\n").empty());
  // The builder refuses an empty document with a clean Error (a network
  // needs at least a [net] section), never a crash.
  EXPECT_THROW(build_network_from_string(""), Error);
}

TEST(CfgParser, DuplicateKeyInSectionIsAnError) {
  try {
    parse_cfg("[net]\nwidth=32\nwidth=64\n");
    FAIL() << "duplicate key accepted";
  } catch (const Error& e) {
    // The message names the offending line, key, and section.
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key 'width'"), std::string::npos) << what;
    EXPECT_NE(what.find("[net]"), std::string::npos) << what;
  }
  // Same key in *different* sections stays legal.
  const auto ok = parse_cfg("[convolutional]\nfilters=2\n"
                            "[convolutional]\nfilters=4\n");
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0].get_int("filters", 0), 2);
  EXPECT_EQ(ok[1].get_int("filters", 0), 4);
}

TEST(CfgParser, TrailingWhitespaceValuesParseCleanly) {
  const auto sections = parse_cfg("[net]\n"
                                  "width=32   \n"
                                  "height =\t24\t\n"
                                  "name= padded value  \n");
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].get_int("width", 0), 32);
  EXPECT_EQ(sections[0].get_int("height", 0), 24);
  EXPECT_EQ(sections[0].get_string("name", ""), "padded value");
  EXPECT_EQ(sections[0].require_int("width"), 32);
}

TEST(CfgParser, RequireHelpersReportMissingKeys) {
  const auto sections = parse_cfg("[offload]\nlibrary=pl.so\n");
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].require_string("library"), "pl.so");
  try {
    sections[0].require_int("channel");
    FAIL() << "missing key accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("missing required key 'channel'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[offload]"), std::string::npos) << what;
  }
  EXPECT_THROW(sections[0].require_string("absent"), Error);
}

TEST(CfgParser, MalformedNumericValuesThrowCleanly) {
  const auto sections = parse_cfg("[net]\nwidth=abc\nscale=1.2.3\n");
  EXPECT_THROW(sections[0].get_int("width", 0), Error);
  EXPECT_THROW(sections[0].get_double("scale", 0.0), Error);
  EXPECT_THROW(sections[0].require_int("width"), Error);
}

TEST(Builder, OffloadSectionRequiresLibraryAndGeometry) {
  const std::string head =
      "[net]\nwidth=8\nheight=8\nchannels=3\n";
  // No library.
  EXPECT_THROW(build_network_from_string(
                   head + "[offload]\nchannel=4\nheight=8\nwidth=8\n"),
               Error);
  // No geometry.
  EXPECT_THROW(
      build_network_from_string(head + "[offload]\nlibrary=pl.so\n"),
      Error);
}

TEST(Builder, UnknownSectionErrorNamesTheSection) {
  try {
    build_network_from_string("[net]\nwidth=32\nheight=32\nchannels=3\n"
                              "[shortcut]\nfrom=-2\n");
    FAIL() << "unknown section accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shortcut"), std::string::npos)
        << e.what();
  }
}

TEST(Builder, RejectsUnknownSection) {
  EXPECT_THROW(
      build_network_from_string("[net]\nwidth=32\nheight=32\nchannels=3\n"
                                "[shortcut]\nfrom=-2\n"),
      Error);
}

TEST(Builder, RejectsNonPositiveGeometry) {
  // filters=-4 / stride=0 used to reach the conv geometry and die with
  // SIGFPE; every such field is a cfg error naming the offending key.
  const std::string net = "[net]\nwidth=32\nheight=32\nchannels=3\n\n";
  EXPECT_THROW(build_network_from_string(
                   net + "[convolutional]\nfilters=-4\nsize=3\nstride=0\n"),
               Error);
  const struct {
    const char* section;
    const char* key;
  } fields[] = {{"convolutional", "filters"}, {"convolutional", "size"},
                {"convolutional", "stride"},  {"maxpool", "size"},
                {"maxpool", "stride"}};
  for (const auto& f : fields) {
    for (const char* value : {"0", "-1"}) {
      const std::string cfg = net + "[" + f.section + "]\n" + f.key + "=" +
                              value + "\n";
      try {
        build_network_from_string(cfg);
        ADD_FAILURE() << "accepted " << f.section << " " << f.key << "="
                      << value;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(f.key), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Builder, RequiresNetFirst) {
  EXPECT_THROW(build_network_from_string("[convolutional]\nfilters=2\n"),
               Error);
}

TEST(Zoo, TinyYoloStructure) {
  const auto net = zoo::build(
      zoo::tiny_yolo_cfg(TinyVariant::kTiny, QuantMode::kFloat));
  // 9 convs + 6 pools + 1 region = 16 layers.
  EXPECT_EQ(net->num_layers(), 16);
  EXPECT_EQ(net->input_shape(), Shape({3, 416, 416}));
  EXPECT_EQ(net->output_shape(), Shape({125, 13, 13}));
}

TEST(Zoo, TincyYoloStructure) {
  const auto net = zoo::build(
      zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat));
  // First pool dropped: 9 convs + 5 pools + 1 region = 15 layers.
  EXPECT_EQ(net->num_layers(), 15);
  EXPECT_EQ(net->output_shape(), Shape({125, 13, 13}));
  const auto* first = dynamic_cast<const ConvLayer*>(&net->layer(0));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->config().stride, 2);  // modification (d)
}

TEST(Zoo, TableOneTinyYoloExactOps) {
  const auto net = zoo::build(
      zoo::tiny_yolo_cfg(TinyVariant::kTiny, QuantMode::kFloat));
  const auto rows = ops_rows(*net);
  // The paper's Table I, layer by layer (region layer excluded there).
  const int64_t expected[] = {
      149520384,  173056,     398721024, 43264,     398721024,
      10816,      398721024,  2704,      398721024, 676,
      398721024,  676,        1594884096, 3189768192, 43264000};
  ASSERT_GE(rows.size(), 15u);
  for (size_t i = 0; i < 15; ++i)
    EXPECT_EQ(rows[i].ops, expected[i]) << "layer " << i + 1;
  EXPECT_EQ(total_ops(*net), 6971272984);  // Σ of Table I
}

TEST(Zoo, TableOneTincyYoloExactOps) {
  const auto net = zoo::build(
      zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat));
  const auto rows = ops_rows(*net);
  const int64_t expected[] = {
      37380096,  797442048, 43264,     797442048, 10816,
      398721024, 2704,      398721024, 676,       398721024,
      676,       797442048, 797442048, 21632000};
  ASSERT_GE(rows.size(), 14u);
  for (size_t i = 0; i < 14; ++i)
    EXPECT_EQ(rows[i].ops, expected[i]) << "layer " << i + 1;
  EXPECT_EQ(total_ops(*net), 4445001496);  // Σ of Table I
}

TEST(Zoo, TableTwoTincyYoloWorkloads) {
  // Table II: Tincy YOLO = 4385.9 M reduced [W1A3] + 59.0 M 8-bit.
  const auto net = zoo::build(zoo::tiny_yolo_cfg(
      TinyVariant::kTincy, QuantMode::kW1A3, 416, CpuProfile::kOptimized));
  const auto w = dot_product_workload(*net);
  EXPECT_EQ(w.reduced_ops, 4385931264);   // 4385.9 M
  EXPECT_EQ(w.eight_bit_ops, 59012096);   // 59.0 M
  EXPECT_EQ(w.float_ops, 0);
  EXPECT_EQ(w.total(), 4444943360);       // 4444.9 M
  EXPECT_EQ(w.reduced_precision.name(), "W1A3");
}

TEST(Zoo, TableTwoCnv6Workloads) {
  // Table II: CNV-6 = 115.8 M reduced [W1A1] + 3.1 M 8-bit.
  const auto net = zoo::build(zoo::cnv6_cfg());
  const auto w = dot_product_workload(*net);
  EXPECT_EQ(w.eight_bit_ops, 3110400);    // 3.1 M (first conv)
  EXPECT_EQ(w.reduced_ops, 115812352);    // 115.8 M
  EXPECT_EQ(w.reduced_precision.name(), "W1A1");
}

TEST(Zoo, TableTwoMlp4Workloads) {
  // Table II reports 6.0 M; the exact 784/1024³/10 ladder gives 5.82 M
  // (the delta is discussed in EXPERIMENTS.md).
  const auto net = zoo::build(zoo::mlp4_cfg());
  const auto w = dot_product_workload(*net);
  EXPECT_EQ(w.reduced_ops, 5820416);
  EXPECT_EQ(w.eight_bit_ops, 0);
  EXPECT_EQ(w.reduced_precision.name(), "W1A1");
}

TEST(Zoo, VariantAccuracyLabels) {
  EXPECT_EQ(zoo::variant_name(TinyVariant::kTiny), "Tiny YOLO");
  EXPECT_EQ(zoo::variant_name(TinyVariant::kTincy), "Tincy YOLO");
}

TEST(Zoo, QuantizedVariantMarksHiddenLayers) {
  const auto net = zoo::build(zoo::tiny_yolo_cfg(
      TinyVariant::kTincy, QuantMode::kW1A3, 416, CpuProfile::kOptimized));
  int quantized = 0, eight_bit = 0;
  for (const auto& row : ops_rows(*net)) {
    if (row.precision.is_reduced()) ++quantized;
    if (row.precision.is_8bit()) ++eight_bit;
  }
  EXPECT_EQ(quantized, 7);  // the 7 hidden convs
  EXPECT_EQ(eight_bit, 2);  // input + output convs
}

TEST(Zoo, SmallInputBuildsAndRuns) {
  Rng rng(3);
  const auto net = zoo::build(zoo::tiny_yolo_cfg(
      TinyVariant::kTincy, QuantMode::kFloat, 64, CpuProfile::kFused));
  zoo::randomize(*net, rng);
  Tensor in(Shape{3, 64, 64});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(0.0f, 1.0f);
  const Tensor& out = net->forward(in);
  EXPECT_EQ(out.shape(), Shape({125, 2, 2}));
  // Region output: objectness channels are probabilities.
  for (int64_t i = 0; i < out.numel(); ++i) EXPECT_FALSE(std::isnan(out[i]));
}

TEST(Zoo, WholeNetworkWeightsRoundTripThroughFile) {
  const auto cfg = zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat,
                                      64, CpuProfile::kFused);
  const auto a = zoo::build(cfg);
  Rng rng(71);
  zoo::randomize(*a, rng);
  const auto path =
      (std::filesystem::temp_directory_path() / "tincy_weights_test.bin")
          .string();
  save_weights(*a, path, /*seen=*/777);

  const auto b = zoo::build(cfg);
  load_weights(*b, path);
  std::filesystem::remove(path);

  // Identical parameters => identical inference.
  Tensor in(Shape{3, 64, 64});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = rng.uniform(0.0f, 1.0f);
  const Tensor& out_a = a->forward(in);
  const Tensor& out_b = b->forward(in);
  for (int64_t i = 0; i < out_a.numel(); ++i)
    ASSERT_EQ(out_a[i], out_b[i]) << i;
}

TEST(Zoo, QuantizedForwardDeterministic) {
  const auto cfg = zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kW1A3,
                                      64, CpuProfile::kOptimized);
  const auto a = zoo::build(cfg);
  const auto b = zoo::build(cfg);
  Rng ra(9), rb(9);
  zoo::randomize(*a, ra);
  zoo::randomize(*b, rb);
  Rng in_rng(10);
  Tensor in(Shape{3, 64, 64});
  for (int64_t i = 0; i < in.numel(); ++i) in[i] = in_rng.uniform(0.0f, 1.0f);
  const Tensor& out_a = a->forward(in);
  const Tensor& out_b = b->forward(in);
  for (int64_t i = 0; i < out_a.numel(); ++i) ASSERT_EQ(out_a[i], out_b[i]);
}

TEST(Describe, CfgRoundTripPreservesStructureAndOps) {
  for (const auto variant : {TinyVariant::kTiny, TinyVariant::kTincy}) {
    for (const auto quant : {QuantMode::kFloat, QuantMode::kW1A3}) {
      const auto original = zoo::build(zoo::tiny_yolo_cfg(
          variant, quant, 416, CpuProfile::kOptimized));
      const auto rebuilt = build_network_from_string(to_cfg(*original));
      ASSERT_EQ(rebuilt->num_layers(), original->num_layers());
      EXPECT_EQ(rebuilt->output_shape(), original->output_shape());
      EXPECT_EQ(total_ops(*rebuilt), total_ops(*original));
      const auto a = ops_rows(*original), b = ops_rows(*rebuilt);
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ops, b[i].ops) << i;
        EXPECT_EQ(a[i].precision.name(), b[i].precision.name()) << i;
      }
    }
  }
  // MLP/CNV round-trip too (connected layers, bipolar-free unsigned A1).
  for (const auto& cfg_text : {zoo::mlp4_cfg(), zoo::cnv6_cfg()}) {
    const auto original = build_network_from_string(cfg_text);
    const auto rebuilt = build_network_from_string(to_cfg(*original));
    EXPECT_EQ(total_ops(*rebuilt), total_ops(*original));
  }
}

TEST(Describe, SummaryMentionsEveryLayer) {
  const auto net = zoo::build(
      zoo::tiny_yolo_cfg(TinyVariant::kTincy, QuantMode::kFloat));
  const std::string s = summary(*net);
  EXPECT_NE(s.find("convolutional"), std::string::npos);
  EXPECT_NE(s.find("maxpool"), std::string::npos);
  EXPECT_NE(s.find("region"), std::string::npos);
  EXPECT_NE(s.find("4,445,001,496"), std::string::npos);
}

TEST(Zoo, RandomizeIsDeterministic) {
  const auto cfg = zoo::tiny_yolo_cfg(TinyVariant::kTiny, QuantMode::kFloat,
                                      64, CpuProfile::kReference);
  const auto a = zoo::build(cfg);
  const auto b = zoo::build(cfg);
  Rng ra(5), rb(5);
  zoo::randomize(*a, ra);
  zoo::randomize(*b, rb);
  const auto* ca = dynamic_cast<const ConvLayer*>(&a->layer(0));
  const auto* cb = dynamic_cast<const ConvLayer*>(&b->layer(0));
  ASSERT_NE(ca, nullptr);
  EXPECT_EQ(ca->weights(), cb->weights());
}

}  // namespace
}  // namespace tincy::nn
