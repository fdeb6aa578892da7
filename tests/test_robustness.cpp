// Failure-injection tests: malformed and truncated on-disk artifacts and
// API misuse must fail loudly with tincy::Error, never silently corrupt.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "core/rng.hpp"
#include "fabric/binparam.hpp"
#include "nn/builder.hpp"
#include "nn/weights_io.hpp"
#include "nn/zoo.hpp"
#include "offload/import.hpp"
#include "video/ppm.hpp"

namespace tincy {
namespace {

namespace fs = std::filesystem;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "tincy_robustness").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<nn::Network> quant_subnet() {
    auto net = nn::build_network_from_string(
        "[net]\nwidth=8\nheight=8\nchannels=2\n"
        "[convolutional]\nbatch_normalize=1\nfilters=4\nsize=3\nstride=1\n"
        "pad=1\nactivation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n"
        "in_scale=0.25\nout_scale=0.25\n");
    Rng rng(1);
    nn::zoo::randomize(*net, rng);
    return net;
  }

  std::string dir_;
};

TEST_F(RobustnessTest, TruncatedWeightFileThrows) {
  const auto net = quant_subnet();
  const std::string path = dir_ + "/weights.bin";
  nn::save_weights(*net, path);

  // Chop the file short of the payload.
  const auto full = fs::file_size(path);
  fs::resize_file(path, full / 2);
  const auto fresh = nn::build_network_from_string(
      "[net]\nwidth=8\nheight=8\nchannels=2\n"
      "[convolutional]\nbatch_normalize=1\nfilters=4\nsize=3\nstride=1\n"
      "pad=1\nactivation=relu\nbinary=1\nabits=3\nkernel=quant_reference\n");
  EXPECT_THROW(nn::load_weights(*fresh, path), Error);
}

TEST_F(RobustnessTest, WeightFileForDifferentTopologyThrows) {
  // A smaller network's weight file is shorter than the bigger topology
  // expects; loading must fail on the short read, not wrap around.
  const auto small = quant_subnet();
  const std::string path = dir_ + "/small.bin";
  nn::save_weights(*small, path);

  const auto big = nn::build_network_from_string(
      "[net]\nwidth=8\nheight=8\nchannels=2\n"
      "[convolutional]\nbatch_normalize=1\nfilters=64\nsize=3\nstride=1\n"
      "pad=1\nactivation=relu\n");
  EXPECT_THROW(nn::load_weights(*big, path), Error);
}

TEST_F(RobustnessTest, TruncatedBinparamWeightsThrow) {
  const auto net = quant_subnet();
  offload::export_binparams(*net, dir_);
  const std::string wfile = dir_ + "/layer00.weights.bin";
  ASSERT_TRUE(fs::exists(wfile));
  fs::resize_file(wfile, fs::file_size(wfile) / 2);
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

TEST_F(RobustnessTest, TruncatedBinparamThresholdsThrow) {
  const auto net = quant_subnet();
  offload::export_binparams(*net, dir_);
  const std::string tfile = dir_ + "/layer00.thresh.bin";
  ASSERT_TRUE(fs::exists(tfile));
  fs::resize_file(tfile, 3);
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

TEST_F(RobustnessTest, GarbageBinparamWeightsHeaderThrows) {
  const auto net = quant_subnet();
  offload::export_binparams(*net, dir_);
  std::ofstream out(dir_ + "/layer00.weights.bin",
                    std::ios::binary | std::ios::trunc);
  const int64_t bogus[2] = {-5, 0};  // negative rows, zero cols
  out.write(reinterpret_cast<const char*>(bogus), sizeof bogus);
  out.close();
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

/// Sets `key` in the meta of stage 0 of the binparam directory `dir`.
void set_meta(const std::string& dir, const std::string& key,
              const std::string& value) {
  const std::string meta = dir + "/layer00.meta";
  std::ifstream in(meta);
  std::string text, line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) {
      line = key + "=" + value;
      found = true;
    }
    text += line + "\n";
  }
  in.close();
  ASSERT_TRUE(found) << key;
  std::ofstream(meta, std::ios::trunc) << text;
}

/// Exports a one-stage binparam directory and sets `key` in its meta.
void export_with_meta(const nn::Network& net, const std::string& dir,
                      const std::string& key, const std::string& value) {
  offload::export_binparams(net, dir);
  set_meta(dir, key, value);
}

TEST_F(RobustnessTest, NonNumericBinparamMetaIsAnError) {
  // std::stoll used to throw std::invalid_argument here, which escapes
  // every catch (const Error&).
  const auto net = quant_subnet();
  for (const auto& [key, value] :
       {std::pair{"in_channels", "abc"}, {"stride", "2x"}, {"filters", ""},
        {"in_scale", "nan"}, {"out_scale", "1e99"},
        {"in_height", "99999999999999999999999"}}) {
    export_with_meta(*net, dir_, key, value);
    EXPECT_THROW(fabric::load_binparams(dir_), Error) << key << "=" << value;
  }
}

TEST_F(RobustnessTest, InvalidBinparamGeometryIsAnError) {
  // stride=0 used to raise SIGFPE in QnnAccelerator::add_layer; every
  // other value here is rejected before any geometry math too.
  const auto net = quant_subnet();
  for (const auto& [key, value] :
       {std::pair{"stride", "0"}, {"stride", "-1"}, {"kernel", "0"},
        {"in_height", "0"}, {"in_width", "-8"}, {"in_channels", "0"},
        {"filters", "0"}, {"pad", "-1"}, {"act_bits_in", "0"},
        {"act_bits_out", "9"}}) {
    export_with_meta(*net, dir_, key, value);
    EXPECT_THROW(fabric::load_accelerator(dir_), Error) << key << "=" << value;
  }
  export_with_meta(*net, dir_, "pool_after", "1");
  set_meta(dir_, "pool_stride", "0");
  EXPECT_THROW(fabric::load_accelerator(dir_), Error);
}

TEST_F(RobustnessTest, AddLayerRejectsZeroStrideSpec) {
  fabric::QnnLayerSpec spec;
  spec.in_channels = 2;
  spec.in_height = spec.in_width = 8;
  spec.filters = 4;
  spec.stride = 0;
  quant::BinaryMatrix w;
  w.rows = 4;
  w.cols = 18;
  fabric::QnnAccelerator acc;
  EXPECT_THROW(acc.add_layer(spec, w, {}), Error);
}

TEST_F(RobustnessTest, HugeBinparamWeightsHeaderIsAnError) {
  // rows = cols = 2^40 used to end in std::bad_alloc: the header is now
  // bounded by the bytes left in the file.
  const auto net = quant_subnet();
  offload::export_binparams(*net, dir_);
  std::ofstream out(dir_ + "/layer00.weights.bin",
                    std::ios::binary | std::ios::trunc);
  const int64_t huge[2] = {int64_t{1} << 40, int64_t{1} << 40};
  out.write(reinterpret_cast<const char*>(huge), sizeof huge);
  out.write("payload", 7);
  out.close();
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

TEST_F(RobustnessTest, HugeBinparamThresholdCountIsAnError) {
  // A count of INT32_MAX used to resize a channel to 8 GiB before the
  // short read was noticed.
  const auto net = quant_subnet();
  offload::export_binparams(*net, dir_);
  std::ofstream out(dir_ + "/layer00.thresh.bin",
                    std::ios::binary | std::ios::trunc);
  const int32_t header[2] = {1, std::numeric_limits<int32_t>::max()};
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  const int32_t some[4] = {1, 2, 3, 4};
  out.write(reinterpret_cast<const char*>(some), sizeof some);
  out.close();
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

TEST_F(RobustnessTest, MissingMetaMeansNoLayers) {
  // An empty directory yields a clean error, not a zero-layer accelerator.
  EXPECT_THROW(fabric::load_binparams(dir_), Error);
}

TEST_F(RobustnessTest, ExportRejectsFloatLayers) {
  const auto net = nn::build_network_from_string(
      "[net]\nwidth=8\nheight=8\nchannels=2\n"
      "[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\n"
      "activation=relu\n");  // float layer: not offloadable
  EXPECT_THROW(offload::export_binparams(*net, dir_), Error);
}

TEST_F(RobustnessTest, OffloadSectionMissingGeometryThrows) {
  EXPECT_THROW(nn::build_network_from_string(
                   "[net]\nwidth=8\nheight=8\nchannels=2\n"
                   "[offload]\nlibrary=cpu_qnn.so\nnetwork=x\n"),
               Error);
}

TEST_F(RobustnessTest, CorruptPpmRejected) {
  // Wrong magic (ASCII P3 instead of binary P6).
  const std::string ascii_path = dir_ + "/ascii.ppm";
  std::ofstream(ascii_path) << "P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n";
  EXPECT_THROW(video::read_ppm(ascii_path), Error);

  // Correct header, truncated pixel payload.
  const std::string short_path = dir_ + "/short.ppm";
  std::ofstream(short_path, std::ios::binary) << "P6\n4 4\n255\nxy";
  EXPECT_THROW(video::read_ppm(short_path), Error);

  EXPECT_THROW(video::read_ppm(dir_ + "/missing.ppm"), Error);
}

}  // namespace
}  // namespace tincy
