#include "fabric/binparam.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/errors.hpp"

namespace tincy::fabric {
namespace fs = std::filesystem;
namespace {

std::string layer_base(const std::string& dir, int64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "layer%02d", static_cast<int>(index));
  return (fs::path(dir) / buf).string();
}

void write_meta(const std::string& path, const QnnLayerSpec& s) {
  std::ofstream out(path);
  TINCY_CHECK_MSG(out.is_open(), "cannot open " << path);
  out << "in_channels=" << s.in_channels << "\nin_height=" << s.in_height
      << "\nin_width=" << s.in_width << "\nfilters=" << s.filters
      << "\nkernel=" << s.kernel << "\nstride=" << s.stride
      << "\npad=" << s.pad << "\nact_bits_in=" << s.act_bits_in
      << "\nact_bits_out=" << s.act_bits_out << "\nin_scale=" << s.in_scale
      << "\nout_scale=" << s.out_scale
      << "\nbipolar=" << (s.bipolar ? 1 : 0)
      << "\npool_after=" << (s.pool_after ? 1 : 0)
      << "\npool_size=" << s.pool_size << "\npool_stride=" << s.pool_stride
      << "\n";
}

/// `value` parsed as one whole int64: no blanks, no trailing bytes.
int64_t parse_int(const std::string& value, const std::string& key,
                  const std::string& path) {
  int64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  TINCY_CHECK_MSG(ec == std::errc() && ptr == end,
                  "bad integer " << key << "=" << value << " in " << path);
  return v;
}

/// `value` as a whole finite float.
float parse_float(const std::string& value, const std::string& key,
                  const std::string& path) {
  float v = 0.0f;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  TINCY_CHECK_MSG(ec == std::errc() && ptr == end && std::isfinite(v),
                  "bad number " << key << "=" << value << " in " << path);
  return v;
}

int parse_bits(const std::string& value, const std::string& key,
               const std::string& path) {
  const int64_t bits = parse_int(value, key, path);
  TINCY_CHECK_MSG(bits >= 1 && bits <= 8,
                  key << "=" << bits << " is not 1..8 in " << path);
  return static_cast<int>(bits);
}

QnnLayerSpec read_meta(const std::string& path) {
  std::ifstream in(path);
  TINCY_CHECK_MSG(in.is_open(), "cannot open " << path);
  QnnLayerSpec s;
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    const auto iv = [&] { return parse_int(value, key, path); };
    if (key == "in_channels") s.in_channels = iv();
    else if (key == "in_height") s.in_height = iv();
    else if (key == "in_width") s.in_width = iv();
    else if (key == "filters") s.filters = iv();
    else if (key == "kernel") s.kernel = iv();
    else if (key == "stride") s.stride = iv();
    else if (key == "pad") s.pad = iv();
    else if (key == "act_bits_in") s.act_bits_in = parse_bits(value, key, path);
    else if (key == "act_bits_out") s.act_bits_out = parse_bits(value, key, path);
    else if (key == "in_scale") s.in_scale = parse_float(value, key, path);
    else if (key == "out_scale") s.out_scale = parse_float(value, key, path);
    else if (key == "bipolar") s.bipolar = iv() != 0;
    else if (key == "pool_after") s.pool_after = iv() != 0;
    else if (key == "pool_size") s.pool_size = iv();
    else if (key == "pool_stride") s.pool_stride = iv();
  }
  s.validate();
  return s;
}

/// Bytes from the read position of `f` to its end.
int64_t bytes_left(std::ifstream& f) {
  const std::streampos here = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streampos end = f.tellg();
  f.seekg(here);
  TINCY_CHECK_MSG(here >= 0 && end >= here, "unreadable binparam file");
  return static_cast<int64_t>(end - here);
}

}  // namespace

void save_binparams(const std::string& dir,
                    const std::vector<BinparamLayer>& layers) {
  fs::create_directories(dir);
  for (size_t i = 0; i < layers.size(); ++i) {
    const auto& l = layers[i];
    const std::string base = layer_base(dir, static_cast<int64_t>(i));
    write_meta(base + ".meta", l.spec);

    // Bit-packed weights: rows × words(cols) little-endian 64-bit words.
    std::ofstream wf(base + ".weights.bin", std::ios::binary);
    TINCY_CHECK_MSG(wf.is_open(), "cannot open " << base << ".weights.bin");
    const int64_t rows = l.weights.rows, cols = l.weights.cols;
    wf.write(reinterpret_cast<const char*>(&rows), sizeof rows);
    wf.write(reinterpret_cast<const char*>(&cols), sizeof cols);
    for (const auto& bits : l.weights.row_bits) {
      const auto& words = bits.words();
      wf.write(reinterpret_cast<const char*>(words.data()),
               static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
    }
    wf.write(reinterpret_cast<const char*>(l.weights.row_scale.data()),
             static_cast<std::streamsize>(l.weights.row_scale.size() *
                                          sizeof(float)));

    std::ofstream tf(base + ".thresh.bin", std::ios::binary);
    TINCY_CHECK_MSG(tf.is_open(), "cannot open " << base << ".thresh.bin");
    for (const auto& ch : l.thresholds) {
      const int32_t ascending = ch.ascending ? 1 : 0;
      const int32_t count = static_cast<int32_t>(ch.thresholds.size());
      tf.write(reinterpret_cast<const char*>(&ascending), sizeof ascending);
      tf.write(reinterpret_cast<const char*>(&count), sizeof count);
      tf.write(reinterpret_cast<const char*>(ch.thresholds.data()),
               static_cast<std::streamsize>(ch.thresholds.size() *
                                            sizeof(int32_t)));
    }
  }
}

std::vector<BinparamLayer> load_binparams(const std::string& dir) {
  std::vector<BinparamLayer> layers;
  for (int64_t i = 0;; ++i) {
    const std::string base = layer_base(dir, i);
    if (!fs::exists(base + ".meta")) break;
    BinparamLayer l;
    l.spec = read_meta(base + ".meta");

    std::ifstream wf(base + ".weights.bin", std::ios::binary);
    TINCY_CHECK_MSG(wf.is_open(), "missing " << base << ".weights.bin");
    int64_t rows = 0, cols = 0;
    wf.read(reinterpret_cast<char*>(&rows), sizeof rows);
    wf.read(reinterpret_cast<char*>(&cols), sizeof cols);
    TINCY_CHECK_MSG(wf && rows > 0 && cols > 0,
                    "corrupt weights header in " << base);
    // Each row is its bit words plus one float scale; the file must hold
    // them all before anything is allocated.
    const int64_t words_per_row = cols / 64 + (cols % 64 != 0);
    const int64_t row_bytes =
        words_per_row * static_cast<int64_t>(sizeof(uint64_t)) +
        static_cast<int64_t>(sizeof(float));
    TINCY_CHECK_MSG(rows <= bytes_left(wf) / row_bytes,
                    "weights header " << rows << "x" << cols
                                      << " exceeds the file in " << base);
    l.weights.rows = rows;
    l.weights.cols = cols;
    for (int64_t r = 0; r < rows; ++r) {
      BitVector bits(cols);
      std::vector<uint64_t> words(static_cast<size_t>(words_per_row));
      wf.read(reinterpret_cast<char*>(words.data()),
              static_cast<std::streamsize>(words.size() * sizeof(uint64_t)));
      TINCY_CHECK_MSG(static_cast<bool>(wf), "truncated weights in " << base);
      for (int64_t c = 0; c < cols; ++c)
        bits.set(c, (words[static_cast<size_t>(c >> 6)] >> (c & 63)) & 1);
      l.weights.row_bits.push_back(std::move(bits));
    }
    l.weights.row_scale.resize(static_cast<size_t>(rows));
    wf.read(reinterpret_cast<char*>(l.weights.row_scale.data()),
            static_cast<std::streamsize>(l.weights.row_scale.size() *
                                         sizeof(float)));
    TINCY_CHECK_MSG(static_cast<bool>(wf), "truncated row scales in " << base);

    std::ifstream tf(base + ".thresh.bin", std::ios::binary);
    TINCY_CHECK_MSG(tf.is_open(), "missing " << base << ".thresh.bin");
    for (int64_t r = 0; r < rows; ++r) {
      ThresholdChannel ch;
      int32_t ascending = 1, count = 0;
      tf.read(reinterpret_cast<char*>(&ascending), sizeof ascending);
      tf.read(reinterpret_cast<char*>(&count), sizeof count);
      TINCY_CHECK_MSG(tf && count >= 0 &&
                          count <= bytes_left(tf) /
                                       static_cast<int64_t>(sizeof(int32_t)),
                      "corrupt thresholds in " << base);
      ch.ascending = ascending != 0;
      ch.thresholds.resize(static_cast<size_t>(count));
      tf.read(reinterpret_cast<char*>(ch.thresholds.data()),
              static_cast<std::streamsize>(ch.thresholds.size() *
                                           sizeof(int32_t)));
      TINCY_CHECK_MSG(static_cast<bool>(tf), "truncated thresholds in " << base);
      l.thresholds.push_back(std::move(ch));
    }
    layers.push_back(std::move(l));
  }
  TINCY_CHECK_MSG(!layers.empty(), "no binparam layers found in " << dir);
  return layers;
}

QnnAccelerator load_accelerator(const std::string& dir, CycleModel model,
                                Device device) {
  QnnAccelerator acc(model, device);
  for (const auto& l : load_binparams(dir))
    acc.add_layer(l.spec, l.weights, l.thresholds);
  return acc;
}

}  // namespace tincy::fabric
