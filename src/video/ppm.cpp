#include "video/ppm.hpp"

#include <algorithm>
#include <fstream>

#include "core/errors.hpp"

namespace tincy::video {

void write_ppm(const std::string& path, const Tensor& image) {
  TINCY_CHECK(image.shape().rank() == 3 && image.shape().channels() == 3);
  const int64_t H = image.shape().height(), W = image.shape().width();
  std::ofstream out(path, std::ios::binary);
  TINCY_CHECK_MSG(out.is_open(), "cannot open " << path);
  out << "P6\n" << W << ' ' << H << "\n255\n";
  std::vector<unsigned char> row(static_cast<size_t>(W) * 3);
  for (int64_t y = 0; y < H; ++y) {
    for (int64_t x = 0; x < W; ++x)
      for (int c = 0; c < 3; ++c)
        row[static_cast<size_t>(x * 3 + c)] = static_cast<unsigned char>(
            std::clamp(image.at(c, y, x), 0.0f, 1.0f) * 255.0f + 0.5f);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
  TINCY_CHECK_MSG(static_cast<bool>(out), "short write to " << path);
}

Tensor read_ppm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TINCY_CHECK_MSG(in.is_open(), "cannot open " << path);
  std::string magic;
  int64_t w = 0, h = 0, maxval = 0;
  in >> magic >> w >> h >> maxval;
  TINCY_CHECK_MSG(in && magic == "P6" && w > 0 && h > 0 && maxval == 255,
                  "unsupported PPM header in " << path);
  in.get();  // single whitespace after maxval
  TINCY_CHECK_MSG(static_cast<bool>(in), "truncated PPM " << path);
  // Bound the dimensions by the bytes the file holds before allocating:
  // a forged header must not turn into a huge allocation.
  const std::streamoff pixels_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - pixels_at;
  in.seekg(pixels_at);
  TINCY_CHECK_MSG(w <= left / 3 && h <= left / (3 * w),
                  "truncated PPM " << path << ": " << w << "x" << h
                                   << " pixels need more than the " << left
                                   << " bytes left");
  Tensor image(Shape{3, h, w});
  std::vector<unsigned char> row(static_cast<size_t>(w) * 3);
  for (int64_t y = 0; y < h; ++y) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
    TINCY_CHECK_MSG(static_cast<bool>(in), "truncated PPM " << path);
    float* red = image.data() + y * w;
    float* green = red + h * w;
    float* blue = green + h * w;
    for (int64_t x = 0; x < w; ++x) {
      const unsigned char* px = row.data() + 3 * x;
      red[x] = static_cast<float>(px[0]) / 255.0f;
      green[x] = static_cast<float>(px[1]) / 255.0f;
      blue[x] = static_cast<float>(px[2]) / 255.0f;
    }
  }
  return image;
}

}  // namespace tincy::video
