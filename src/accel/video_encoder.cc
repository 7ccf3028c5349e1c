#include "src/accel/video_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/core/message.h"

namespace apiary {
namespace {

// JPEG Annex K luminance quantization table.
constexpr int kBaseQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

// Zigzag scan order for an 8x8 block.
constexpr int kZigzag[64] = {0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
                             12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
                             35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
                             58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

void ScaledQuantTable(uint32_t quality, int out[64]) {
  // Standard JPEG quality scaling.
  if (quality < 1) {
    quality = 1;
  }
  if (quality > 100) {
    quality = 100;
  }
  const int scale = quality < 50 ? 5000 / static_cast<int>(quality)
                                 : 200 - 2 * static_cast<int>(quality);
  for (int i = 0; i < 64; ++i) {
    int q = (kBaseQuant[i] * scale + 50) / 100;
    if (q < 1) {
      q = 1;
    }
    if (q > 255) {
      q = 255;
    }
    out[i] = q;
  }
}

void ForwardDct8x8(const double in[64], double out[64]) {
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double sum = 0;
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          sum += in[x * 8 + y] * std::cos((2 * x + 1) * u * M_PI / 16.0) *
                 std::cos((2 * y + 1) * v * M_PI / 16.0);
        }
      }
      const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      const double cv = v == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
      out[u * 8 + v] = 0.25 * cu * cv * sum;
    }
  }
}

void InverseDct8x8(const double in[64], double out[64]) {
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double sum = 0;
      for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
          const double cu = u == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
          const double cv = v == 0 ? 1.0 / std::sqrt(2.0) : 1.0;
          sum += cu * cv * in[u * 8 + v] * std::cos((2 * x + 1) * u * M_PI / 16.0) *
                 std::cos((2 * y + 1) * v * M_PI / 16.0);
        }
      }
      out[x * 8 + y] = 0.25 * sum;
    }
  }
}

void PutI16(std::vector<uint8_t>& buf, int16_t v) {
  const uint16_t u = static_cast<uint16_t>(v);
  buf.push_back(static_cast<uint8_t>(u));
  buf.push_back(static_cast<uint8_t>(u >> 8));
}

int16_t GetI16(const std::vector<uint8_t>& buf, size_t off) {
  return static_cast<int16_t>(static_cast<uint16_t>(buf[off]) |
                              (static_cast<uint16_t>(buf[off + 1]) << 8));
}

constexpr uint8_t kEobRun = 0xff;

}  // namespace

std::vector<uint8_t> EncodeFrame(const uint8_t* pixels, uint32_t width, uint32_t height,
                                 uint32_t quality) {
  std::vector<uint8_t> out;
  out.push_back('A');
  out.push_back('V');
  PutU32(out, width);
  PutU32(out, height);
  PutU32(out, quality);

  int quant[64];
  ScaledQuantTable(quality, quant);

  const uint32_t blocks_x = (width + 7) / 8;
  const uint32_t blocks_y = (height + 7) / 8;
  for (uint32_t by = 0; by < blocks_y; ++by) {
    for (uint32_t bx = 0; bx < blocks_x; ++bx) {
      // Gather the block (edge blocks replicate the last row/column).
      double block[64];
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          uint32_t px = bx * 8 + static_cast<uint32_t>(y);
          uint32_t py = by * 8 + static_cast<uint32_t>(x);
          if (px >= width) {
            px = width - 1;
          }
          if (py >= height) {
            py = height - 1;
          }
          block[x * 8 + y] = static_cast<double>(pixels[py * width + px]) - 128.0;
        }
      }
      double coeffs[64];
      ForwardDct8x8(block, coeffs);
      int16_t quantized[64];
      for (int i = 0; i < 64; ++i) {
        quantized[i] = static_cast<int16_t>(std::lround(coeffs[i] / quant[i]));
      }
      // Zigzag + RLE: (zero-run, value) pairs, EOB when the rest is zero.
      int run = 0;
      for (int i = 0; i < 64; ++i) {
        const int16_t v = quantized[kZigzag[i]];
        if (v == 0) {
          ++run;
          continue;
        }
        while (run > 254) {
          out.push_back(254);
          PutI16(out, 0);
          run -= 254;
        }
        out.push_back(static_cast<uint8_t>(run));
        PutI16(out, v);
        run = 0;
      }
      out.push_back(kEobRun);
      PutI16(out, 0);
    }
  }
  return out;
}

std::vector<uint8_t> DecodeFrame(const std::vector<uint8_t>& bitstream, uint32_t* width_out,
                                 uint32_t* height_out) {
  if (bitstream.size() < 14 || bitstream[0] != 'A' || bitstream[1] != 'V') {
    return {};
  }
  const uint32_t width = GetU32(bitstream, 2);
  const uint32_t height = GetU32(bitstream, 6);
  const uint32_t quality = GetU32(bitstream, 10);
  if (width == 0 || height == 0) {
    return {};
  }
  if (width_out != nullptr) {
    *width_out = width;
  }
  if (height_out != nullptr) {
    *height_out = height;
  }
  int quant[64];
  ScaledQuantTable(quality, quant);

  std::vector<uint8_t> pixels(static_cast<size_t>(width) * height, 0);
  const uint32_t blocks_x = (width + 7) / 8;
  const uint32_t blocks_y = (height + 7) / 8;
  size_t off = 14;
  for (uint32_t by = 0; by < blocks_y; ++by) {
    for (uint32_t bx = 0; bx < blocks_x; ++bx) {
      int16_t quantized[64] = {0};
      int i = 0;
      while (off + 3 <= bitstream.size()) {
        const uint8_t run = bitstream[off];
        const int16_t value = GetI16(bitstream, off + 1);
        off += 3;
        if (run == kEobRun) {
          break;
        }
        i += run;
        if (value != 0) {
          if (i >= 64) {
            return {};
          }
          quantized[kZigzag[i]] = value;
          ++i;
        }
      }
      double coeffs[64];
      for (int k = 0; k < 64; ++k) {
        coeffs[k] = static_cast<double>(quantized[k]) * quant[k];
      }
      double block[64];
      InverseDct8x8(coeffs, block);
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          const uint32_t px = bx * 8 + static_cast<uint32_t>(y);
          const uint32_t py = by * 8 + static_cast<uint32_t>(x);
          if (px >= width || py >= height) {
            continue;
          }
          double v = block[x * 8 + y] + 128.0;
          if (v < 0) {
            v = 0;
          }
          if (v > 255) {
            v = 255;
          }
          pixels[py * width + px] = static_cast<uint8_t>(std::lround(v));
        }
      }
    }
  }
  return pixels;
}

void VideoEncoderAccelerator::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  const uint32_t width = msg.payload.size() < 8 ? 0 : GetU32(msg.payload, 0);
  const uint32_t height = msg.payload.size() < 8 ? 0 : GetU32(msg.payload, 4);
  if (msg.opcode != kOpEncodeFrame || width == 0 || height == 0 ||
      msg.payload.size() < 8 + static_cast<size_t>(width) * height) {
    api.ReplyStatus(msg, MsgStatus::kBadRequest);
    return;
  }
  // Pipeline mode hands the bitstream to the next stage (Section 2's
  // encode -> compress composition) instead of replying.
  PayloadBuf out(EncodeFrame(msg.payload.data() + 8, width, height, quality_));
  const uint16_t opcode = next_stage_ != kInvalidCapRef ? next_opcode_ : kOpEncodeFrame;
  // Occupy the engine: back-to-back frames queue behind each other.
  const uint64_t blocks =
      static_cast<uint64_t>((width + 7) / 8) * ((height + 7) / 8);
  engine_.Submit(api.now(), blocks * cycles_per_block_, msg, opcode, std::move(out), next_stage_);
}

CounterSet VideoEncoderAccelerator::counters() const {
  CounterSet set;
  set.AddNonzero("encoder.frames_in", engine_.submitted());
  set.AddNonzero("encoder.frames_out", engine_.done());
  set.AddNonzero("encoder.output_failures", engine_.dropped());
  return set;
}

}  // namespace apiary
