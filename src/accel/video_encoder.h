// Video-encoding accelerator: the paper's Section 2 motivating workload
// ("customizing a video encoding service to accelerate part of a video
// processing pipeline").
//
// The encoder implements a real intra-frame codec on 8x8 blocks: integer
// DCT-II, quantization, zigzag scan and run-length entropy packing (the
// M-JPEG family's core loop). Compute time is modeled per block so replica
// throughput and pipeline experiments behave like a real fixed-function
// engine. The encoder can optionally forward its output to a next pipeline
// stage (e.g. the compressor) instead of replying to the requester.
#ifndef SRC_ACCEL_VIDEO_ENCODER_H_
#define SRC_ACCEL_VIDEO_ENCODER_H_

#include <cstdint>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/accel/serial_engine.h"
#include "src/core/accelerator.h"
#include "src/stats/summary.h"

namespace apiary {

// --- Pure codec functions (unit-testable without a board). ---

// Encodes an 8-bit grayscale frame; returns the bitstream.
std::vector<uint8_t> EncodeFrame(const uint8_t* pixels, uint32_t width, uint32_t height,
                                 uint32_t quality = 50);

// Inverse transform for round-trip testing; returns pixels (width*height).
std::vector<uint8_t> DecodeFrame(const std::vector<uint8_t>& bitstream, uint32_t* width_out,
                                 uint32_t* height_out);
inline std::vector<uint8_t> DecodeFrame(const PayloadBuf& bitstream, uint32_t* width_out,
                                        uint32_t* height_out) {
  return DecodeFrame(bitstream.ToVector(), width_out, height_out);
}

class VideoEncoderAccelerator : public Accelerator {
 public:
  // `cycles_per_block` models the engine's per-8x8-block latency; a
  // pipelined DCT engine lands around 70-100 cycles per block.
  explicit VideoEncoderAccelerator(Cycle cycles_per_block = 80, uint32_t quality = 50)
      : cycles_per_block_(cycles_per_block), quality_(quality) {}

  // Pipeline composition: forward encoded output to this endpoint (with the
  // given opcode) instead of replying. Set during application wiring.
  void SetNextStage(CapRef endpoint, uint16_t opcode) {
    next_stage_ = endpoint;
    next_opcode_ = opcode;
  }

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override { engine_.Drain(api); }
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return engine_.NextActivity(now); }

  std::string name() const override { return "video_encoder"; }
  uint32_t LogicCellCost() const override { return 45000; }

  uint64_t frames_encoded() const { return engine_.done(); }
  // "encoder.frames_in", "encoder.frames_out" and
  // "encoder.output_failures"; only nonzero counters appear.
  CounterSet counters() const;

 private:
  Cycle cycles_per_block_;
  uint32_t quality_;
  CapRef next_stage_ = kInvalidCapRef;
  uint16_t next_opcode_ = 0;
  SerialEngine engine_;
};

}  // namespace apiary

#endif  // SRC_ACCEL_VIDEO_ENCODER_H_
