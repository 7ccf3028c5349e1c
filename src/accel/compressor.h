// Compression accelerator: the "third-party accelerator" of the paper's
// Section 2 pipeline ("the encoding accelerator could be composed with a
// compression accelerator to produce a compressed, encoded video stream").
//
// Implements a real LZ77-family compressor (hash-chain match finder,
// length/distance tokens, literal runs) with a matching decompressor, plus a
// byte-rate compute model so pipeline experiments see realistic occupancy.
#ifndef SRC_ACCEL_COMPRESSOR_H_
#define SRC_ACCEL_COMPRESSOR_H_

#include <cstdint>
#include <vector>

#include "src/accel/accel_opcodes.h"
#include "src/accel/serial_engine.h"
#include "src/core/accelerator.h"
#include "src/stats/summary.h"

namespace apiary {

// --- Pure codec functions (unit-testable). ---
// Primary flat-buffer forms, plus thin overloads so both vector-holding
// tests and PayloadBuf-carrying message handlers call them directly.
std::vector<uint8_t> LzCompress(const uint8_t* input, size_t size);
std::vector<uint8_t> LzDecompress(const uint8_t* compressed, size_t size);
inline std::vector<uint8_t> LzCompress(const std::vector<uint8_t>& input) {
  return LzCompress(input.data(), input.size());
}
inline std::vector<uint8_t> LzDecompress(const std::vector<uint8_t>& compressed) {
  return LzDecompress(compressed.data(), compressed.size());
}
inline std::vector<uint8_t> LzCompress(const PayloadBuf& input) {
  return LzCompress(input.data(), input.size());
}
inline std::vector<uint8_t> LzDecompress(const PayloadBuf& compressed) {
  return LzDecompress(compressed.data(), compressed.size());
}

class CompressorAccelerator : public Accelerator {
 public:
  // `bytes_per_cycle` models the match-finder throughput (4 B/cycle is a
  // typical FPGA LZ engine datapath).
  explicit CompressorAccelerator(uint32_t bytes_per_cycle = 4)
      : bytes_per_cycle_(bytes_per_cycle) {}

  // Pipeline composition: forward compressed output instead of replying.
  void SetNextStage(CapRef endpoint, uint16_t opcode) {
    next_stage_ = endpoint;
    next_opcode_ = opcode;
  }

  void OnMessage(const Message& msg, TileApi& api) override;
  void Tick(TileApi& api) override { engine_.Drain(api); }
  // APIARY-WAKE(tile): hosted accelerator — the owning Tile's NI sink wake
  // ends the park on message delivery.
  [[nodiscard]] Cycle NextActivity(Cycle now) const override { return engine_.NextActivity(now); }

  std::string name() const override { return "compressor"; }
  uint32_t LogicCellCost() const override { return 30000; }

  uint64_t chunks_compressed() const { return engine_.done(); }
  uint64_t bytes_in() const { return bytes_in_; }
  uint64_t bytes_out() const { return bytes_out_; }
  // "compressor.chunks_in", "compressor.chunks_out" and
  // "compressor.output_failures"; only nonzero counters appear.
  CounterSet counters() const;

 private:
  uint32_t bytes_per_cycle_;
  CapRef next_stage_ = kInvalidCapRef;
  uint16_t next_opcode_ = 0;
  SerialEngine engine_;
  uint64_t bytes_in_ = 0;
  uint64_t bytes_out_ = 0;
};

}  // namespace apiary

#endif  // SRC_ACCEL_COMPRESSOR_H_
