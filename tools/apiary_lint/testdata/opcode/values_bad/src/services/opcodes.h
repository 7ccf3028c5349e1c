// Bad: the DMA service defines its own opcode, reusing kOpOrchStats's value.
#ifndef SRC_SERVICES_OPCODES_H_
#define SRC_SERVICES_OPCODES_H_

#include <cstdint>

namespace apiary {

inline constexpr uint16_t kOpOrchStats = 0x0601;

inline constexpr uint16_t kOpAppBase = 0x1000;

}  // namespace apiary

#endif  // SRC_SERVICES_OPCODES_H_
