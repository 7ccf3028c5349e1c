// Good: every wire opcode has its own value, in an ABI header.
#ifndef SRC_SERVICES_OPCODES_H_
#define SRC_SERVICES_OPCODES_H_

#include <cstdint>

namespace apiary {

inline constexpr uint16_t kOpOrchStats = 0x0601;
inline constexpr uint16_t kOpDmaCopy = 0x0801;

// Numbering-space marker: accel_opcodes.h counts up from it.
inline constexpr uint16_t kOpAppBase = 0x1000;

}  // namespace apiary

#endif  // SRC_SERVICES_OPCODES_H_
