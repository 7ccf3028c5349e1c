#ifndef SRC_ACCEL_ACCEL_OPCODES_H_
#define SRC_ACCEL_ACCEL_OPCODES_H_

#include "src/services/opcodes.h"

namespace apiary {

inline constexpr uint16_t kOpEcho = kOpAppBase + 1;  // 0x1001

}  // namespace apiary

#endif  // SRC_ACCEL_ACCEL_OPCODES_H_
