#include "src/accel/accel_opcodes.h"

namespace apiary {

// Not an opcode: kOp must be followed by an uppercase letter.
constexpr bool kOptimized = true;

int Dispatch(int opcode) {
  switch (opcode) {
    case kOpOrchStats:
      return 1;
    case kOpDmaCopy:
      return 2;
    case kOpEcho:
      return kOptimized ? 3 : 0;
    default:
      return 0;
  }
}

}  // namespace apiary
