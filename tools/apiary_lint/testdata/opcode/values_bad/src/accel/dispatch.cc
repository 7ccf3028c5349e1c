#include "src/accel/accel_opcodes.h"

namespace apiary {

int Dispatch(int opcode) {
  switch (opcode) {
    case kOpOrchStats:
      return 1;
    case kOpEcho:
      return 3;
    default:
      return 0;
  }
}

}  // namespace apiary
