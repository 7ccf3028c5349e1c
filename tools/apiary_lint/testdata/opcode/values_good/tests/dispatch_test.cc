#include "src/accel/accel_opcodes.h"

namespace apiary {

int TestDispatch() { return kOpOrchStats + kOpDmaCopy + kOpEcho; }

}  // namespace apiary
