#include "src/accel/accel_opcodes.h"
#include "src/services/dma_service.h"

namespace apiary {

int TestDispatch() { return kOpOrchStats + kOpDmaCopy + kOpEcho; }

}  // namespace apiary
