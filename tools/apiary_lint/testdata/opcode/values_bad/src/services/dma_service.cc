#include "src/services/dma_service.h"

namespace apiary {

bool IsDmaCopy(int opcode) { return opcode == kOpDmaCopy; }

}  // namespace apiary
