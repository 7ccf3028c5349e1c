#ifndef SRC_SERVICES_DMA_SERVICE_H_
#define SRC_SERVICES_DMA_SERVICE_H_

#include "src/services/opcodes.h"

namespace apiary {

inline constexpr uint16_t kOpDmaCopy = 0x0601;

}  // namespace apiary

#endif  // SRC_SERVICES_DMA_SERVICE_H_
