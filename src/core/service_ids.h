// Well-known logical service names.
//
// Section 4.3: "Apiary addresses API-level challenges by defining a standard
// interface to higher-level system services that is the same on every tile
// across FPGAs." The logical id is the API-layer destination; the per-tile
// monitor maps it to a physical tile.
#ifndef SRC_CORE_SERVICE_IDS_H_
#define SRC_CORE_SERVICE_IDS_H_

#include "src/sim/types.h"

namespace apiary {

inline constexpr ServiceId kMemoryService = 1;
inline constexpr ServiceId kNetworkService = 2;
// Ids 3 and 6 are retired; the others keep their values.
inline constexpr ServiceId kMgmtService = 4;
inline constexpr ServiceId kDmaService = 5;
inline constexpr ServiceId kTenantService = 7;

// Application endpoints are assigned logical ids starting here.
inline constexpr ServiceId kFirstAppService = 100;

}  // namespace apiary

#endif  // SRC_CORE_SERVICE_IDS_H_
