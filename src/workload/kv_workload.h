// YCSB-style key-value workload generation — the substitute for production
// KV traces. Keys are Zipf-distributed over a fixed keyspace; the op mix is
// configurable (YCSB-B defaults: 95% reads, 5% updates).
#ifndef SRC_WORKLOAD_KV_WORKLOAD_H_
#define SRC_WORKLOAD_KV_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/payload_buf.h"

#include "src/sim/random.h"
#include "src/workload/client.h"

namespace apiary {

inline constexpr double kKvZipfTheta = 0.99;
inline constexpr uint32_t kKvValueBytes = 100;

struct KvWorkloadConfig {
  uint64_t keyspace = 1000;
  double read_fraction = 0.95;
};

// Builds the payload of a kOpKvGet/kOpKvPut request for `key`.
PayloadBuf MakeKvGetPayload(const std::string& key);
PayloadBuf MakeKvPutPayload(const std::string& key,
                                      const std::vector<uint8_t>& value);

// Canonical key/value derivation so independent components (loader, checker,
// client) agree on contents.
std::string KvKeyForIndex(uint64_t index);
std::vector<uint8_t> KvValueForIndex(uint64_t index, uint32_t value_bytes);

// Returns a ClientHost::RequestFactory producing the configured mix.
ClientHost::RequestFactory MakeKvRequestFactory(KvWorkloadConfig config);

}  // namespace apiary

#endif  // SRC_WORKLOAD_KV_WORKLOAD_H_
