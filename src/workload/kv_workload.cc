#include "src/workload/kv_workload.h"

#include "src/accel/accel_opcodes.h"
#include "src/core/message.h"

namespace apiary {

PayloadBuf MakeKvGetPayload(const std::string& key) {
  PayloadBuf payload;
  PutU32(payload, static_cast<uint32_t>(key.size()));
  payload.insert(payload.end(), key.begin(), key.end());
  return payload;
}

PayloadBuf MakeKvPutPayload(const std::string& key,
                                      const std::vector<uint8_t>& value) {
  PayloadBuf payload = MakeKvGetPayload(key);
  payload.insert(payload.end(), value.begin(), value.end());
  return payload;
}

std::string KvKeyForIndex(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(index));
  return buf;
}

std::vector<uint8_t> KvValueForIndex(uint64_t index, uint32_t value_bytes) {
  std::vector<uint8_t> value(value_bytes);
  Rng rng(index * 2654435761u + 17);
  for (auto& b : value) {
    b = static_cast<uint8_t>(rng.NextBelow(256));
  }
  return value;
}

ClientHost::RequestFactory MakeKvRequestFactory(KvWorkloadConfig config) {
  return [config](uint64_t index, Rng& rng) -> ClientRequest {
    (void)index;
    const uint64_t key_index = rng.NextZipf(config.keyspace, kKvZipfTheta);
    const std::string key = KvKeyForIndex(key_index);
    ClientRequest req;
    if (rng.NextBool(config.read_fraction)) {
      req.opcode = kOpKvGet;
      req.payload = MakeKvGetPayload(key);
    } else {
      req.opcode = kOpKvPut;
      req.payload = MakeKvPutPayload(key, KvValueForIndex(key_index, kKvValueBytes));
    }
    return req;
  };
}

}  // namespace apiary
