// Wire opcodes for the standard Apiary services. Part of the stable,
// portable API-level interface (Section 4.3): identical on every board.
#ifndef SRC_SERVICES_OPCODES_H_
#define SRC_SERVICES_OPCODES_H_

#include <cstdint>

namespace apiary {

// --- Memory service ---
inline constexpr uint16_t kOpMemAlloc = 0x0101;   // req: u64 bytes, u32 rights
inline constexpr uint16_t kOpMemFree = 0x0102;    // req: u32 cap_ref
inline constexpr uint16_t kOpMemRead = 0x0103;    // req: u64 offset, u32 len (+grant)
inline constexpr uint16_t kOpMemWrite = 0x0104;   // req: u64 offset, data (+grant)
// Capability delegation (requires a grant-right capability): mints an
// attenuated capability over a sub-range for another tile.
// req: u64 offset, u64 len, u32 target_service, u32 rights (+grant)
// resp: u32 cap_ref minted in the target tile's table.
inline constexpr uint16_t kOpMemShare = 0x0105;

// --- Management service ---
inline constexpr uint16_t kOpMgmtHeartbeat = 0x0301;  // req: (empty)
inline constexpr uint16_t kOpMgmtReport = 0x0302;     // req: event string
inline constexpr uint16_t kOpMgmtWatch = 0x0303;      // req: u64 deadline_cycles
inline constexpr uint16_t kOpMgmtQuery = 0x0304;      // resp: counters

// --- Network service ---
inline constexpr uint16_t kOpNetSend = 0x0401;     // req: u32 dst_endpoint, data
inline constexpr uint16_t kOpNetDeliver = 0x0402;  // to app: u32 src_endpoint, data
inline constexpr uint16_t kOpNetRegister = 0x0403; // req: app wants inbound traffic

// --- Load balancer ---
inline constexpr uint16_t kOpLbConfig = 0x0501;    // kernel-side: backend list

// --- Orchestration (elastic replica sets, src/orch) ---
// Load-balancer metric export. resp: u32 backends, u64 in_flight,
// u64 responses, u64 p50_cycles, u64 p99_cycles.
inline constexpr uint16_t kOpOrchStats = 0x0601;

// --- Tenant accounting (src/tenant) ---
// Per-tenant metering export. req: u32 tenant_id; resp: u32 tenant_id,
// u32 tiles, u64 tile_cycles, u64 flits_sent, u64 messages_sent,
// u64 quota_denials, u32 records, u32 records_digest (FNV-1a over the
// deterministic billing-record text).
inline constexpr uint16_t kOpTenantStats = 0x0701;

// --- DMA service ---
// req: u64 src_offset, u64 dst_offset, u32 len; grant = source segment
// (read), grant2 = destination segment (write). resp: u32 bytes_copied.
inline constexpr uint16_t kOpDmaCopy = 0x0801;

// --- Remote bridge ---
// req: u32 peer_board (external address), u32 peer_bridge_service,
// u32 target_service, u16 inner_opcode, inner payload. The reply mirrors
// the remote service's status and payload.
inline constexpr uint16_t kOpRemoteCall = 0x0901;

// --- Application-defined opcodes start here ---
inline constexpr uint16_t kOpAppBase = 0x1000;

}  // namespace apiary

#endif  // SRC_SERVICES_OPCODES_H_
