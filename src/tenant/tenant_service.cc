#include "src/tenant/tenant_service.h"

#include "src/core/message.h"

namespace apiary {

void TenantStatsService::OnMessage(const Message& msg, TileApi& api) {
  if (msg.kind != MsgKind::kRequest) {
    return;
  }
  switch (msg.opcode) {
    case kOpTenantStats: {
      if (msg.payload.size() < 4) {
        api.ReplyStatus(msg, MsgStatus::kBadRequest);
        return;
      }
      const TenantId tenant = GetU32(msg.payload, 0);
      const TenantUsage usage = manager_->Usage(tenant);
      Message reply;
      reply.opcode = kOpTenantStats;
      PutU32(reply.payload, tenant);
      PutU32(reply.payload, usage.tiles);
      PutU64(reply.payload, usage.tile_cycles);
      PutU64(reply.payload, usage.flits_sent);
      PutU64(reply.payload, usage.messages_sent);
      PutU64(reply.payload, usage.quota_denials);
      PutU32(reply.payload, manager_->BillingRecordCount(tenant));
      PutU32(reply.payload, manager_->BillingDigest(tenant));
      api.Reply(msg, std::move(reply));
      counters_.Add("tenantsvc.stats_served");
      return;
    }
    default:
      api.ReplyStatus(msg, MsgStatus::kBadRequest);
      return;
  }
}

}  // namespace apiary
