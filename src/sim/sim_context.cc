#include "src/sim/sim_context.h"

namespace apiary {

SimContext::SimContext() : arena_(new PayloadArena) {}

// The arena may outlive us in drain mode if any PayloadBuf (a packet in a
// mesh's pool included) still holds a chunk.
SimContext::~SimContext() { arena_->Retire(); }

void SimContext::SetLogSink(LogSink sink, void* user) {
  log_sink_ = sink;
  log_sink_user_ = user;
}

}  // namespace apiary
