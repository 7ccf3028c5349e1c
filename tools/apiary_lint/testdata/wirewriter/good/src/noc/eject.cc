// Good: the NI only reads the wire image; it re-hashes the packets the
// fault hook's CorruptWireBit marked.
#include "src/noc/packet.h"

namespace apiary {

bool Intact(const NocPacket& packet) {
  return !packet.wire_touched || packet.checksum == PacketWireChecksum(packet);
}

}  // namespace apiary
