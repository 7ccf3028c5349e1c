// Bad: the NoC scrambles a header byte in flight. The packet is marked, so
// the ejecting NI drops it as corrupt, and a fault nobody injected shows up
// in ni.checksum_drops.
#include "src/noc/packet.h"

namespace apiary {

void ScrambleHeader(NocPacket& packet) {
  packet.CorruptWireBit(0, 0xFF);
}

}  // namespace apiary
