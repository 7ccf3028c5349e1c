// Good: the fault hook is the one in-flight writer of a wire image, and it
// writes through the mutator that marks the packet for the ejecting NI.
#include "src/noc/packet.h"

namespace apiary {

void FlipOneBit(const Flit& flit, size_t index, int bit) {
  flit.packet->CorruptWireBit(index, static_cast<uint8_t>(1u << bit));
}

}  // namespace apiary
