// Registration hook for the network-stack verification conditions.
#ifndef VNROS_SRC_NET_VCS_H_
#define VNROS_SRC_NET_VCS_H_

#include "src/spec/vc.h"

namespace vnros {

// Registers net/* VCs: IP and UDP header round-trips, UDP integrity and
// no-misdelivery, IP TTL expiry.
void register_net_vcs(VcRegistry& registry);

// Registers net/vtp_* VCs: stream-socket refinement of the reliable FIFO
// pipe spec under loss/dup/reorder/partition, window safety, handshake
// convergence under loss, typed backlog-shed / SYN-timeout contracts, FIN
// and duplicate-SYN semantics, connection isolation, tuple uniqueness, and
// demux across hundreds of streams with tuple reuse.
void register_vtp_vcs(VcRegistry& registry);

}  // namespace vnros

#endif  // VNROS_SRC_NET_VCS_H_
