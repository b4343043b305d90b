// IPv4-lite layer: encapsulation over the link fabric plus dispatch to the
// transport layers by protocol number.
#ifndef VNROS_SRC_NET_IP_H_
#define VNROS_SRC_NET_IP_H_

#include <functional>
#include <map>
#include <mutex>

#include "src/base/result.h"
#include "src/hw/network.h"
#include "src/net/headers.h"
#include "src/net/readiness.h"

namespace vnros {

struct IpStats {
  u64 tx = 0;
  u64 rx = 0;
  u64 rx_bad_header = 0;
  u64 rx_ttl_expired = 0;
  u64 rx_no_handler = 0;
};

class IpStack {
 public:
  explicit IpStack(NetDevice& dev) : dev_(dev) {}

  NetAddr addr() const { return dev_.addr(); }

  Result<Unit> send(NetAddr dst, IpProto proto, std::span<const u8> payload);

  // Registers the transport handler for `proto` (payload, header).
  void register_proto(IpProto proto,
                      std::function<void(const IpHeader&, std::span<const u8>)> handler);

  // Drains the device RX ring, dispatching every datagram. Returns how many
  // frames were processed (drivers poll; no interrupt plumbing needed here).
  usize poll();

  const IpStats& stats() const { return stats_; }

  // The host's readiness record: the transports above mark it, the ring
  // reactor drains it (src/net/readiness.h).
  Readiness& readiness() { return readiness_; }

 private:
  NetDevice& dev_;
  Readiness readiness_;
  std::mutex mu_;
  std::map<u8, std::function<void(const IpHeader&, std::span<const u8>)>> handlers_;
  IpStats stats_;
};

}  // namespace vnros

#endif  // VNROS_SRC_NET_IP_H_
