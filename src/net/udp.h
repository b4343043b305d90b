// UDP-lite: unreliable datagram sockets over IpStack.
//
// Spec (net/udp_* VCs): a datagram received on a bound socket is exactly one
// datagram some peer sent to that (addr, port), with an intact payload
// (checksum verified); corrupted or unbound-port datagrams are dropped, never
// misdelivered. Delivery itself is best-effort — loss/reorder/duplication
// come from the fabric model and are the application's problem (that's UDP).
#ifndef VNROS_SRC_NET_UDP_H_
#define VNROS_SRC_NET_UDP_H_

#include <deque>
#include <map>
#include <mutex>

#include "src/base/result.h"
#include "src/net/ip.h"

namespace vnros {

struct Datagram {
  NetAddr src_addr = 0;
  Port src_port = 0;
  std::vector<u8> payload;

  bool operator==(const Datagram&) const = default;
};

struct UdpStats {
  u64 tx = 0;
  u64 rx_delivered = 0;
  u64 rx_bad_checksum = 0;
  u64 rx_unbound = 0;
};

class UdpStack {
 public:
  explicit UdpStack(IpStack& ip);

  // Binds `port`; datagrams to it queue until recv()ed.
  Result<Unit> bind(Port port);
  Result<Unit> unbind(Port port);

  Result<Unit> send(NetAddr dst, Port dst_port, Port src_port, std::span<const u8> payload);

  // Non-blocking: kWouldBlock when the queue is empty.
  Result<Datagram> recv(Port port);

  usize pending(Port port) const;

  const UdpStats& stats() const { return stats_; }

 private:
  void on_datagram(const IpHeader& ip, std::span<const u8> payload);

  IpStack& ip_;
  mutable std::mutex mu_;
  std::map<Port, std::deque<Datagram>> bound_;
  UdpStats stats_;
};

}  // namespace vnros

#endif  // VNROS_SRC_NET_UDP_H_
