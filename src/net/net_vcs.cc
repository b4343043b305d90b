// Verification conditions for the network stack.
//
// The integrity statements hold against an adversarial fabric (loss,
// duplication, reordering): UDP may lose datagrams but never delivers a
// corrupted or misrouted one. The stream transport's VCs live in
// vtp_vcs.cc.
#include "src/net/vcs.h"

#include <string>

#include "src/base/crc.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/net/ip.h"
#include "src/net/udp.h"

namespace vnros {
namespace {

// Two hosts on one fabric.
struct NetPair {
  Network net;
  NetDevice& dev_a;
  NetDevice& dev_b;
  IpStack ip_a;
  IpStack ip_b;

  explicit NetPair(FabricConfig config = {})
      : net(config), dev_a(net.attach()), dev_b(net.attach()), ip_a(dev_a), ip_b(dev_b) {}
};

// --- Header round-trips -----------------------------------------------------

// Each header round-trips, and no strict prefix of it decodes.
VcOutcome vc_ip_header_roundtrip(u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    IpHeader hdr{static_cast<NetAddr>(rng.next_u32()), static_cast<NetAddr>(rng.next_u32()),
                 rng.chance(1, 2) ? IpProto::kUdp : IpProto::kVtp,
                 static_cast<u8>(rng.next_range(1, 255))};
    if (!round_trips(hdr)) {
      return VcOutcome::fail("IP header did not round-trip");
    }
  }
  return VcOutcome::pass();
}

VcOutcome vc_udp_header_roundtrip(u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    UdpHeader hdr{static_cast<Port>(rng.next_u32()), static_cast<Port>(rng.next_u32()),
                  rng.next_u32()};
    if (!round_trips(hdr)) {
      return VcOutcome::fail("UDP header did not round-trip");
    }
  }
  return VcOutcome::pass();
}

// --- UDP ---------------------------------------------------------------------

VcOutcome vc_udp_delivery_clean() {
  NetPair p;
  UdpStack udp_a(p.ip_a), udp_b(p.ip_b);
  if (!udp_b.bind(700).ok()) {
    return VcOutcome::fail("bind failed");
  }
  for (u32 i = 0; i < 50; ++i) {
    std::string msg = "datagram-" + std::to_string(i);
    if (!udp_a.send(p.dev_b.addr(), 700, 900, string_bytes(msg)).ok()) {
      return VcOutcome::fail("send failed");
    }
  }
  for (u32 i = 0; i < 50; ++i) {
    auto d = udp_b.recv(700);
    std::string expect = "datagram-" + std::to_string(i);
    if (!d.ok() || std::string(d.value().payload.begin(), d.value().payload.end()) != expect ||
        d.value().src_port != 900 || d.value().src_addr != p.dev_a.addr()) {
      return VcOutcome::fail("datagram " + std::to_string(i) + " wrong or missing");
    }
  }
  if (udp_b.recv(700).ok()) {
    return VcOutcome::fail("phantom datagram delivered");
  }
  return VcOutcome::pass();
}

VcOutcome vc_udp_drops_corruption() {
  NetPair p;
  UdpStack udp_b(p.ip_b);
  (void)udp_b.bind(700);
  // Hand-craft a datagram whose checksum does not match its payload.
  Writer w;
  Codec<UdpHeader>::put(w, UdpHeader{900, 700, 0xDEADBEEF});
  w.put_raw(string_bytes("corrupted payload"));
  (void)p.ip_a.send(p.dev_b.addr(), IpProto::kUdp, w.bytes());
  if (udp_b.recv(700).ok()) {
    return VcOutcome::fail("corrupted datagram was delivered");
  }
  if (udp_b.stats().rx_bad_checksum != 1) {
    return VcOutcome::fail("corruption not accounted");
  }
  return VcOutcome::pass();
}

VcOutcome vc_udp_no_misdelivery(u64 seed) {
  NetPair p;
  UdpStack udp_a(p.ip_a), udp_b(p.ip_b);
  (void)udp_b.bind(700);
  (void)udp_b.bind(701);
  Rng rng(seed);
  u32 n700 = 0, n701 = 0;
  for (int i = 0; i < 100; ++i) {
    Port dst = rng.chance(1, 2) ? 700 : 701;
    (dst == 700 ? n700 : n701)++;
    std::string msg = "to-" + std::to_string(dst);
    (void)udp_a.send(p.dev_b.addr(), dst, 900, string_bytes(msg));
  }
  for (Port port : {Port{700}, Port{701}}) {
    u32 got = 0;
    std::string expect = "to-" + std::to_string(port);
    while (auto d = udp_b.recv(port)) {
      if (std::string(d.value().payload.begin(), d.value().payload.end()) != expect) {
        return VcOutcome::fail("datagram misdelivered across ports");
      }
      ++got;
    }
    if (got != (port == 700 ? n700 : n701)) {
      return VcOutcome::fail("datagram count mismatch on clean fabric");
    }
  }
  return VcOutcome::pass();
}

// Large and empty UDP payloads survive the stack unharmed.
VcOutcome vc_udp_payload_extremes() {
  NetPair p;
  UdpStack ua(p.ip_a), ub(p.ip_b);
  (void)ub.bind(80);
  // Empty payload.
  if (!ua.send(p.dev_b.addr(), 80, 90, {}).ok()) {
    return VcOutcome::fail("empty send failed");
  }
  auto d = ub.recv(80);
  if (!d.ok() || !d.value().payload.empty()) {
    return VcOutcome::fail("empty datagram mangled");
  }
  // 256 KiB payload (our fabric has no MTU; framing must still be exact).
  Rng rng(404);
  std::vector<u8> big(256 * 1024);
  for (auto& b : big) {
    b = static_cast<u8>(rng.next_u64());
  }
  if (!ua.send(p.dev_b.addr(), 80, 90, big).ok()) {
    return VcOutcome::fail("large send failed");
  }
  d = ub.recv(80);
  if (!d.ok() || d.value().payload != big) {
    return VcOutcome::fail("large datagram corrupted");
  }
  return VcOutcome::pass();
}

// TTL zero datagrams are dropped at the IP layer, counted, never delivered.
VcOutcome vc_ip_ttl_zero_dropped() {
  NetPair p;
  UdpStack ub(p.ip_b);
  (void)ub.bind(80);
  Writer w;
  Codec<IpHeader>::put(w, IpHeader{p.dev_a.addr(), p.dev_b.addr(), IpProto::kUdp, 0});
  Codec<UdpHeader>::put(w, UdpHeader{90, 80, crc32c({})});
  (void)p.dev_a.send(p.dev_b.addr(), w.take());
  p.ip_b.poll();
  if (ub.recv(80).ok()) {
    return VcOutcome::fail("TTL-0 datagram delivered");
  }
  if (p.ip_b.stats().rx_ttl_expired != 1) {
    return VcOutcome::fail("TTL expiry not accounted");
  }
  return VcOutcome::pass();
}

}  // namespace

void register_net_vcs(VcRegistry& reg) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("net/ip_header_roundtrip_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_ip_header_roundtrip(seed); });
    reg.add("net/udp_header_roundtrip_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_udp_header_roundtrip(seed); });
  }
  reg.add("net/udp_delivery_clean", VcCategory::kNetworkStack,
          [] { return vc_udp_delivery_clean(); });
  reg.add("net/udp_drops_corruption", VcCategory::kNetworkStack,
          [] { return vc_udp_drops_corruption(); });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("net/udp_no_misdelivery_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_udp_no_misdelivery(seed); });
  }
  reg.add("net/udp_payload_extremes", VcCategory::kNetworkStack,
          [] { return vc_udp_payload_extremes(); });
  reg.add("net/ip_ttl_zero_dropped", VcCategory::kNetworkStack,
          [] { return vc_ip_ttl_zero_dropped(); });
}

}  // namespace vnros
