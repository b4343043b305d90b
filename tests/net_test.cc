// Network stack tests: IP dispatch, UDP semantics, the VTP stream
// transport's state machine.
#include <gtest/gtest.h>

#include <string>

#include "src/base/crc.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/hw/timer.h"
#include "src/net/ip.h"
#include "src/net/udp.h"
#include "src/net/vtp.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

struct Pair {
  Network net;
  NetDevice& da;
  NetDevice& db;
  IpStack ipa;
  IpStack ipb;

  explicit Pair(FabricConfig config = {}, u64 seed = 1)
      : net(config, seed), da(net.attach()), db(net.attach()), ipa(da), ipb(db) {}
};

// --- IP -----------------------------------------------------------------------

TEST(IpTest, DispatchByProto) {
  Pair p;
  int udp_count = 0, vtp_count = 0;
  p.ipb.register_proto(IpProto::kUdp, [&](const IpHeader&, std::span<const u8>) { ++udp_count; });
  p.ipb.register_proto(IpProto::kVtp, [&](const IpHeader&, std::span<const u8>) { ++vtp_count; });
  (void)p.ipa.send(p.db.addr(), IpProto::kUdp, bytes("u"));
  (void)p.ipa.send(p.db.addr(), IpProto::kVtp, bytes("v"));
  (void)p.ipa.send(p.db.addr(), IpProto::kUdp, bytes("u2"));
  EXPECT_EQ(p.ipb.poll(), 3u);
  EXPECT_EQ(udp_count, 2);
  EXPECT_EQ(vtp_count, 1);
}

TEST(IpTest, MalformedHeaderCounted) {
  Pair p;
  (void)p.da.send(p.db.addr(), {0x01});  // 1 byte: not an IP header
  p.ipb.poll();
  EXPECT_EQ(p.ipb.stats().rx_bad_header, 1u);
}

TEST(IpTest, NoHandlerCounted) {
  Pair p;
  (void)p.ipa.send(p.db.addr(), IpProto::kUdp, bytes("x"));
  p.ipb.poll();
  EXPECT_EQ(p.ipb.stats().rx_no_handler, 1u);
}

// --- UDP ------------------------------------------------------------------------

TEST(UdpTest, BindUnbind) {
  Pair p;
  UdpStack udp(p.ipb);
  EXPECT_TRUE(udp.bind(80).ok());
  EXPECT_EQ(udp.bind(80).error(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(udp.unbind(80).ok());
  EXPECT_EQ(udp.unbind(80).error(), ErrorCode::kNotFound);
  EXPECT_EQ(udp.recv(80).error(), ErrorCode::kNotFound);
}

TEST(UdpTest, EmptyQueueWouldBlock) {
  Pair p;
  UdpStack udp(p.ipb);
  (void)udp.bind(80);
  EXPECT_EQ(udp.recv(80).error(), ErrorCode::kWouldBlock);
}

TEST(UdpTest, EmptyPayloadDelivered) {
  Pair p;
  UdpStack ua(p.ipa), ub(p.ipb);
  (void)ub.bind(80);
  ASSERT_TRUE(ua.send(p.db.addr(), 80, 99, {}).ok());
  auto d = ub.recv(80);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().payload.empty());
}

// --- VTP (stream sockets: windowed, AIMD, selective retransmit) -----------------

struct VtpFixture {
  Pair p;
  VirtualClock clock;
  VtpStack a;
  VtpStack b;

  explicit VtpFixture(FabricConfig config = {}, u64 seed = 1)
      : p(config, seed), a(p.ipa, clock), b(p.ipb, clock) {}

  void pump(usize rounds) {
    for (usize i = 0; i < rounds; ++i) {
      a.tick();
      b.tick();
    }
  }

  std::pair<ConnId, ConnId> establish(Port port = 80, Port sport = 1234) {
    EXPECT_TRUE(b.listen(port).ok());
    auto client = a.connect(p.db.addr(), port, sport);
    EXPECT_TRUE(client.ok());
    for (int i = 0; i < 400; ++i) {
      pump(1);
      auto server = b.accept(port);
      if (server.ok()) {
        EXPECT_TRUE(a.is_established(client.value()));
        return {client.value(), server.value()};
      }
    }
    ADD_FAILURE() << "handshake did not converge";
    return {0, 0};
  }
};

TEST(VtpTest, HandshakeEstablishesBothEnds) {
  VtpFixture f;
  auto [client, server] = f.establish();
  EXPECT_TRUE(f.a.is_established(client));
  EXPECT_TRUE(f.b.is_established(server));
  EXPECT_EQ(f.a.state(client), VtpState::kEstablished);
  EXPECT_EQ(f.b.state(server), VtpState::kEstablished);
}

TEST(VtpTest, BidirectionalTransferPreservesStreams) {
  VtpFixture f;
  auto [client, server] = f.establish();
  ASSERT_TRUE(f.a.send(client, bytes("from a")).ok());
  ASSERT_TRUE(f.b.send(server, bytes("from b")).ok());
  f.pump(20);
  EXPECT_EQ(f.b.recv(server, 64).value(), bytes("from a"));
  EXPECT_EQ(f.a.recv(client, 64).value(), bytes("from b"));
}

TEST(VtpTest, ConnectToNonListenerIsTypedConnRefused) {
  VtpFixture f;
  auto c = f.a.connect(f.p.db.addr(), 9999, 1234);
  ASSERT_TRUE(c.ok());
  f.pump(4);
  EXPECT_EQ(f.a.state(c.value()), VtpState::kError);
  EXPECT_EQ(f.a.conn_error(c.value()), ErrorCode::kConnRefused);
  EXPECT_EQ(f.a.recv(c.value(), 8).error(), ErrorCode::kConnRefused);
}

TEST(VtpTest, SimultaneousCloseReapsBothStacks) {
  VtpFixture f;
  auto [client, server] = f.establish();
  ASSERT_TRUE(f.a.send(client, bytes("last-a")).ok());
  ASSERT_TRUE(f.b.send(server, bytes("last-b")).ok());
  f.pump(10);
  EXPECT_EQ(f.b.recv(server, 64).value(), bytes("last-a"));
  EXPECT_EQ(f.a.recv(client, 64).value(), bytes("last-b"));
  // Both ends close in the same tick: FINs cross in flight. Each side must
  // ack the other's FIN and reap once its own FIN is acked — no conn leaks,
  // no reset storm.
  ASSERT_TRUE(f.a.close(client).ok());
  ASSERT_TRUE(f.b.close(server).ok());
  for (int i = 0; i < 400 && f.a.active_conns() + f.b.active_conns() > 0; ++i) {
    f.pump(1);
  }
  EXPECT_EQ(f.a.active_conns(), 0u);
  EXPECT_EQ(f.b.active_conns(), 0u);
}

TEST(VtpTest, SynRetryExhaustionIsTypedTimedOut) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  f.p.net.partition(f.p.da.addr(), f.p.db.addr());
  auto c = f.a.connect(f.p.db.addr(), 80, 1234);
  ASSERT_TRUE(c.ok());
  // Every SYN (original + kMaxSynRetries retransmits) dies in the partition.
  f.pump((VtpStack::kMaxSynRetries + 2) * VtpStack::kRtoTicks + 8);
  EXPECT_EQ(f.a.state(c.value()), VtpState::kError);
  EXPECT_EQ(f.a.conn_error(c.value()), ErrorCode::kTimedOut);
  EXPECT_EQ(f.a.send(c.value(), bytes("x")).error(), ErrorCode::kTimedOut);
  EXPECT_EQ(f.a.recv(c.value(), 8).error(), ErrorCode::kTimedOut);
}

TEST(VtpTest, ZeroWindowStallsSenderThenReopens) {
  VtpFixture f;
  auto [client, server] = f.establish();
  // Feed more than the receive window with no reader: the advertised window
  // must clamp to zero and the sender must stop past it.
  std::vector<u8> blob(2 * VtpStack::kRcvWindow);
  for (usize i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<u8>(i);
  }
  usize fed = 0;
  for (int i = 0; i < 600 && fed < blob.size(); ++i) {
    auto n = f.a.send(client, std::span<const u8>(blob.data() + fed, blob.size() - fed));
    if (n.ok()) {
      fed += n.value();
    }
    f.pump(1);
  }
  EXPECT_EQ(fed, blob.size());  // buffered sender-side (256K buffer), not delivered
  f.pump(400);  // drain until the receive window is the only limit
  EXPECT_EQ(f.a.unacked_bytes(client), blob.size() - VtpStack::kRcvWindow);
  EXPECT_EQ(f.a.stats().window_violations, 0u);
  // Reader drains: the window-update ACKs reopen the stream and the rest
  // flows through. The delivered bytes must be the exact pushed prefix.
  std::vector<u8> got;
  for (int i = 0; i < 2000 && got.size() < blob.size(); ++i) {
    auto r = f.b.recv(server, 4096);
    if (r.ok()) {
      got.insert(got.end(), r.value().begin(), r.value().end());
    }
    f.pump(1);
  }
  EXPECT_EQ(got, blob);
  EXPECT_GT(f.b.stats().window_updates, 0u);
  EXPECT_EQ(f.a.stats().window_violations, 0u);
}

TEST(VtpTest, AcceptBacklogOverflowIsTypedOverloaded) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80, 2).ok());
  std::vector<ConnId> conns;
  for (u32 i = 0; i < 5; ++i) {
    auto c = f.a.connect(f.p.db.addr(), 80, static_cast<Port>(3000 + i));
    ASSERT_TRUE(c.ok());
    conns.push_back(c.value());
    f.pump(4);
  }
  f.pump(40);
  usize established = 0, overloaded = 0;
  for (ConnId id : conns) {
    if (f.a.is_established(id)) {
      ++established;
    } else if (f.a.conn_error(id) == ErrorCode::kOverloaded) {
      ++overloaded;
    }
  }
  EXPECT_EQ(established, 2u);  // exactly the backlog
  EXPECT_EQ(overloaded, 3u);   // the rest shed with the typed reset
  EXPECT_EQ(f.b.stats().accept_shed, 3u);
  // Draining the queue frees backlog slots: the next connect succeeds.
  ASSERT_TRUE(f.b.accept(80).ok());
  ASSERT_TRUE(f.b.accept(80).ok());
  auto late = f.a.connect(f.p.db.addr(), 80, 3100);
  ASSERT_TRUE(late.ok());
  f.pump(40);
  EXPECT_TRUE(f.a.is_established(late.value()));
}

TEST(VtpTest, LiveTupleIsRefusedWithTypedError) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  ASSERT_TRUE(f.a.connect(f.p.db.addr(), 80, 1234).ok());
  // The same (peer, dst_port, src_port) again would alias the live conn.
  EXPECT_EQ(f.a.connect(f.p.db.addr(), 80, 1234).error(), ErrorCode::kAlreadyExists);
  // Any other tuple is a distinct connection.
  EXPECT_TRUE(f.a.connect(f.p.db.addr(), 81, 1234).ok());
  EXPECT_TRUE(f.a.connect(f.p.db.addr(), 80, 1235).ok());
}

TEST(VtpTest, PortZeroGetsDistinctEphemeralPorts) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  auto c1 = f.a.connect(f.p.db.addr(), 80, 0);
  auto c2 = f.a.connect(f.p.db.addr(), 80, 0);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  const Port p1 = f.a.local_port(c1.value());
  const Port p2 = f.a.local_port(c2.value());
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, VtpStack::kEphemeralBase);
  EXPECT_GE(p2, VtpStack::kEphemeralBase);
  // Two tuples, two server connections.
  f.pump(8);
  EXPECT_TRUE(f.b.accept(80).ok());
  EXPECT_TRUE(f.b.accept(80).ok());
}

TEST(VtpTest, UnlistenResetsHalfOpenHandshakes) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  auto c = f.a.connect(f.p.db.addr(), 80, 1234);
  ASSERT_TRUE(c.ok());
  f.b.poll();  // the SYN lands: a half-open connection, its SYN-ACK in flight
  ASSERT_EQ(f.b.active_conns(), 1u);
  ASSERT_TRUE(f.b.unlisten(80).ok());
  (void)f.a.send(c.value(), bytes("hello"));
  f.pump(40);
  // No application can accept the handshake any more: the listener's end is
  // gone, and the connecting end fails typed instead of sending into a void.
  EXPECT_EQ(f.b.active_conns(), 0u);
  EXPECT_EQ(f.a.state(c.value()), VtpState::kError);
  EXPECT_EQ(f.a.conn_error(c.value()), ErrorCode::kConnReset);
}

TEST(VtpTest, ResetDuringHandshakeFreesTheTuple) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  auto first = f.a.connect(f.p.db.addr(), 80, 1234);
  ASSERT_TRUE(first.ok());
  f.b.poll();  // half-open at the listener, its SYN-ACK in flight
  // The connecting end gives up first, so it answers the SYN-ACK with a RST.
  ASSERT_TRUE(f.a.close(first.value()).ok());
  f.pump(4);
  EXPECT_EQ(f.b.active_conns(), 0u);
  // The tuple is free again: a reconnect on the same explicit port completes.
  auto again = f.a.connect(f.p.db.addr(), 80, 1234);
  ASSERT_TRUE(again.ok());
  f.pump((VtpStack::kMaxSynRetries + 2) * VtpStack::kRtoTicks);
  EXPECT_TRUE(f.a.is_established(again.value()));
  EXPECT_TRUE(f.b.accept(80).ok());
}

TEST(VtpTest, SendOnUnknownConnFails) {
  VtpFixture f;
  EXPECT_EQ(f.a.send(999, bytes("x")).error(), ErrorCode::kNotFound);
  EXPECT_EQ(f.a.recv(999, 10).error(), ErrorCode::kNotFound);
}

TEST(VtpTest, ListenTwiceRejected) {
  VtpFixture f;
  ASSERT_TRUE(f.b.listen(80).ok());
  EXPECT_EQ(f.b.listen(80).error(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(f.b.listen(81, 0).error(), ErrorCode::kInvalidArgument);
}

TEST(VtpTest, SelectiveRetransmitReassemblesAroundLoss) {
  FabricConfig config;
  config.loss_ppm = 150'000;
  config.reorder_ppm = 80'000;
  VtpFixture f(config, 7);
  auto [client, server] = f.establish();
  // 64 MSS-sized segments: at 15% loss at least one data segment is lost
  // (and a gap reassembled) with overwhelming probability.
  std::vector<u8> blob(64 * 1024);
  Rng rng(99);
  for (auto& v : blob) {
    v = static_cast<u8>(rng.next_u64());
  }
  usize fed = 0;
  std::vector<u8> got;
  for (int i = 0; i < 20'000 && got.size() < blob.size(); ++i) {
    if (fed < blob.size()) {
      auto n = f.a.send(client, std::span<const u8>(blob.data() + fed, blob.size() - fed));
      if (n.ok()) {
        fed += n.value();
      }
    }
    auto r = f.b.recv(server, 4096);
    if (r.ok()) {
      got.insert(got.end(), r.value().begin(), r.value().end());
    }
    f.pump(1);
  }
  EXPECT_EQ(got, blob);
  // The receiver held out-of-order segments instead of dropping them.
  EXPECT_GT(f.b.stats().ooo_buffered, 0u);
  EXPECT_GT(f.a.stats().retransmits, 0u);
  EXPECT_GT(f.a.stats().cwnd_halvings, 0u);
}


// --- Byte pins ---------------------------------------------------------------------
//
// The three headers on the wire, written field by field: an IP packet is
// [u32 src][u32 dst][u8 proto][u8 ttl], a UDP segment [u16 src_port]
// [u16 dst_port][u32 crc32c(payload)], a VTP segment [u16 src_port]
// [u16 dst_port][u8 type][u64 seq][u64 ack][u32 wnd][u32 crc32c(payload)].
// The stacks write exactly these bytes and accept them from a raw device.

void pin_ip(Writer& w, NetAddr src, NetAddr dst, u8 proto) {
  w.put_u32(src);
  w.put_u32(dst);
  w.put_u8(proto);
  w.put_u8(16);
}

void pin_vtp(Writer& w, Port src, Port dst, u8 type, u64 seq, u64 ack, u32 wnd) {
  w.put_u16(src);
  w.put_u16(dst);
  w.put_u8(type);
  w.put_u64(seq);
  w.put_u64(ack);
  w.put_u32(wnd);
  w.put_u32(crc32c({}));
}

TEST(WirePinTest, UdpOverIpKeepsItsBytes) {
  Network net;
  NetDevice& dev = net.attach();
  NetDevice& raw = net.attach();
  IpStack ip(dev);
  UdpStack udp(ip);
  Writer w;
  pin_ip(w, dev.addr(), raw.addr(), 17);
  w.put_u16(90);
  w.put_u16(80);
  w.put_u32(crc32c(bytes("hi")));
  w.put_raw(bytes("hi"));
  ASSERT_TRUE(udp.send(raw.addr(), 80, 90, bytes("hi")).ok());
  auto frame = raw.poll_rx();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, w.bytes());

  Writer back;
  pin_ip(back, raw.addr(), dev.addr(), 17);
  back.put_u16(90);
  back.put_u16(80);
  back.put_u32(crc32c(bytes("hi")));
  back.put_raw(bytes("hi"));
  ASSERT_TRUE(udp.bind(80).ok());
  ASSERT_TRUE(raw.send(dev.addr(), back.take()).ok());
  auto d = udp.recv(80);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), (Datagram{raw.addr(), 90, bytes("hi")}));
}

TEST(WirePinTest, VtpOverIpKeepsItsBytes) {
  Network net;
  NetDevice& dev = net.attach();
  NetDevice& raw = net.attach();
  IpStack ip(dev);
  VirtualClock clock;
  VtpStack vtp(ip, clock);
  auto conn = vtp.connect(raw.addr(), 80, 1234);
  ASSERT_TRUE(conn.ok());
  Writer syn;
  pin_ip(syn, dev.addr(), raw.addr(), 143);
  pin_vtp(syn, 1234, 80, 1, 0, 0, static_cast<u32>(VtpStack::kRcvWindow));
  auto frame = raw.poll_rx();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, syn.bytes());

  // A hand-written refusal: kRst with the reason in seq.
  Writer rst;
  pin_ip(rst, raw.addr(), dev.addr(), 143);
  pin_vtp(rst, 80, 1234, 6, static_cast<u64>(ErrorCode::kConnRefused), 0, 0);
  ASSERT_TRUE(raw.send(dev.addr(), rst.take()).ok());
  vtp.poll();
  EXPECT_EQ(vtp.conn_error(conn.value()), ErrorCode::kConnRefused);
}

}  // namespace
}  // namespace vnros
