// Verification conditions for VTP, the stream-socket transport.
//
// The centerpiece is the net/vtp_refines_pipe family: both directions of a
// connection, driven through an adversarial fabric (loss + duplication +
// reordering, plus an explicit partition variant), refine the reliable FIFO
// pipe spec in src/spec/pipe.h — every byte the application pops is checked
// against the pushed stream at the instant it is popped (safety), and at
// quiesce the streams are complete (liveness). Window safety and the
// handshake contract (backlog shedding with typed kOverloaded, SYN-retry
// exhaustion with typed kTimedOut), FIN and duplicate-SYN semantics,
// connection isolation, tuple uniqueness, demux at fan-in scale with tuple
// reuse and the counted drop of corrupted segments are pinned by their own
// VCs.
#include "src/net/vcs.h"

#include <set>
#include <string>
#include <vector>

#include "src/base/crc.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/hw/timer.h"
#include "src/net/ip.h"
#include "src/net/vtp.h"
#include "src/spec/pipe.h"

namespace vnros {
namespace {

// Two hosts, one fabric, one virtual clock, a VTP stack on each.
struct VtpPair {
  Network net;
  NetDevice& dev_a;
  NetDevice& dev_b;
  IpStack ip_a;
  IpStack ip_b;
  VirtualClock clock;
  VtpStack vtp_a;
  VtpStack vtp_b;

  explicit VtpPair(FabricConfig config = {})
      : net(config),
        dev_a(net.attach()),
        dev_b(net.attach()),
        ip_a(dev_a),
        ip_b(dev_b),
        vtp_a(ip_a, clock),
        vtp_b(ip_b, clock) {}

  void pump(usize rounds) {
    for (usize i = 0; i < rounds; ++i) {
      vtp_a.tick();
      vtp_b.tick();
    }
  }
};

Result<std::pair<ConnId, ConnId>> establish(VtpPair& pair, usize budget = 600,
                                            Port sport = 1234) {
  auto l = pair.vtp_b.listen(80);
  if (!l.ok() && l.error() != ErrorCode::kAlreadyExists) {
    return l.error();  // listen is per-pair idempotent across establish calls
  }
  auto client = pair.vtp_a.connect(pair.dev_b.addr(), 80, sport);
  if (!client.ok()) {
    return client.error();
  }
  for (usize i = 0; i < budget; ++i) {
    pair.pump(1);
    auto server = pair.vtp_b.accept(80);
    if (server.ok() && pair.vtp_a.is_established(client.value())) {
      return std::pair<ConnId, ConnId>{client.value(), server.value()};
    }
  }
  return ErrorCode::kTimedOut;
}

VcOutcome vc_vtp_header_roundtrip(u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    VtpHeader hdr{static_cast<Port>(rng.next_u32()), static_cast<Port>(rng.next_u32()),
                  WireEnum<VtpType>::kValues[rng.next_below(6)], rng.next_u64(), rng.next_u64(),
                  rng.next_u32(), rng.next_u32()};
    if (!round_trips(hdr)) {
      return VcOutcome::fail("VTP header did not round-trip");
    }
  }
  return VcOutcome::pass();
}

// Bidirectional transfer against the fabric adversary, with the application
// boundary mirrored into a PipeSpec per direction. `partition_at` (nonzero)
// cuts the fabric for `partition_len` ticks mid-transfer and heals it.
VcOutcome vc_vtp_refines_pipe(FabricConfig config, u64 seed, usize total_bytes,
                              usize tick_budget, usize partition_at = 0,
                              usize partition_len = 0) {
  VtpPair pair(config);
  auto conns = establish(pair);
  if (!conns.ok()) {
    return VcOutcome::fail("handshake did not converge");
  }
  auto [client, server] = conns.value();

  Rng rng(seed);
  std::vector<u8> stream_ab(total_bytes), stream_ba(total_bytes);
  for (auto& b : stream_ab) {
    b = static_cast<u8>(rng.next_u64());
  }
  for (auto& b : stream_ba) {
    b = static_cast<u8>(rng.next_u64());
  }
  PipeSpec pipe_ab, pipe_ba;  // one spec instance per direction
  usize fed_ab = 0, fed_ba = 0;
  bool cut = false;

  for (usize tick = 0; tick < tick_budget; ++tick) {
    if (partition_at != 0 && tick == partition_at) {
      pair.net.partition(pair.dev_a.addr(), pair.dev_b.addr());
      cut = true;
    }
    if (cut && tick == partition_at + partition_len) {
      pair.net.heal(pair.dev_a.addr(), pair.dev_b.addr());
      cut = false;
    }
    if (fed_ab < total_bytes && rng.chance(2, 3)) {
      usize chunk = std::min<usize>(static_cast<usize>(rng.next_range(1, 2000)),
                                    total_bytes - fed_ab);
      auto n = pair.vtp_a.send(client, std::span<const u8>(stream_ab.data() + fed_ab, chunk));
      if (n.ok()) {
        pipe_ab.push(std::span<const u8>(stream_ab.data() + fed_ab, n.value()));
        fed_ab += n.value();
      } else if (n.error() != ErrorCode::kWouldBlock) {
        return VcOutcome::fail("send a->b failed: " + std::string(error_name(n.error())));
      }
    }
    if (fed_ba < total_bytes && rng.chance(2, 3)) {
      usize chunk = std::min<usize>(static_cast<usize>(rng.next_range(1, 2000)),
                                    total_bytes - fed_ba);
      auto n = pair.vtp_b.send(server, std::span<const u8>(stream_ba.data() + fed_ba, chunk));
      if (n.ok()) {
        pipe_ba.push(std::span<const u8>(stream_ba.data() + fed_ba, n.value()));
        fed_ba += n.value();
      } else if (n.error() != ErrorCode::kWouldBlock) {
        return VcOutcome::fail("send b->a failed: " + std::string(error_name(n.error())));
      }
    }
    // SAFETY: every popped chunk is checked against the pushed stream.
    if (auto got = pair.vtp_b.recv(server, static_cast<usize>(rng.next_range(1, 3000)));
        got.ok() && !pipe_ab.pop(got.value())) {
      return VcOutcome::fail("a->b violates FIFO pipe: " + pipe_ab.failure());
    }
    if (auto got = pair.vtp_a.recv(client, static_cast<usize>(rng.next_range(1, 3000)));
        got.ok() && !pipe_ba.pop(got.value())) {
      return VcOutcome::fail("b->a violates FIFO pipe: " + pipe_ba.failure());
    }
    pair.pump(1);
    if (pipe_ab.complete() && pipe_ba.complete() && fed_ab == total_bytes &&
        fed_ba == total_bytes) {
      break;
    }
  }

  // LIVENESS at quiesce: the adversary was fair (loss is probabilistic,
  // partitions healed), so the whole stream must have crossed.
  if (fed_ab != total_bytes || fed_ba != total_bytes || !pipe_ab.complete() ||
      !pipe_ba.complete()) {
    return VcOutcome::fail("incomplete at quiesce: a->b " +
                           std::to_string(pipe_ab.delivered_len()) + "/" +
                           std::to_string(pipe_ab.sent_len()) + ", b->a " +
                           std::to_string(pipe_ba.delivered_len()) + "/" +
                           std::to_string(pipe_ba.sent_len()));
  }

  // Full lifecycle: both sides close; FIN/ACK retransmissions must converge
  // and both stacks must reap the connection.
  (void)pair.vtp_a.close(client);
  (void)pair.vtp_b.close(server);
  for (usize i = 0; i < 4000 && (pair.vtp_a.active_conns() + pair.vtp_b.active_conns()) > 0;
       ++i) {
    pair.pump(1);
  }
  if (pair.vtp_a.active_conns() + pair.vtp_b.active_conns() != 0) {
    return VcOutcome::fail("close did not converge: conns still live at quiesce");
  }
  if (pair.vtp_a.stats().window_violations + pair.vtp_b.stats().window_violations != 0) {
    return VcOutcome::fail("window safety violated during transfer");
  }
  return VcOutcome::pass();
}

// Window safety as its own VC: a slow reader forces the advertised window to
// zero; the sender must stall (probing, never shipping bytes past the
// advertisement) and resume when reads reopen the window.
VcOutcome vc_vtp_window_safety(u64 seed) {
  FabricConfig config;
  config.loss_ppm = 50'000;
  VtpPair pair(config);
  auto conns = establish(pair);
  if (!conns.ok()) {
    return VcOutcome::fail("handshake did not converge");
  }
  auto [client, server] = conns.value();

  Rng rng(seed);
  const usize total = 3 * VtpStack::kRcvWindow;  // 3x the receive buffer
  std::vector<u8> stream(total);
  for (auto& b : stream) {
    b = static_cast<u8>(rng.next_u64());
  }
  PipeSpec pipe;
  usize fed = 0;
  for (usize tick = 0; tick < 120'000 && pipe.delivered_len() < total; ++tick) {
    if (fed < total) {
      auto n = pair.vtp_a.send(client, std::span<const u8>(stream.data() + fed, total - fed));
      if (n.ok()) {
        pipe.push(std::span<const u8>(stream.data() + fed, n.value()));
        fed += n.value();
      }
    }
    // Slow reader: a tiny read every 8th tick slams the window shut; a total
    // read blackout for ticks [500, 700) holds it shut across several RTOs so
    // the sender's zero-window probes (not just the receiver's proactive
    // window-update ACKs) are exercised.
    const bool blackout = tick >= 500 && tick < 700;
    if (tick % 8 == 0 && !blackout) {
      if (auto got = pair.vtp_b.recv(server, 512); got.ok() && !pipe.pop(got.value())) {
        return VcOutcome::fail("FIFO violated under zero-window: " + pipe.failure());
      }
    }
    pair.pump(1);
  }
  if (!pipe.complete()) {
    return VcOutcome::fail("transfer did not complete past the zero-window stalls");
  }
  if (pair.vtp_b.stats().window_updates == 0) {
    return VcOutcome::fail("window never closed: VC exercised nothing");
  }
  if (pair.vtp_a.stats().window_probes == 0) {
    return VcOutcome::fail("sender never probed the zero window during the blackout");
  }
  if (pair.vtp_a.stats().window_violations + pair.vtp_b.stats().window_violations != 0) {
    return VcOutcome::fail("sender shipped bytes past the advertised window");
  }
  return VcOutcome::pass();
}

// Handshake-state VC: sequential connects under heavy loss all converge to a
// symmetric established pair, proven by a byte roundtrip on each connection.
VcOutcome vc_vtp_handshake_loss(u64 seed) {
  FabricConfig config;
  config.loss_ppm = 150'000;
  config.dup_ppm = 50'000;
  VtpPair pair(config);
  Rng rng(seed);
  for (u32 i = 0; i < 6; ++i) {
    auto conns = establish(pair, 2'000, static_cast<Port>(2000 + i));
    if (!conns.ok()) {
      return VcOutcome::fail("handshake " + std::to_string(i) + " did not converge");
    }
    auto [client, server] = conns.value();
    u8 ping = static_cast<u8>(rng.next_u64());
    if (!pair.vtp_a.send(client, std::span<const u8>(&ping, 1)).ok()) {
      return VcOutcome::fail("established conn refused send");
    }
    std::vector<u8> got;
    for (usize t = 0; t < 2'000 && got.empty(); ++t) {
      pair.pump(1);
      if (auto r = pair.vtp_b.recv(server, 8); r.ok()) {
        got = r.value();
      }
    }
    if (got.size() != 1 || got[0] != ping) {
      return VcOutcome::fail("roundtrip on established conn failed");
    }
  }
  return VcOutcome::pass();
}

// Backlog shedding is typed: connects beyond the listener's backlog surface
// kOverloaded at the connecting end, and accepted peers are unaffected.
VcOutcome vc_vtp_backlog_typed_overload() {
  VtpPair pair;
  if (!pair.vtp_b.listen(80, 2).ok()) {
    return VcOutcome::fail("listen failed");
  }
  std::vector<ConnId> conns;
  for (u32 i = 0; i < 5; ++i) {
    auto c = pair.vtp_a.connect(pair.dev_b.addr(), 80, static_cast<Port>(3000 + i));
    if (!c.ok()) {
      return VcOutcome::fail("connect failed");
    }
    conns.push_back(c.value());
    pair.pump(4);
  }
  pair.pump(40);
  usize established = 0, overloaded = 0;
  for (ConnId id : conns) {
    if (pair.vtp_a.is_established(id)) {
      ++established;
    } else if (pair.vtp_a.conn_error(id) == ErrorCode::kOverloaded) {
      ++overloaded;
    }
  }
  if (established != 2) {
    return VcOutcome::fail("backlog admitted " + std::to_string(established) +
                           " conns, want 2");
  }
  if (overloaded != 3) {
    return VcOutcome::fail("sheds were not typed kOverloaded (" +
                           std::to_string(overloaded) + "/3)");
  }
  if (pair.vtp_b.stats().accept_shed != 3) {
    return VcOutcome::fail("listener shed counter disagrees");
  }
  return VcOutcome::pass();
}

// SYN-retry exhaustion is typed: connecting across a partitioned fabric
// fails with kTimedOut after the retry budget, never silently.
VcOutcome vc_vtp_syn_timeout_typed() {
  VtpPair pair;
  if (!pair.vtp_b.listen(80).ok()) {
    return VcOutcome::fail("listen failed");
  }
  pair.net.partition(pair.dev_a.addr(), pair.dev_b.addr());
  auto c = pair.vtp_a.connect(pair.dev_b.addr(), 80, 4000);
  if (!c.ok()) {
    return VcOutcome::fail("connect failed");
  }
  pair.pump((VtpStack::kMaxSynRetries + 2) * VtpStack::kRtoTicks + 8);
  if (pair.vtp_a.conn_error(c.value()) != ErrorCode::kTimedOut) {
    return VcOutcome::fail("SYN exhaustion did not surface kTimedOut");
  }
  auto r = pair.vtp_a.recv(c.value(), 16);
  if (r.ok() || r.error() != ErrorCode::kTimedOut) {
    return VcOutcome::fail("recv on the dead conn is not typed kTimedOut");
  }
  return VcOutcome::pass();
}

// FIN semantics: bytes sent before close() are delivered in full, and only
// then does the reader see kPipeClosed.
VcOutcome vc_vtp_fin_semantics() {
  VtpPair pair;
  auto conns = establish(pair);
  if (!conns.ok()) {
    return VcOutcome::fail("handshake failed");
  }
  auto [client, server] = conns.value();
  const std::string msg = "last words";
  if (!pair.vtp_a.send(client, string_bytes(msg)).ok()) {
    return VcOutcome::fail("send failed");
  }
  // Close right behind the data: the FIN must queue after the bytes.
  if (!pair.vtp_a.close(client).ok()) {
    return VcOutcome::fail("close failed");
  }
  pair.pump(64);
  auto got = pair.vtp_b.recv(server, 64);
  if (!got.ok() || std::string(got.value().begin(), got.value().end()) != msg) {
    return VcOutcome::fail("data before FIN lost");
  }
  auto after = pair.vtp_b.recv(server, 64);
  if (after.ok() || after.error() != ErrorCode::kPipeClosed) {
    return VcOutcome::fail("FIN not surfaced as kPipeClosed after the drain");
  }
  return VcOutcome::pass();
}

// Duplicate SYNs are harmless: when the listener's SYN-ACK is lost, the
// connecting end's retransmitted SYN reaches a half-open connection and is
// answered on it — it never spawns a second one. Exactly one accept.
VcOutcome vc_vtp_duplicate_syn_safe() {
  VtpPair pair;
  if (!pair.vtp_b.listen(80).ok()) {
    return VcOutcome::fail("listen failed");
  }
  auto c = pair.vtp_a.connect(pair.dev_b.addr(), 80, 1234);
  if (!c.ok()) {
    return VcOutcome::fail("connect failed");
  }
  // Run a's SYN timer ahead while b has not read the SYN yet, then cut the
  // fabric for the one tick in which b answers: b's SYN-ACK dies, and a's
  // SYN retransmit — due well before b's own SYN-ACK retransmit — finds the
  // half-open connection at b.
  for (u64 i = 0; i < VtpStack::kRtoTicks / 2; ++i) {
    pair.vtp_a.tick();
  }
  pair.net.partition(pair.dev_a.addr(), pair.dev_b.addr());
  pair.vtp_b.tick();
  pair.net.heal(pair.dev_a.addr(), pair.dev_b.addr());
  pair.pump(200);
  if (pair.vtp_a.stats().retransmits == 0) {
    return VcOutcome::fail("no SYN was retransmitted: the VC exercised nothing");
  }
  if (!pair.vtp_a.is_established(c.value())) {
    return VcOutcome::fail("handshake did not converge after the lost SYN-ACK");
  }
  if (!pair.vtp_b.accept(80).ok()) {
    return VcOutcome::fail("no connection accepted");
  }
  auto second = pair.vtp_b.accept(80);
  if (second.ok() || second.error() != ErrorCode::kWouldBlock) {
    return VcOutcome::fail("a duplicate SYN spawned a second connection");
  }
  return VcOutcome::pass();
}

// Integrity: on an established connection, a data segment whose payload no
// longer matches its checksum is dropped and counted, never delivered; the
// intact retransmit of the same sequence number is then delivered.
VcOutcome vc_vtp_drops_corruption() {
  VtpPair pair;
  auto conns = establish(pair);
  if (!conns.ok()) {
    return VcOutcome::fail("handshake failed");
  }
  auto [client, server] = conns.value();
  const std::string msg = "checksummed payload";
  const u32 checksum = crc32c(string_bytes(msg));
  // Hand-craft the client's first data segment (seq 1) with `payload`.
  auto inject = [&](const std::string& payload) {
    Writer w;
    Codec<VtpHeader>::put(w, VtpHeader{pair.vtp_a.local_port(client), 80, VtpType::kData, 1, 1,
                                       static_cast<u32>(VtpStack::kRcvWindow), checksum});
    w.put_raw(string_bytes(payload));
    (void)pair.ip_a.send(pair.dev_b.addr(), IpProto::kVtp, w.bytes());
    pair.vtp_b.poll();
  };
  std::string flipped = msg;
  flipped[3] ^= 0x10;
  inject(flipped);
  if (pair.vtp_b.recv(server, 64).ok()) {
    return VcOutcome::fail("corrupted segment was delivered");
  }
  if (pair.vtp_b.stats().rx_bad_checksum != 1) {
    return VcOutcome::fail("corruption not accounted");
  }
  inject(msg);
  auto got = pair.vtp_b.recv(server, 64);
  if (!got.ok() || std::string(got.value().begin(), got.value().end()) != msg) {
    return VcOutcome::fail("the intact retransmit was not delivered");
  }
  if (pair.vtp_b.stats().rx_bad_checksum != 1) {
    return VcOutcome::fail("an intact segment was counted as corrupt");
  }
  return VcOutcome::pass();
}

// Two clients on different hosts, one listener: each connection stays its
// own stream even with both clients on the same source port — the tuple
// includes the peer address.
VcOutcome vc_vtp_two_clients_isolated() {
  Network net;
  NetDevice& ds = net.attach();
  NetDevice& dc1 = net.attach();
  NetDevice& dc2 = net.attach();
  IpStack ip_s(ds), ip_c1(dc1), ip_c2(dc2);
  VirtualClock clock;
  VtpStack server(ip_s, clock), c1(ip_c1, clock), c2(ip_c2, clock);
  if (!server.listen(80).ok()) {
    return VcOutcome::fail("listen failed");
  }
  auto conn1 = c1.connect(ds.addr(), 80, 1111);
  auto conn2 = c2.connect(ds.addr(), 80, 1111);
  if (!conn1.ok() || !conn2.ok()) {
    return VcOutcome::fail("connect failed");
  }
  auto tick_all = [&] {
    server.tick();
    c1.tick();
    c2.tick();
  };
  std::vector<ConnId> accepted;
  for (int i = 0; i < 600 && accepted.size() < 2; ++i) {
    tick_all();
    if (auto a = server.accept(80); a.ok()) {
      accepted.push_back(a.value());
    }
  }
  if (accepted.size() != 2) {
    return VcOutcome::fail("second connection never accepted");
  }
  (void)c1.send(conn1.value(), string_bytes("from-one"));
  (void)c2.send(conn2.value(), string_bytes("from-two"));
  std::string got1, got2;
  for (int i = 0; i < 600 && (got1.size() < 8 || got2.size() < 8); ++i) {
    tick_all();
    if (auto r = server.recv(accepted[0], 64); r.ok()) {
      got1.append(r.value().begin(), r.value().end());
    }
    if (auto r = server.recv(accepted[1], 64); r.ok()) {
      got2.append(r.value().begin(), r.value().end());
    }
  }
  // Each stream carries exactly its own client's bytes.
  bool ok = (got1 == "from-one" && got2 == "from-two") ||
            (got1 == "from-two" && got2 == "from-one");
  if (!ok) {
    return VcOutcome::fail("streams mixed across connections: '" + got1 + "' / '" + got2 + "'");
  }
  return VcOutcome::pass();
}

// No tuple aliasing: a stack never holds two live connections on one
// (peer, dst_port, src_port) tuple. An explicit duplicate is refused with
// kAlreadyExists; port 0 draws a port no live connection holds, explicit
// ports inside the ephemeral range included; and so every client stream
// lands on its own server connection, carrying exactly its own bytes.
VcOutcome vc_vtp_no_tuple_aliasing() {
  VtpPair pair;
  if (!pair.vtp_b.listen(80, 64).ok()) {
    return VcOutcome::fail("listen failed");
  }
  const NetAddr b = pair.dev_b.addr();
  std::vector<ConnId> clients;
  auto squat = pair.vtp_a.connect(b, 80, VtpStack::kEphemeralBase);
  if (!squat.ok()) {
    return VcOutcome::fail("explicit connect failed");
  }
  clients.push_back(squat.value());
  auto dup = pair.vtp_a.connect(b, 80, VtpStack::kEphemeralBase);
  if (dup.ok() || dup.error() != ErrorCode::kAlreadyExists) {
    return VcOutcome::fail("a live tuple was handed out twice");
  }
  std::set<Port> ports{VtpStack::kEphemeralBase};
  for (int i = 0; i < 16; ++i) {
    auto c = pair.vtp_a.connect(b, 80, 0);
    if (!c.ok()) {
      return VcOutcome::fail("ephemeral connect failed");
    }
    const Port port = pair.vtp_a.local_port(c.value());
    if (port == 0 || !ports.insert(port).second) {
      return VcOutcome::fail("ephemeral port " + std::to_string(port) +
                             " collides with a live connection");
    }
    clients.push_back(c.value());
  }
  // Every stream carries one tag byte: each accepted connection must read
  // exactly one tag, and every tag exactly once.
  for (usize i = 0; i < clients.size(); ++i) {
    const u8 tag = static_cast<u8>(i);
    if (!pair.vtp_a.send(clients[i], std::span<const u8>(&tag, 1)).ok()) {
      return VcOutcome::fail("send failed");
    }
  }
  pair.pump(40);
  std::set<u8> tags;
  for (usize i = 0; i < clients.size(); ++i) {
    auto s = pair.vtp_b.accept(80);
    if (!s.ok()) {
      return VcOutcome::fail(std::to_string(i) + " of " + std::to_string(clients.size()) +
                             " streams reached the listener");
    }
    auto got = pair.vtp_b.recv(s.value(), 8);
    if (!got.ok() || got.value().size() != 1 || !tags.insert(got.value()[0]).second) {
      return VcOutcome::fail("a server connection carried another stream's bytes");
    }
  }
  if (pair.vtp_b.accept(80).ok()) {
    return VcOutcome::fail("more server connections than client streams");
  }
  return VcOutcome::pass();
}

// Demux at fan-in scale, with tuple reuse. One listener host and two client
// hosts that open the same explicit source ports, so only the peer address
// tells their connections apart at the listener: 300 streams on a lossy,
// duplicating, reordering fabric, each carrying its own seeded bytes both
// ways, each direction mirrored into a PipeSpec. Mid-run a third of the
// streams close, are reaped on both ends and reconnect on their old source
// ports: a freed tuple must reach the new connection, never a stale one.
VcOutcome vc_vtp_demux_many_streams(u64 seed) {
  constexpr usize kPerHost = 150;
  constexpr usize kStreams = 2 * kPerHost;
  constexpr Port kBasePort = 20000;
  // Rounds a reaped stream waits before reconnecting, so that no segment of
  // its old incarnation is still in the fabric (VTP has no TIME_WAIT).
  constexpr usize kQuietRounds = 2 * VtpStack::kRtoTicks;
  FabricConfig config;
  config.loss_ppm = 50'000;
  config.dup_ppm = 20'000;
  config.reorder_ppm = 50'000;
  Network net(config, seed);
  NetDevice& ds = net.attach();
  NetDevice& dc0 = net.attach();
  NetDevice& dc1 = net.attach();
  IpStack ip_s(ds), ip_c0(dc0), ip_c1(dc1);
  VirtualClock clock;
  VtpStack server(ip_s, clock), c0(ip_c0, clock), c1(ip_c1, clock);
  if (!server.listen(80, kStreams).ok()) {
    return VcOutcome::fail("listen failed");
  }

  enum class Phase { kLive, kClosing, kReaped };
  struct Stream {
    VtpStack* stack = nullptr;
    Port port = 0;
    u8 gen = 0;            // incarnation: 1 once reconnected
    bool reopen = false;   // one stream in three closes and reconnects once
    Phase phase = Phase::kLive;
    usize reaped_round = 0;
    ConnId client = 0;
    ConnId server = 0;     // 0 until the listener reads the stream's tag
    std::vector<u8> up, down;  // client->server and server->client bytes
    usize up_fed = 0, down_fed = 0;
    PipeSpec up_pipe, down_pipe;

    bool done() const {
      return up_fed == up.size() && down_fed == down.size() && up_pipe.complete() &&
             down_pipe.complete();
    }
  };

  Rng rng(seed);
  std::vector<Stream> streams(kStreams);
  // Opens stream i's next incarnation. Its up bytes start with a 3-byte tag
  // (stream index, incarnation) that tells the listener which stream an
  // accepted connection carries.
  auto open = [&](usize i) -> Result<ConnId> {
    Stream& s = streams[i];
    auto c = s.stack->connect(ds.addr(), 80, s.port);
    if (!c.ok()) {
      return c.error();
    }
    s.client = c.value();
    s.server = 0;
    s.up.resize(static_cast<usize>(rng.next_range(2048, 6144)));
    s.down.resize(static_cast<usize>(rng.next_range(2048, 6144)));
    for (auto& b : s.up) {
      b = static_cast<u8>(rng.next_u64());
    }
    for (auto& b : s.down) {
      b = static_cast<u8>(rng.next_u64());
    }
    s.up[0] = static_cast<u8>(i >> 8);
    s.up[1] = static_cast<u8>(i);
    s.up[2] = s.gen;
    s.up_fed = s.down_fed = 0;
    s.up_pipe = PipeSpec{};
    s.down_pipe = PipeSpec{};
    return c;
  };
  for (usize i = 0; i < kStreams; ++i) {
    streams[i].stack = i < kPerHost ? &c0 : &c1;
    streams[i].port = static_cast<Port>(kBasePort + i % kPerHost);
    streams[i].reopen = i % 3 == 0;
    if (!open(i).ok()) {
      return VcOutcome::fail("connect of stream " + std::to_string(i) + " failed");
    }
  }

  // Sometimes sends a random chunk of `bytes` from `fed`, mirroring what the
  // stack took into the pipe. Returns a typed error other than kWouldBlock,
  // or "".
  auto feed = [&](VtpStack& stack, ConnId id, const std::vector<u8>& bytes, usize& fed,
                  PipeSpec& pipe) -> std::string {
    if (fed == bytes.size() || !rng.chance(1, 2)) {
      return "";
    }
    usize chunk = std::min<usize>(static_cast<usize>(rng.next_range(1, 512)), bytes.size() - fed);
    auto n = stack.send(id, std::span<const u8>(bytes.data() + fed, chunk));
    if (!n.ok()) {
      return n.error() == ErrorCode::kWouldBlock ? "" : error_name(n.error());
    }
    pipe.push(std::span<const u8>(bytes.data() + fed, n.value()));
    fed += n.value();
    return "";
  };
  // Pops whatever `id` has ready into the pipe. Returns why that failed (a
  // typed error other than kWouldBlock, or a FIFO violation), or "".
  auto drain = [](VtpStack& stack, ConnId id, PipeSpec& pipe) -> std::string {
    auto got = stack.recv(id, 4096);
    if (!got.ok()) {
      return got.error() == ErrorCode::kWouldBlock ? "" : error_name(got.error());
    }
    return pipe.pop(got.value()) ? "" : pipe.failure();
  };

  std::vector<std::pair<ConnId, std::vector<u8>>> untagged;  // accepted, tag not yet read
  usize reconnects = 0;
  bool quiesced = false;
  for (usize round = 0; round < 20'000 && !quiesced; ++round) {
    for (auto a = server.accept(80); a.ok(); a = server.accept(80)) {
      untagged.push_back({a.value(), {}});
    }
    for (auto it = untagged.begin(); it != untagged.end();) {
      auto& [id, tag] = *it;
      auto got = server.recv(id, 3 - tag.size());
      if (!got.ok()) {
        if (got.error() != ErrorCode::kWouldBlock) {
          return VcOutcome::fail("accepted connection failed before its tag: " +
                                 std::string(error_name(got.error())));
        }
        ++it;
        continue;
      }
      tag.insert(tag.end(), got.value().begin(), got.value().end());
      if (tag.size() < 3) {
        ++it;
        continue;
      }
      const usize i = static_cast<usize>(tag[0]) << 8 | tag[1];
      if (i >= kStreams || streams[i].gen != tag[2] || streams[i].server != 0 ||
          streams[i].phase != Phase::kLive || !streams[i].up_pipe.pop(tag)) {
        return VcOutcome::fail("an accepted connection carries no live stream's bytes");
      }
      streams[i].server = id;
      it = untagged.erase(it);
    }

    quiesced = untagged.empty();
    for (usize i = 0; i < kStreams; ++i) {
      Stream& s = streams[i];
      if (s.phase == Phase::kClosing) {
        if (s.stack->state(s.client) == VtpState::kClosed &&
            server.state(s.server) == VtpState::kClosed) {
          s.phase = Phase::kReaped;  // both ends reaped
          s.reaped_round = round;
        }
        quiesced = false;
        continue;
      }
      if (s.phase == Phase::kReaped) {
        if (round >= s.reaped_round + kQuietRounds) {
          s.gen = 1;
          s.phase = Phase::kLive;
          if (auto c = open(i); !c.ok()) {
            return VcOutcome::fail("reconnect on a reaped tuple failed: " +
                                   std::string(error_name(c.error())));
          }
          ++reconnects;
        }
        quiesced = false;
        continue;
      }
      if (auto why = feed(*s.stack, s.client, s.up, s.up_fed, s.up_pipe); !why.empty()) {
        return VcOutcome::fail("client send on stream " + std::to_string(i) + ": " + why);
      }
      if (auto why = drain(*s.stack, s.client, s.down_pipe); !why.empty()) {
        return VcOutcome::fail("server->client on stream " + std::to_string(i) + ": " + why);
      }
      if (s.server != 0) {
        if (auto why = feed(server, s.server, s.down, s.down_fed, s.down_pipe); !why.empty()) {
          return VcOutcome::fail("server send on stream " + std::to_string(i) + ": " + why);
        }
        if (auto why = drain(server, s.server, s.up_pipe); !why.empty()) {
          return VcOutcome::fail("client->server on stream " + std::to_string(i) + ": " + why);
        }
      }
      if (!s.done()) {
        quiesced = false;
      } else if (s.reopen && s.gen == 0) {
        (void)s.stack->close(s.client);
        (void)server.close(s.server);
        s.phase = Phase::kClosing;
        quiesced = false;
      }
    }
    server.tick();
    c0.tick();
    c1.tick();
  }

  if (!quiesced) {
    usize incomplete = 0;
    for (const Stream& s : streams) {
      incomplete += s.phase != Phase::kLive || !s.done();
    }
    return VcOutcome::fail(std::to_string(incomplete) + " of " + std::to_string(kStreams) +
                           " streams incomplete at quiesce");
  }
  if (reconnects != kStreams / 3) {
    return VcOutcome::fail("only " + std::to_string(reconnects) + " streams reconnected");
  }
  if (server.active_conns() != kStreams || c0.active_conns() != kPerHost ||
      c1.active_conns() != kPerHost) {
    return VcOutcome::fail("live connections differ from live streams: server " +
                           std::to_string(server.active_conns()) + ", clients " +
                           std::to_string(c0.active_conns()) + " and " +
                           std::to_string(c1.active_conns()));
  }
  return VcOutcome::pass();
}

}  // namespace

void register_vtp_vcs(VcRegistry& reg) {
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("net/vtp_header_roundtrip_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_vtp_header_roundtrip(seed); });
  }
  reg.add("net/vtp_refines_pipe_clean", VcCategory::kNetworkStack, [] {
    return vc_vtp_refines_pipe(FabricConfig{}, 42, 64 * 1024, 8'000);
  });
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("net/vtp_refines_pipe_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] {
              FabricConfig config;
              config.loss_ppm = 100'000;    // 10% loss
              config.dup_ppm = 50'000;      // 5% duplication
              config.reorder_ppm = 50'000;  // 5% reordering
              return vc_vtp_refines_pipe(config, seed, 16 * 1024, 60'000);
            });
  }
  reg.add("net/vtp_refines_pipe_partition", VcCategory::kNetworkStack, [] {
    FabricConfig config;
    config.loss_ppm = 50'000;
    config.reorder_ppm = 50'000;
    // Cut the fabric for 400 ticks mid-transfer; retransmission must carry
    // the stream across the heal.
    return vc_vtp_refines_pipe(config, 7, 16 * 1024, 60'000, 120, 400);
  });
  for (u64 seed = 1; seed <= 2; ++seed) {
    reg.add("net/vtp_window_safety_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_vtp_window_safety(seed); });
    reg.add("net/vtp_handshake_loss_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_vtp_handshake_loss(seed); });
  }
  reg.add("net/vtp_backlog_typed_overload", VcCategory::kNetworkStack,
          [] { return vc_vtp_backlog_typed_overload(); });
  reg.add("net/vtp_syn_timeout_typed", VcCategory::kNetworkStack,
          [] { return vc_vtp_syn_timeout_typed(); });
  reg.add("net/vtp_fin_semantics", VcCategory::kNetworkStack,
          [] { return vc_vtp_fin_semantics(); });
  reg.add("net/vtp_duplicate_syn_safe", VcCategory::kNetworkStack,
          [] { return vc_vtp_duplicate_syn_safe(); });
  reg.add("net/vtp_drops_corruption", VcCategory::kNetworkStack,
          [] { return vc_vtp_drops_corruption(); });
  reg.add("net/vtp_two_clients_isolated", VcCategory::kNetworkStack,
          [] { return vc_vtp_two_clients_isolated(); });
  reg.add("net/vtp_no_tuple_aliasing", VcCategory::kNetworkStack,
          [] { return vc_vtp_no_tuple_aliasing(); });
  for (u64 seed = 1; seed <= 3; ++seed) {
    reg.add("net/vtp_demux_many_streams_seed" + std::to_string(seed), VcCategory::kNetworkStack,
            [seed] { return vc_vtp_demux_many_streams(seed); });
  }
}

}  // namespace vnros
