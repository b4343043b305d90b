// VTP connection chaos (ctest label: chaos-vtp): a seeded adversarial
// schedule over a pair of VTP stacks — concurrent connections opening,
// transferring, and closing while the fabric drops/duplicates/reorders,
// partitions cut and heal mid-stream, and both VTP fault sites
// ("net/vtp_handshake" drops handshake steps, "net/vtp_segment" drops
// outbound segments at the stack boundary) are armed. The checker is the
// pipe-refinement spec applied per connection per direction at every pop:
// every byte an application reads must extend the exact prefix of what the
// peer pushed (safety), and at quiesce — faults disarmed, partitions healed
// — every connection that survived must have delivered both streams in full
// and every connection must be reaped by both stacks (liveness). Connections
// the adversary kills (typed kTimedOut / kConnReset / kOverloaded) are
// legitimate outcomes; silent corruption, reordering past the spec, or an
// unreaped connection is not. A failure prints the seed; replay with
//   VNROS_CHAOS_SEED=0x... ./chaos_vtp_test --gtest_filter='*ReplayFromEnv*'
// (the same variable chaos_test reads).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/fault.h"
#include "src/base/rng.h"
#include "src/hw/network.h"
#include "src/hw/timer.h"
#include "src/net/ip.h"
#include "src/net/vtp.h"
#include "src/spec/pipe.h"

namespace vnros {
namespace {

struct VtpChaosConfig {
  u64 seed = 1;
  usize steps = 1200;            // scheduled adversary steps before quiesce
  usize max_lanes = 6;           // concurrent connection bound
  usize lane_bytes_min = 256;    // stream length per direction, per lane
  usize lane_bytes_max = 6144;
  u64 open_ppm = 60'000;         // per-step new-connection probability
  u64 close_ppm = 6'000;         // per-step early-close of a random live lane
  u64 partition_ppm = 3'000;     // per-step fabric cut (heals after partition_len)
  usize partition_len = 120;
  u64 loss_ppm = 60'000;
  u64 dup_ppm = 30'000;
  u64 reorder_ppm = 30'000;
  u64 handshake_fault_ppm = 60'000;
  u64 segment_fault_ppm = 20'000;
  usize quiesce_budget = 60'000;  // ticks to drain after the schedule ends
};

// Every field below is a pure function of the config (SameSeedSameSchedule
// compares reports field-for-field).
struct VtpChaosReport {
  bool ok = false;
  std::string message;
  u64 opened = 0;        // connects issued by the schedule
  u64 established = 0;   // lanes bound end-to-end (tag byte delivered)
  u64 aborted = 0;       // lanes killed by a typed terminal error
  u64 completed = 0;     // lanes that delivered both streams in full
  u64 early_closed = 0;  // lanes the schedule closed before completion
  u64 partitions = 0;
  u64 bytes_ab = 0;      // prefix-checked delivered bytes, client->server
  u64 bytes_ba = 0;
  u64 faults_armed = 0;
  u64 fault_fires = 0;
  u64 retransmits = 0;
  u64 window_violations = 0;
};

constexpr Port kPort = 80;

// One scheduled connection. The first byte of the a->b stream is the lane
// tag, which is how an accepted (otherwise anonymous) server-side conn is
// bound back to the lane that opened it.
struct Lane {
  u8 tag = 0;
  ConnId client = 0;
  ConnId server = 0;
  bool bound = false;
  bool closed = false;  // close() issued on both ends
  bool dead = false;    // typed terminal error observed
  bool early = false;   // closed by the schedule, not by completion
  std::vector<u8> ab, ba;
  usize fed_ab = 0, fed_ba = 0;
  PipeSpec pipe_ab, pipe_ba;
};

struct Harness {
  Network net;
  NetDevice& dev_a;
  NetDevice& dev_b;
  IpStack ip_a;
  IpStack ip_b;
  VirtualClock clock;
  VtpStack vtp_a;  // client side
  VtpStack vtp_b;  // server side

  Harness(FabricConfig fabric, u64 fabric_seed)
      : net(fabric, fabric_seed),
        dev_a(net.attach()),
        dev_b(net.attach()),
        ip_a(dev_a),
        ip_b(dev_b),
        vtp_a(ip_a, clock),
        vtp_b(ip_b, clock) {}

  void pump() {
    vtp_a.tick();
    vtp_b.tick();
  }
};

bool terminal(ErrorCode e) {
  return e != ErrorCode::kOk && e != ErrorCode::kWouldBlock && e != ErrorCode::kPipeClosed;
}

VtpChaosReport run_vtp_chaos(const VtpChaosConfig& cfg) {
  VtpChaosReport rep;
  auto fail = [&](std::string why) {
    rep.ok = false;
    rep.message = "seed 0x" + std::to_string(cfg.seed) + ": " + std::move(why);
    return rep;
  };

  FaultRegistry& faults = FaultRegistry::global();
  faults.disarm_all();
  faults.reseed(cfg.seed ^ 0xFA17'F17Eull);
  faults.reset_stats();
  if (cfg.handshake_fault_ppm > 0) {
    faults.arm("net/vtp_handshake", FaultSpec{.probability_ppm = cfg.handshake_fault_ppm});
    ++rep.faults_armed;
  }
  if (cfg.segment_fault_ppm > 0) {
    faults.arm("net/vtp_segment", FaultSpec{.probability_ppm = cfg.segment_fault_ppm});
    ++rep.faults_armed;
  }

  FabricConfig fabric;
  fabric.loss_ppm = cfg.loss_ppm;
  fabric.dup_ppm = cfg.dup_ppm;
  fabric.reorder_ppm = cfg.reorder_ppm;
  Harness h(fabric, cfg.seed ^ 0x4E45'54ull);
  Rng rng(cfg.seed);

  if (!h.vtp_b.listen(kPort, cfg.max_lanes + 8).ok()) {
    return fail("listen failed");
  }

  std::vector<Lane> lanes;
  std::vector<ConnId> unbound;  // accepted server conns awaiting their tag byte
  usize heal_at = 0;
  bool cut = false;

  auto live_lanes = [&] {
    usize n = 0;
    for (const Lane& l : lanes) {
      n += (!l.closed && !l.dead) ? 1 : 0;
    }
    return n;
  };
  auto kill_lane = [&](Lane& l) {
    if (!l.dead) {
      l.dead = true;
      ++rep.aborted;
    }
    if (l.client != 0) {
      (void)h.vtp_a.close(l.client);
    }
    if (l.bound && l.server != 0) {
      (void)h.vtp_b.close(l.server);
    }
    l.closed = true;
  };
  // Pop ready bytes on both directions of a bound lane, checking each pop
  // against the pushed stream the instant it happens.
  auto drain_lane = [&](Lane& l) -> const char* {
    if (l.dead || !l.bound) {
      return nullptr;
    }
    if (auto got = h.vtp_b.recv(l.server, static_cast<usize>(rng.next_range(1, 2000)));
        got.ok()) {
      if (!l.pipe_ab.pop(got.value())) {
        return "a->b violates the pipe spec";
      }
      rep.bytes_ab += got.value().size();
    } else if (terminal(got.error())) {
      kill_lane(l);
      return nullptr;
    }
    if (l.dead || l.closed) {
      return nullptr;
    }
    if (auto got = h.vtp_a.recv(l.client, static_cast<usize>(rng.next_range(1, 2000)));
        got.ok()) {
      if (!l.pipe_ba.pop(got.value())) {
        return "b->a violates the pipe spec";
      }
      rep.bytes_ba += got.value().size();
    } else if (terminal(got.error())) {
      kill_lane(l);
    }
    return nullptr;
  };
  // Accept anything queued, then bind unbound server conns by reading the
  // one-byte lane tag that leads every a->b stream.
  auto accept_and_bind = [&] {
    while (true) {
      auto a = h.vtp_b.accept(kPort);
      if (!a.ok()) {
        break;
      }
      unbound.push_back(a.value());
    }
    for (usize i = 0; i < unbound.size();) {
      auto got = h.vtp_b.recv(unbound[i], 1);
      if (!got.ok()) {
        if (terminal(got.error()) || got.error() == ErrorCode::kPipeClosed) {
          (void)h.vtp_b.close(unbound[i]);
          unbound.erase(unbound.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
        continue;
      }
      u8 tag = got.value().at(0);
      Lane* lane = nullptr;
      for (Lane& l : lanes) {
        if (l.tag == tag && !l.bound && !l.dead) {
          lane = &l;
          break;
        }
      }
      if (lane == nullptr) {
        // A dead or duplicate lane's conn: nothing to bind it to.
        (void)h.vtp_b.close(unbound[i]);
      } else {
        lane->server = unbound[i];
        lane->bound = true;
        ++rep.established;
        if (!lane->pipe_ab.pop(got.value())) {
          lane->dead = true;  // tag byte itself broke the prefix
        }
        rep.bytes_ab += 1;
      }
      unbound.erase(unbound.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };
  auto feed_lane = [&](Lane& l) {
    if (l.dead || l.closed) {
      return;
    }
    if (l.fed_ab < l.ab.size() && rng.chance(1, 2)) {
      usize chunk = std::min<usize>(static_cast<usize>(rng.next_range(1, 1200)),
                                    l.ab.size() - l.fed_ab);
      auto n = h.vtp_a.send(l.client, std::span<const u8>(l.ab.data() + l.fed_ab, chunk));
      if (n.ok()) {
        l.pipe_ab.push(std::span<const u8>(l.ab.data() + l.fed_ab, n.value()));
        l.fed_ab += n.value();
      } else if (terminal(n.error())) {
        kill_lane(l);
        return;
      }
    }
    if (l.bound && l.fed_ba < l.ba.size() && rng.chance(1, 2)) {
      usize chunk = std::min<usize>(static_cast<usize>(rng.next_range(1, 1200)),
                                    l.ba.size() - l.fed_ba);
      auto n = h.vtp_b.send(l.server, std::span<const u8>(l.ba.data() + l.fed_ba, chunk));
      if (n.ok()) {
        l.pipe_ba.push(std::span<const u8>(l.ba.data() + l.fed_ba, n.value()));
        l.fed_ba += n.value();
      } else if (terminal(n.error())) {
        kill_lane(l);
      }
    }
  };
  auto lane_done = [&](const Lane& l) {
    return l.bound && l.fed_ab == l.ab.size() && l.fed_ba == l.ba.size() &&
           l.pipe_ab.complete() && l.pipe_ba.complete();
  };

  // --- Scheduled adversary phase --------------------------------------------
  for (usize step = 0; step < cfg.steps; ++step) {
    if (cut && step >= heal_at) {
      h.net.heal(h.dev_a.addr(), h.dev_b.addr());
      cut = false;
    }
    if (!cut && rng.chance_ppm(cfg.partition_ppm)) {
      h.net.partition(h.dev_a.addr(), h.dev_b.addr());
      heal_at = step + cfg.partition_len;
      cut = true;
      ++rep.partitions;
    }
    if (lanes.size() < 250 && live_lanes() < cfg.max_lanes && rng.chance_ppm(cfg.open_ppm)) {
      Lane l;
      l.tag = static_cast<u8>(lanes.size());
      usize len_ab = static_cast<usize>(rng.next_range(cfg.lane_bytes_min, cfg.lane_bytes_max));
      usize len_ba = static_cast<usize>(rng.next_range(cfg.lane_bytes_min, cfg.lane_bytes_max));
      l.ab.resize(len_ab);
      l.ba.resize(len_ba);
      for (auto& b : l.ab) {
        b = static_cast<u8>(rng.next_u64());
      }
      for (auto& b : l.ba) {
        b = static_cast<u8>(rng.next_u64());
      }
      l.ab[0] = l.tag;  // the binding byte leads the stream
      auto c = h.vtp_a.connect(h.dev_b.addr(), kPort,
                               static_cast<Port>(5000 + lanes.size()));
      if (c.ok()) {
        l.client = c.value();
        lanes.push_back(std::move(l));
        ++rep.opened;
      }
    }
    accept_and_bind();
    for (Lane& l : lanes) {
      feed_lane(l);
      if (const char* why = drain_lane(l)) {
        return fail(why);
      }
      // A client-side typed death (SYN exhaustion across a partition, a
      // backlog shed, a reset) shows up on conn_error even with no recv.
      if (!l.dead && !l.closed && terminal(h.vtp_a.conn_error(l.client))) {
        kill_lane(l);
      }
      if (!l.closed && !l.dead && lane_done(l)) {
        (void)h.vtp_a.close(l.client);
        (void)h.vtp_b.close(l.server);
        l.closed = true;
      }
    }
    if (rng.chance_ppm(cfg.close_ppm) && !lanes.empty()) {
      Lane& l = lanes[static_cast<usize>(rng.next_below(lanes.size()))];
      if (!l.closed && !l.dead) {
        (void)h.vtp_a.close(l.client);
        if (l.bound) {
          (void)h.vtp_b.close(l.server);
        }
        l.closed = true;
        l.early = true;
        ++rep.early_closed;
      }
    }
    h.pump();
  }

  // --- Quiesce: fair adversary from here on ---------------------------------
  // Disarm the fault sites and heal the fabric, then drain. Every lane the
  // adversary didn't kill or early-close must now finish both streams, and
  // both stacks must reap every connection.
  rep.fault_fires = faults.site("net/vtp_handshake").stats().fires +
                    faults.site("net/vtp_segment").stats().fires;
  faults.disarm_all();
  h.net.heal_all();

  for (usize t = 0; t < cfg.quiesce_budget; ++t) {
    accept_and_bind();
    bool all_settled = unbound.empty();
    for (Lane& l : lanes) {
      feed_lane(l);
      if (const char* why = drain_lane(l)) {
        return fail(why);
      }
      if (!l.dead && !l.closed && terminal(h.vtp_a.conn_error(l.client))) {
        kill_lane(l);
      }
      if (!l.closed && !l.dead && lane_done(l)) {
        (void)h.vtp_a.close(l.client);
        (void)h.vtp_b.close(l.server);
        l.closed = true;
      }
      // Abandoned lanes still hold their endpoints open: an error-state conn
      // never reaps itself (close() releases it), and a closing conn with
      // unread inbound bytes won't reap until its application drains them —
      // discard-read like a real app tearing down.
      if (l.closed || l.dead) {
        if (l.client != 0) {
          if (h.vtp_a.conn_error(l.client) != ErrorCode::kOk) {
            (void)h.vtp_a.close(l.client);
          } else {
            (void)h.vtp_a.recv(l.client, 4096);
          }
        }
        if (l.server != 0) {
          if (h.vtp_b.conn_error(l.server) != ErrorCode::kOk) {
            (void)h.vtp_b.close(l.server);
          } else {
            (void)h.vtp_b.recv(l.server, 4096);
          }
        }
      }
      all_settled = all_settled && (l.closed || l.dead);
    }
    h.pump();
    if (all_settled && h.vtp_a.active_conns() == 0 && h.vtp_b.active_conns() == 0) {
      break;
    }
  }

  for (const Lane& l : lanes) {
    if (l.dead || l.early) {
      continue;
    }
    if (!lane_done(l)) {
      return fail("lane " + std::to_string(l.tag) + " incomplete at quiesce: a->b " +
                  std::to_string(l.pipe_ab.delivered_len()) + "/" +
                  std::to_string(l.ab.size()) + ", b->a " +
                  std::to_string(l.pipe_ba.delivered_len()) + "/" +
                  std::to_string(l.ba.size()));
    }
    ++rep.completed;
  }
  if (h.vtp_a.active_conns() != 0 || h.vtp_b.active_conns() != 0) {
    std::string detail;
    for (const Lane& l : lanes) {
      auto sa = h.vtp_a.state(l.client);
      auto sb = l.server != 0 ? h.vtp_b.state(l.server) : VtpState::kClosed;
      if (sa != VtpState::kClosed || sb != VtpState::kClosed) {
        detail += " lane" + std::to_string(l.tag) + "[a=" +
                  std::to_string(static_cast<int>(sa)) + " b=" +
                  std::to_string(static_cast<int>(sb)) + " bound=" +
                  std::to_string(l.bound) + " closed=" + std::to_string(l.closed) +
                  " dead=" + std::to_string(l.dead) + " early=" + std::to_string(l.early) +
                  "]";
      }
    }
    return fail("connections unreaped at quiesce: a=" +
                std::to_string(h.vtp_a.active_conns()) + " b=" +
                std::to_string(h.vtp_b.active_conns()) + detail);
  }
  rep.window_violations =
      h.vtp_a.stats().window_violations + h.vtp_b.stats().window_violations;
  if (rep.window_violations != 0) {
    return fail("window safety violated under chaos");
  }
  rep.retransmits = h.vtp_a.stats().retransmits + h.vtp_b.stats().retransmits;
  rep.ok = true;
  rep.message = "ok";
  return rep;
}

VtpChaosConfig vtp_config(u64 seed) {
  VtpChaosConfig c;
  c.seed = seed;
  return c;
}

VtpChaosReport expect_vtp_ok(u64 seed) {
  VtpChaosReport r = run_vtp_chaos(vtp_config(seed));
  EXPECT_TRUE(r.ok) << r.message;
  // A schedule that opened nothing (or delivered nothing) tested nothing.
  EXPECT_GT(r.opened, 0u) << "seed 0x" << std::hex << seed;
  EXPECT_GT(r.established, 0u) << "seed 0x" << std::hex << seed;
  EXPECT_GT(r.bytes_ab + r.bytes_ba, 0u) << "seed 0x" << std::hex << seed;
  return r;
}

TEST(ChaosVtpTest, Seed0001) { expect_vtp_ok(0x0001); }
TEST(ChaosVtpTest, Seed00C2) { expect_vtp_ok(0x00C2); }
TEST(ChaosVtpTest, Seed0303) { expect_vtp_ok(0x0303); }
TEST(ChaosVtpTest, SeedBEEF) { expect_vtp_ok(0xBEEF); }
TEST(ChaosVtpTest, SeedD00D) { expect_vtp_ok(0xD00D); }
TEST(ChaosVtpTest, SeedFEED5EED) { expect_vtp_ok(0xFEED5EED); }
TEST(ChaosVtpTest, SeedCAFE0007) { expect_vtp_ok(0xCAFE0007); }
TEST(ChaosVtpTest, SeedA11C0DE8) { expect_vtp_ok(0xA11C0DE8); }

// Across the matrix the VTP fault sites must actually arm and fire, and the
// protocol must visibly be repairing damage — otherwise this suite has
// silently stopped testing what it claims to.
TEST(ChaosVtpTest, MatrixArmsAndFiresVtpFaults) {
  const u64 seeds[] = {0x0001, 0x00C2, 0x0303, 0xBEEF};
  u64 armed = 0, fired = 0, retransmits = 0;
  for (u64 seed : seeds) {
    VtpChaosReport r = run_vtp_chaos(vtp_config(seed));
    ASSERT_TRUE(r.ok) << r.message;
    armed += r.faults_armed;
    fired += r.fault_fires;
    retransmits += r.retransmits;
  }
  EXPECT_EQ(armed, 8u);  // both sites, every seed
  EXPECT_GT(fired, 0u);
  EXPECT_GT(retransmits, 0u);
}

// Determinism: the whole run — connection lifecycle, delivered bytes, fault
// fires, even the retransmit count — is a pure function of the seed.
TEST(ChaosVtpTest, SameSeedSameSchedule) {
  VtpChaosReport a = run_vtp_chaos(vtp_config(0xD5EED));
  VtpChaosReport b = run_vtp_chaos(vtp_config(0xD5EED));
  ASSERT_TRUE(a.ok) << a.message;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.opened, b.opened);
  EXPECT_EQ(a.established, b.established);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.early_closed, b.early_closed);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.bytes_ab, b.bytes_ab);
  EXPECT_EQ(a.bytes_ba, b.bytes_ba);
  EXPECT_EQ(a.faults_armed, b.faults_armed);
  EXPECT_EQ(a.fault_fires, b.fault_fires);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.window_violations, b.window_violations);
}

// Replay hook: VNROS_CHAOS_SEED=0x... reruns exactly the schedule a failing
// matrix entry printed.
TEST(ChaosVtpTest, ReplayFromEnv) {
  const char* env = std::getenv("VNROS_CHAOS_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set VNROS_CHAOS_SEED=0x... to replay a failing schedule";
  }
  u64 seed = std::strtoull(env, nullptr, 0);
  VtpChaosReport r = run_vtp_chaos(vtp_config(seed));
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace vnros
