// The chaos suite (ctest label: chaos): seeded adversarial schedules against
// a replicated block-store cluster (src/app/chaos.h). Every client op rides
// the VTP stream plane the benchmark measures, so each schedule checks that
// path under crashes, partitions and injected faults, and every node is a
// ring member replicating with acked pushes and hints. One table of four
// presets runs the same eight frozen seeds:
//   legacy — a fixed 3-member ring with every key on every member: crashes
//            with partial persistence and torn sectors, dirty reboots,
//            partitions, disk/syscall/OOM faults;
//   churn  — seeded joins and graceful leaves plus serve-delay stalls on
//            top of the legacy adversity;
//   heal   — churn plus a delete-heavy mix, silent bit-rot, partition flap
//            storms, slow peers, background Merkle repair and converged-
//            state checks at quiesce (DESIGN.md §11.3);
//   ring   — heal with both SysRing fault sites armed (submit kills and
//            completion deferrals across the async syscall data plane).
// Every preset re-images a wiped disk over the wire with Merkle passes and
// checks each read's bytes against the write that owns its stamp.
// A failure prints the seed; replay it under every preset with
//   VNROS_CHAOS_SEED=0x... ./chaos_test --gtest_filter='*ReplayFromEnv*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/app/blockstore.h"
#include "src/app/chaos.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

namespace vnros {
namespace {

std::vector<u8> bytes(std::string_view s) { return std::vector<u8>(s.begin(), s.end()); }

// --- Presets -------------------------------------------------------------------

ChaosConfig legacy_config(u64 seed) {
  ChaosConfig c;
  c.seed = seed;
  c.replication = 3;  // every member owns every key
  return c;
}

ChaosConfig churn_config(u64 seed) {
  ChaosConfig c;
  c.seed = seed;
  c.nodes = 3;
  c.steps = 300;
  c.keys = 12;
  c.check_every = 60;
  c.replication = 2;
  c.max_nodes = 6;
  c.join_ppm = 35'000;
  c.leave_ppm = 35'000;
  c.delay_ppm = 30'000;
  c.delay_polls_max = 64;
  return c;
}

ChaosConfig heal_config(u64 seed) {
  ChaosConfig c;
  c.seed = seed;
  c.nodes = 3;
  c.steps = 300;
  c.keys = 12;
  c.check_every = 60;
  c.replication = 2;
  c.max_nodes = 6;
  c.join_ppm = 25'000;
  c.leave_ppm = 25'000;
  c.delay_ppm = 20'000;
  c.delay_polls_max = 64;
  c.heal = true;
  c.del_heavy = true;  // 5/3/2 put/get/del: deletes are first-class load
  c.bit_rot_ppm = 30'000;
  c.bit_rot_bytes_max = 8;
  c.flap_ppm = 15'000;
  c.flap_toggles_max = 8;
  c.slow_peer_ppm = 15'000;
  c.slow_peer_polls = 12;
  c.slow_spell_steps_max = 40;
  c.gc_every = 2;
  return c;
}

ChaosConfig ring_config(u64 seed) {
  ChaosConfig c;
  c.seed = seed;
  c.nodes = 3;
  c.steps = 250;
  c.keys = 12;
  c.check_every = 50;
  c.replication = 2;
  c.max_nodes = 6;
  c.join_ppm = 20'000;
  c.leave_ppm = 20'000;
  c.heal = true;
  c.del_heavy = true;
  c.bit_rot_ppm = 20'000;
  c.flap_ppm = 10'000;
  c.gc_every = 2;
  // Ring faults fire often enough that most schedules hit several submit
  // kills and completion deferrals.
  c.ring_submit_fault_ppm = 80'000;
  c.ring_complete_fault_ppm = 80'000;
  return c;
}

using PresetFn = ChaosConfig (*)(u64 seed);

struct Preset {
  const char* name;
  PresetFn config;
};

constexpr Preset kPresets[] = {{"legacy", legacy_config},
                               {"churn", churn_config},
                               {"heal", heal_config},
                               {"ring", ring_config}};

// The frozen seed matrix every preset runs. A seed replays its schedule
// exactly, so each (preset, seed) cell either always passes or always fails.
constexpr u64 kSeeds[] = {0x0001, 0x00C2,     0x0303,     0xBEEF,
                          0xD00D, 0xFEED5EED, 0xCAFE0007, 0xA11C0DE8};

void expect_clean_run(const ChaosConfig& config) {
  ChaosReport r = run_chaos(config);
  EXPECT_TRUE(r.ok) << r.message;
  // A schedule that exercised nothing proves nothing.
  EXPECT_GT(r.ops_ok, 0u);
  EXPECT_GT(r.checks, 0u);
}

// Runs `seeds` under one preset; every schedule must pass.
std::vector<ChaosReport> run_matrix(PresetFn config, std::span<const u64> seeds) {
  std::vector<ChaosReport> reports;
  for (u64 seed : seeds) {
    reports.push_back(run_chaos(config(seed)));
    EXPECT_TRUE(reports.back().ok) << reports.back().message;
  }
  return reports;
}

// One counter summed across a matrix. Per-seed counts vary; the aggregate
// is what a matrix guarantees.
u64 total(const std::vector<ChaosReport>& reports, u64 ChaosReport::*field) {
  u64 sum = 0;
  for (const ChaosReport& r : reports) {
    sum += r.*field;
  }
  return sum;
}

// Determinism is the contract that makes a printed seed useful: two runs of
// one config produce the same schedule and the same outcome, field for
// field — the span trace (it rides the client kernel's virtual clock) and
// the client's stream reconnects included.
void expect_same_schedule(const ChaosConfig& config) {
  ChaosReport a = run_chaos(config);
  ChaosReport b = run_chaos(config);
  ASSERT_TRUE(a.ok) << a.message;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.message, b.message);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_failed, b.ops_failed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.reimages, b.reimages);
  EXPECT_EQ(a.partitions, b.partitions);
  EXPECT_EQ(a.heals, b.heals);
  EXPECT_EQ(a.faults_armed, b.faults_armed);
  EXPECT_EQ(a.fault_fires, b.fault_fires);
  EXPECT_EQ(a.read_repairs, b.read_repairs);
  EXPECT_EQ(a.replicas_pushed, b.replicas_pushed);
  EXPECT_EQ(a.replicas_applied, b.replicas_applied);
  EXPECT_EQ(a.corrupt_reads, b.corrupt_reads);
  EXPECT_EQ(a.spans_recorded, b.spans_recorded);
  EXPECT_EQ(a.client_failovers, b.client_failovers);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_EQ(a.client_reconnects, b.client_reconnects);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.aborted_leaves, b.aborted_leaves);
  EXPECT_EQ(a.rebalanced, b.rebalanced);
  EXPECT_EQ(a.hints_written, b.hints_written);
  EXPECT_EQ(a.hints_delivered, b.hints_delivered);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.stale_ignored, b.stale_ignored);
  EXPECT_EQ(a.delays_armed, b.delays_armed);
  EXPECT_EQ(a.tombstones_written, b.tombstones_written);
  EXPECT_EQ(a.tombstones_gced, b.tombstones_gced);
  EXPECT_EQ(a.hints_dropped, b.hints_dropped);
  EXPECT_EQ(a.bit_rot_reads, b.bit_rot_reads);
  EXPECT_EQ(a.flaps, b.flaps);
  EXPECT_EQ(a.slow_spells, b.slow_spells);
  EXPECT_EQ(a.ae_passes, b.ae_passes);
  EXPECT_EQ(a.ae_clean_passes, b.ae_clean_passes);
  EXPECT_EQ(a.ae_pulled, b.ae_pulled);
  EXPECT_EQ(a.ae_pushed, b.ae_pushed);
  EXPECT_EQ(a.ae_bytes, b.ae_bytes);
  EXPECT_EQ(a.lin_reads_checked, b.lin_reads_checked);
  EXPECT_EQ(a.acked_floor_drops, b.acked_floor_drops);
}

// --- legacy ----------------------------------------------------------------------

// The legacy suite predates the preset table and keeps its test names.
TEST(ChaosTest, Seed1) { expect_clean_run(legacy_config(kSeeds[0])); }
TEST(ChaosTest, Seed2) { expect_clean_run(legacy_config(kSeeds[1])); }
TEST(ChaosTest, Seed3) { expect_clean_run(legacy_config(kSeeds[2])); }
TEST(ChaosTest, Seed4) { expect_clean_run(legacy_config(kSeeds[3])); }
TEST(ChaosTest, Seed5) { expect_clean_run(legacy_config(kSeeds[4])); }
TEST(ChaosTest, Seed6) { expect_clean_run(legacy_config(kSeeds[5])); }
TEST(ChaosTest, Seed7) { expect_clean_run(legacy_config(kSeeds[6])); }
TEST(ChaosTest, Seed8) { expect_clean_run(legacy_config(kSeeds[7])); }

// The matrix must cover every adversity class the harness models — and the
// client's streams must actually die and come back — or it has silently
// stopped testing what it claims to.
TEST(ChaosTest, MatrixCoversAllAdversityClasses) {
  auto m = run_matrix(legacy_config, kSeeds);
  EXPECT_GT(total(m, &ChaosReport::crashes), 0u) << "no schedule ever crashed a node";
  EXPECT_GT(total(m, &ChaosReport::partitions), 0u) << "no schedule ever cut a link";
  EXPECT_GT(total(m, &ChaosReport::heals), 0u) << "no schedule ever healed a cut";
  EXPECT_GT(total(m, &ChaosReport::faults_armed), 0u) << "no schedule ever armed a fault";
  EXPECT_GT(total(m, &ChaosReport::fault_fires), 0u) << "armed faults never fired";
  EXPECT_GT(total(m, &ChaosReport::client_reconnects), 0u)
      << "no crash ever reset a client stream";
}

TEST(ChaosTest, SameSeedSameSchedule) { expect_same_schedule(legacy_config(0xBEEF)); }

// Replay hook: VNROS_CHAOS_SEED=<decimal or 0x-hex> reruns that seed under
// every preset (a failing run prints it). Without the variable this is a
// no-op, so it is safe in the fixed matrix.
TEST(ChaosTest, ReplayFromEnv) {
  const char* env = std::getenv("VNROS_CHAOS_SEED");
  if (env == nullptr) {
    GTEST_SKIP() << "set VNROS_CHAOS_SEED to replay a failing schedule";
  }
  u64 seed = std::stoull(std::string(env), nullptr, 0);
  for (const Preset& p : kPresets) {
    ChaosReport r = run_chaos(p.config(seed));
    EXPECT_TRUE(r.ok) << p.name << ": " << r.message;
  }
}

// --- churn, heal, ring ------------------------------------------------------------

// One test per (preset, seed) cell.
#define VNROS_CHAOS_SEED_TESTS(Suite, config)                         \
  TEST(Suite, Seed0001) { expect_clean_run(config(0x0001)); }         \
  TEST(Suite, Seed00C2) { expect_clean_run(config(0x00C2)); }         \
  TEST(Suite, Seed0303) { expect_clean_run(config(0x0303)); }         \
  TEST(Suite, SeedBEEF) { expect_clean_run(config(0xBEEF)); }         \
  TEST(Suite, SeedD00D) { expect_clean_run(config(0xD00D)); }         \
  TEST(Suite, SeedFEED5EED) { expect_clean_run(config(0xFEED5EED)); } \
  TEST(Suite, SeedCAFE0007) { expect_clean_run(config(0xCAFE0007)); } \
  TEST(Suite, SeedA11C0DE8) { expect_clean_run(config(0xA11C0DE8)); }

VNROS_CHAOS_SEED_TESTS(ChaosChurnTest, churn_config)
VNROS_CHAOS_SEED_TESTS(ChaosHealTest, heal_config)
VNROS_CHAOS_SEED_TESTS(ChaosRingTest, ring_config)

// Joins and leaves happen, rebalancing moves shards, partitions force
// hinted handoff, and latency stalls are injected.
TEST(ChaosChurnTest, MatrixExercisesChurn) {
  auto m = run_matrix(churn_config, kSeeds);
  EXPECT_GT(total(m, &ChaosReport::joins), 0u);
  EXPECT_GT(total(m, &ChaosReport::leaves), 0u);
  EXPECT_GT(total(m, &ChaosReport::rebalanced), 0u);
  EXPECT_GT(total(m, &ChaosReport::hints_written), 0u);
  EXPECT_GT(total(m, &ChaosReport::delays_armed), 0u);
  EXPECT_GT(total(m, &ChaosReport::crashes), 0u);
  EXPECT_GT(total(m, &ChaosReport::partitions), 0u);
}

// With the admission gate rationed well below the offered load, nodes must
// shed (kOverloaded) — and shedding stays a liveness event, never a safety
// one: the durability invariant holds and the run completes.
TEST(ChaosChurnTest, AdmissionShedsWithoutDurabilityLoss) {
  ChaosConfig c = churn_config(0x0AD5'10AD);
  c.admission_rate_ppm = 300'000;  // 0.3 op/step/node vs ~1 op + replicas offered
  c.admission_burst = 2;
  ChaosReport r = run_chaos(c);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GT(r.sheds, 0u);
}

TEST(ChaosChurnTest, SameSeedSameSchedule) {
  ChaosConfig c = churn_config(0xBEEF);
  c.admission_rate_ppm = 2'000'000;  // churn with the admission gate on
  expect_same_schedule(c);
}

// Tombstones are written and reclaimed, bit-rot flips read bytes (caught by
// the block crc, never served), flap storms and slow spells run,
// anti-entropy repairs, and the lin checker validates reads.
TEST(ChaosHealTest, MatrixExercisesHealing) {
  auto m = run_matrix(heal_config, kSeeds);
  EXPECT_GT(total(m, &ChaosReport::tombstones_written), 0u);
  EXPECT_GT(total(m, &ChaosReport::tombstones_gced), 0u);
  EXPECT_GT(total(m, &ChaosReport::bit_rot_reads), 0u);
  EXPECT_GT(total(m, &ChaosReport::flaps), 0u);
  EXPECT_GT(total(m, &ChaosReport::slow_spells), 0u);
  EXPECT_GT(total(m, &ChaosReport::ae_passes), 0u);
  EXPECT_GT(total(m, &ChaosReport::ae_clean_passes), 0u);
  EXPECT_GT(total(m, &ChaosReport::ae_pulled) + total(m, &ChaosReport::ae_pushed), 0u);
  EXPECT_GT(total(m, &ChaosReport::ae_bytes), 0u);
  EXPECT_GT(total(m, &ChaosReport::lin_reads_checked), 0u);
  EXPECT_GT(total(m, &ChaosReport::crashes), 0u);
  EXPECT_GT(total(m, &ChaosReport::partitions), 0u);
}

TEST(ChaosHealTest, SameSeedSameSchedule) { expect_same_schedule(heal_config(0xBEEF)); }

// Ring faults must actually be armed and fired.
TEST(ChaosRingTest, MatrixArmsAndFiresRingFaults) {
  auto m = run_matrix(ring_config, std::span<const u64>(kSeeds).first(4));
  EXPECT_GT(total(m, &ChaosReport::faults_armed), 0u);
  EXPECT_GT(total(m, &ChaosReport::fault_fires), 0u);
}

TEST(ChaosRingTest, SameSeedSameSchedule) { expect_same_schedule(ring_config(0xBEEF)); }

// --- Membership changes racing an in-flight put ------------------------------------
// The change runs from inside the client's pump callback, i.e. while the
// put's request is on the wire — the tightest interleaving the simulation
// can express.

struct Host {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  explicit Host(Network* net) : kernel(config_of(net)), disp(kernel), pid(spawn(disp)),
                                sys(disp, pid, 0) {}

  static KernelConfig config_of(Network* net) {
    KernelConfig c;
    c.network = net;
    return c;
  }

  static Pid spawn(SyscallDispatcher& disp) {
    Sys boot(disp, kInvalidPid, 0);
    auto p = boot.spawn();
    EXPECT_TRUE(p.ok());
    return p.value();
  }
};

struct ChurnCluster {
  Network net;
  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<std::unique_ptr<BlockStoreNode>> nodes;
  std::vector<bool> active;
  ClusterView view;
  std::function<void()> on_pump;  // churn hook: runs at the start of each client poll

  explicit ChurnCluster(usize n, usize replication) {
    view.replication = replication;
    for (usize i = 0; i < n; ++i) {
      add_member();
    }
    for (usize i = 0; i < n; ++i) {
      nodes[i]->set_cluster_view(view);
    }
  }

  BsNodeId add_member() {
    BsNodeId id = static_cast<BsNodeId>(nodes.size());
    Port port = static_cast<Port>(9200 + id);
    usize slot = nodes.size();
    hosts.push_back(std::make_unique<Host>(&net));
    nodes.push_back(std::make_unique<BlockStoreNode>(
        hosts[slot]->sys, port, std::vector<BsPeer>{}, [this, slot] { pump_except(slot); }));
    active.push_back(true);
    EXPECT_TRUE(nodes[slot]->init().ok());
    view.ring.add_node(id);
    view.directory[id] = BsPeer{hosts[slot]->kernel.net_addr(), port};
    ClusterConfig cfg;
    cfg.self = id;
    nodes[slot]->configure_cluster(cfg, view);
    return id;
  }

  void pump_except(usize skip) {
    for (usize i = 0; i < nodes.size(); ++i) {
      if (i != skip && active[i] && nodes[i]) {
        nodes[i]->serve_once();
      }
    }
  }
  void pump_all() { pump_except(nodes.size()); }

  // One poll of the client's world. The hook runs before the servers get a
  // turn: a membership change fired on the client's first poll lands after
  // its request was sent but before any node serves it — a genuinely
  // in-flight op. Then every node serves and every host's VTP stack ticks.
  void client_pump(Host& client) {
    if (on_pump) {
      on_pump();
    }
    pump_all();
    for (auto& h : hosts) {
      h->kernel.vtp().tick();
    }
    client.kernel.vtp().tick();
  }

  void drain(usize polls = 96) {
    for (usize i = 0; i < polls; ++i) {
      pump_all();
    }
  }

  bool is_owner(const std::string& key, BsNodeId id) const {
    for (BsNodeId o : view.owners(key)) {
      if (o == id) {
        return true;
      }
    }
    return false;
  }
};

TEST(ChurnInFlightTest, JoinDuringInFlightPut) {
  ChurnCluster c(3, 2);
  Host client_host(&c.net);
  BlockStoreClient client(client_host.sys, c.view, [&] { c.client_pump(client_host); });

  // Seed some shards so the join actually moves data.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // Arm the churn hook: on the next put's first poll (request sent, not yet
  // served) a fourth node joins and every pre-existing member rebalances
  // into the grown view.
  bool joined = false;
  c.on_pump = [&] {
    if (joined) {
      return;
    }
    joined = true;
    c.add_member();
    for (usize j = 0; j + 1 < c.nodes.size(); ++j) {
      auto st = c.nodes[j]->rebalance(c.view);
      ASSERT_TRUE(st.ok());
    }
  };
  ASSERT_TRUE(client.put("racer", bytes("mid-join")).ok());
  ASSERT_TRUE(joined);
  c.on_pump = {};

  // Converge: one more rebalance pass + hint delivery, then the new view's
  // owners must both hold the put.
  client.set_cluster(c.view);
  for (usize j = 0; j < c.nodes.size(); ++j) {
    ASSERT_TRUE(c.nodes[j]->rebalance(c.view).ok());
    (void)c.nodes[j]->deliver_hints();
  }
  c.drain();
  EXPECT_EQ(client.get("racer").value(), bytes("mid-join"));
  for (usize j = 0; j < c.nodes.size(); ++j) {
    auto local = c.nodes[j]->get("racer");
    if (c.is_owner("racer", static_cast<BsNodeId>(j))) {
      EXPECT_EQ(local.value(), bytes("mid-join")) << "owner " << j << " missing the racing put";
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.get("pre" + std::to_string(i)).value(), bytes("v" + std::to_string(i)));
  }
}

TEST(ChurnInFlightTest, LeaveDuringInFlightPut) {
  ChurnCluster c(4, 2);
  Host client_host(&c.net);
  BlockStoreClient client(client_host.sys, c.view, [&] { c.client_pump(client_host); });

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // The leaver must not be an owner of the racing key (its process serves
  // that rpc's shard movement, not the rpc itself) — pick one.
  const std::string key = "racer";
  usize leaver = c.nodes.size();
  for (usize j = 0; j < c.nodes.size(); ++j) {
    if (!c.is_owner(key, static_cast<BsNodeId>(j))) {
      leaver = j;
      break;
    }
  }
  ASSERT_LT(leaver, c.nodes.size());

  bool left = false;
  c.on_pump = [&] {
    if (left) {
      return;
    }
    left = true;
    ClusterView candidate = c.view;
    candidate.ring.remove_node(static_cast<BsNodeId>(leaver));
    candidate.directory.erase(static_cast<BsNodeId>(leaver));
    auto st = c.nodes[leaver]->rebalance(candidate);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().failed, 0u) << "graceful leave stranded a shard";
    c.view = candidate;
    c.active[leaver] = false;
    c.nodes[leaver].reset();
    for (usize j = 0; j < c.nodes.size(); ++j) {
      if (c.active[j] && c.nodes[j]) {
        ASSERT_TRUE(c.nodes[j]->rebalance(c.view).ok());
      }
    }
  };
  ASSERT_TRUE(client.put(key, bytes("mid-leave")).ok());
  ASSERT_TRUE(left);
  c.on_pump = {};

  client.set_cluster(c.view);
  for (usize j = 0; j < c.nodes.size(); ++j) {
    if (c.active[j] && c.nodes[j]) {
      (void)c.nodes[j]->deliver_hints();
    }
  }
  c.drain();
  // The racing put and every pre-populated shard survive the leave.
  EXPECT_EQ(client.get(key).value(), bytes("mid-leave"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.get("pre" + std::to_string(i)).value(), bytes("v" + std::to_string(i)));
  }
}

}  // namespace
}  // namespace vnros
