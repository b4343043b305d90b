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
#include <span>
#include <string>
#include <vector>

#include "src/app/blockstore.h"
#include "src/app/chaos.h"
#include "src/app/sim_cluster.h"
#include "src/kernel/machine.h"

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
  ASSERT_TRUE(a.ok) << a.message;
  EXPECT_EQ(a, run_chaos(config));
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

TEST(ChurnInFlightTest, JoinDuringInFlightPut) {
  SimCluster c(3, 2);
  Machine client_host({.network = &c.net()});
  // The churn hook runs at the start of each client poll, before any node
  // serves: a change fired on a put's first poll races its request.
  std::function<void()> on_pump;
  BlockStoreClient client(client_host.sys, c.view(), [&] {
    if (on_pump) {
      on_pump();
    }
    c.pump(client_host);
  });

  // Seed some shards so the join actually moves data.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // Arm the churn hook: on the next put's first poll (request sent, not yet
  // served) a fourth node joins and every pre-existing member rebalances
  // into the grown view.
  bool joined = false;
  on_pump = [&] {
    if (joined) {
      return;
    }
    joined = true;
    c.join();
    for (usize j = 0; j + 1 < c.size(); ++j) {
      auto st = c.node(j).rebalance(c.view());
      ASSERT_TRUE(st.ok());
    }
  };
  ASSERT_TRUE(client.put("racer", bytes("mid-join")).ok());
  ASSERT_TRUE(joined);
  on_pump = {};

  // Converge: one more rebalance pass + hint delivery, then the new view's
  // owners must both hold the put.
  client.set_cluster(c.view());
  for (usize j = 0; j < c.size(); ++j) {
    ASSERT_TRUE(c.node(j).rebalance(c.view()).ok());
    (void)c.node(j).deliver_hints();
  }
  c.drain();
  EXPECT_EQ(client.get("racer").value(), bytes("mid-join"));
  for (usize j = 0; j < c.size(); ++j) {
    auto local = c.node(j).get("racer");
    if (c.is_owner("racer", j)) {
      EXPECT_EQ(local.value(), bytes("mid-join")) << "owner " << j << " missing the racing put";
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client.get("pre" + std::to_string(i)).value(), bytes("v" + std::to_string(i)));
  }
}

TEST(ChurnInFlightTest, LeaveDuringInFlightPut) {
  SimCluster c(4, 2);
  Machine client_host({.network = &c.net()});
  // The churn hook runs at the start of each client poll, before any node
  // serves: a change fired on a put's first poll races its request.
  std::function<void()> on_pump;
  BlockStoreClient client(client_host.sys, c.view(), [&] {
    if (on_pump) {
      on_pump();
    }
    c.pump(client_host);
  });

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.put("pre" + std::to_string(i), bytes("v" + std::to_string(i))).ok());
  }

  // The leaver must not be an owner of the racing key (its process serves
  // that rpc's shard movement, not the rpc itself) — pick one.
  const std::string key = "racer";
  usize leaver = c.size();
  for (usize j = 0; j < c.size(); ++j) {
    if (!c.is_owner(key, j)) {
      leaver = j;
      break;
    }
  }
  ASSERT_LT(leaver, c.size());

  bool left = false;
  on_pump = [&] {
    if (left) {
      return;
    }
    left = true;
    auto st = c.node(leaver).rebalance(c.without(leaver));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.value().failed, 0u) << "graceful leave stranded a shard";
    c.leave(leaver);
    for (usize j = 0; j < c.size(); ++j) {
      if (c.active(j)) {
        ASSERT_TRUE(c.node(j).rebalance(c.view()).ok());
      }
    }
  };
  ASSERT_TRUE(client.put(key, bytes("mid-leave")).ok());
  ASSERT_TRUE(left);
  on_pump = {};

  client.set_cluster(c.view());
  for (usize j = 0; j < c.size(); ++j) {
    if (c.active(j)) {
      (void)c.node(j).deliver_hints();
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
