#include "src/app/sim_cluster.h"

#include <algorithm>
#include <utility>

#include "src/base/contracts.h"
#include "src/base/log.h"
#include "src/kernel/fs.h"

namespace vnros {
namespace {

// Recovery probes per reboot: one more than a device's one-shot fault sites
// (read error, write error, torn write, bit rot), each of which fails at
// most one attempt.
constexpr int kRecoverAttempts = 5;

}  // namespace

SimCluster::SimCluster(usize members, usize replication, FabricConfig fabric, SpecFn spec)
    : net_(fabric), spec_(std::move(spec)) {
  std::vector<BsPeer> peers;
  for (usize i = 0; i < members; ++i) {
    add_member();
    peers.push_back(peer(i));
  }
  view_ = ClusterView::of(peers, replication);
  for (usize i = 0; i < members; ++i) {
    boot_node(i);
  }
}

bool SimCluster::is_owner(std::string_view key, usize i) const {
  const auto owners = view_.owners(key);
  return std::find(owners.begin(), owners.end(), static_cast<BsNodeId>(i)) != owners.end();
}

void SimCluster::pump(Machine& client) {
  // Grant before any serve: a member served nested in another member's
  // replica wait then spends this step's tokens, not the last step's.
  if (admission_rate_ppm_ > 0) {
    for (auto& m : members_) {
      if (m.node) {
        m.node->grant_tokens(admission_rate_ppm_);
      }
    }
  }
  serve_except(members_.size());
  for (auto& m : members_) {
    if (m.machine) {
      m.machine->kernel.vtp().tick();
    }
  }
  client.kernel.vtp().tick();
}

void SimCluster::drain() {
  for (int i = 0; i < 64; ++i) {
    serve_except(members_.size());
  }
}

usize SimCluster::join() {
  const usize i = members_.size();
  add_member();
  view_.ring.add_node(static_cast<BsNodeId>(i));
  view_.directory[static_cast<BsNodeId>(i)] = peer(i);
  boot_node(i);
  return i;
}

ClusterView SimCluster::without(usize i) const {
  ClusterView v = view_;
  v.ring.remove_node(static_cast<BsNodeId>(i));
  v.directory.erase(static_cast<BsNodeId>(i));
  return v;
}

void SimCluster::leave(usize i) {
  view_ = without(i);
  members_[i].node.reset();
  members_[i].machine.reset();
}

bool SimCluster::reboot(usize i) {
  Member& m = members_[i];
  VNROS_CHECK(m.disk != nullptr);
  m.node.reset();
  m.machine.reset();
  // Probe first, so the caller learns whether the kernel's format fallback
  // engages. The probe is idempotent: recover() re-checkpoints, so the
  // kernel's own recovery then finds the same state. A one-shot device
  // fault left armed across the crash fails one attempt (kIoError, or
  // kCorrupted when a rotted read breaks a checksum) and is spent by it, so
  // the probe is retried, as boot_node retries init: only a journal whose
  // recovery still fails counts as unrecoverable.
  auto probe = MemFs::recover(*m.disk);
  for (int attempt = 1; attempt < kRecoverAttempts && !probe.ok(); ++attempt) {
    probe = MemFs::recover(*m.disk);
  }
  const bool recovered = probe.ok();
  boot_machine(i, /*recover=*/true);
  boot_node(i);
  return recovered;
}

void SimCluster::add_member() {
  const usize i = members_.size();
  Member& m = members_.emplace_back();
  if (spec_) {
    MemberSpec s = spec_(i);
    m.disk = std::move(s.disk);
    m.fault_prefix = std::move(s.fault_prefix);
  }
  boot_machine(i, /*recover=*/false);
  m.addr = m.machine->kernel.net_addr();
}

void SimCluster::boot_machine(usize i, bool recover) {
  Member& m = members_[i];
  KernelConfig config;
  config.network = &net_;
  config.disk = m.disk.get();
  config.recover_fs = recover;
  config.format_on_recovery_failure = recover;
  if (recover) {
    config.link_addr = m.addr;  // peers keep a working address across the reboot
  }
  m.machine = std::make_unique<Machine>(config);
}

void SimCluster::boot_node(usize i) {
  Member& m = members_[i];
  m.node = std::make_unique<BlockStoreNode>(m.machine->sys, kServicePort, std::vector<BsPeer>{},
                                            [this, i] { serve_except(i); }, m.fault_prefix);
  // A node booting mid-schedule can absorb a pending one-shot fault (e.g. a
  // global syscall io_error) on its very first syscall. Boot is retried like
  // an operator would: one-shots are consumed by the failed attempt, so a
  // bounded number of retries either boots or proves the fault persistent.
  Result<Unit> booted = ErrorCode::kIoError;
  for (int attempt = 0; attempt < 3 && !(booted = m.node->init()).ok(); ++attempt) {
    VNROS_LOG_DEBUG("sim_cluster", "member %zu init attempt failed: %s", i,
                    error_name(booted.error()));
  }
  VNROS_CHECK(booted.ok());
  m.node->configure_cluster({.self = static_cast<BsNodeId>(i)}, view_);
}

void SimCluster::serve_except(usize skip) {
  net_.release_held();
  for (usize j = 0; j < members_.size(); ++j) {
    if (j != skip && members_[j].node) {
      members_[j].node->serve_once();
    }
  }
}

}  // namespace vnros
