// The Kernel aggregate: one simulated machine running the vnros kernel.
//
// Owns the hardware substrate (physical memory, MMU model, TLBs, block
// device, NIC, virtual clock) and the kernel services built on it (frame
// allocator, NR-replicated scheduler and process directory, journaled
// filesystem, futexes, network stack). The Sys syscall facade
// (src/kernel/syscall.h) is the only interface applications use — that is
// the paper's client application contract.
#ifndef VNROS_SRC_KERNEL_KERNEL_H_
#define VNROS_SRC_KERNEL_KERNEL_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/contracts.h"
#include "src/base/result.h"
#include "src/hw/block_device.h"
#include "src/hw/interrupts.h"
#include "src/hw/mmu.h"
#include "src/hw/network.h"
#include "src/hw/phys_mem.h"
#include "src/hw/timer.h"
#include "src/hw/tlb.h"
#include "src/hw/topology.h"
#include "src/kernel/frame_alloc.h"
#include "src/kernel/fs.h"
#include "src/kernel/pipe.h"
#include "src/kernel/futex.h"
#include "src/kernel/process.h"
#include "src/kernel/ring.h"
#include "src/kernel/scheduler.h"
#include "src/net/ip.h"
#include "src/net/udp.h"
#include "src/net/vtp.h"

namespace vnros {

// Every kernel runs on the same simulated machine: 4 cores in 2 NUMA nodes
// and 32 MiB of physical memory.
inline constexpr u32 kKernelCores = 4;
inline constexpr u32 kKernelCoresPerNode = 2;
inline constexpr u64 kKernelPhysFrames = 8192;

struct KernelConfig {
  u64 disk_sectors = 16384;   // 8 MiB
  Network* network = nullptr; // attach to a shared fabric (multi-host setups)
  BlockDevice* disk = nullptr;  // attach an existing disk (reboot scenarios)
  bool recover_fs = false;      // mount via journal recovery instead of mkfs
  // Reboot support (chaos harness): reclaim a fixed fabric address instead
  // of attaching at the end, so peers keep working addresses across the
  // crash; and optionally fall back to mkfs when recovery finds the disk
  // unrecoverable (the node is re-imaged and repopulated by anti-entropy).
  std::optional<LinkAddr> link_addr = std::nullopt;
  bool format_on_recovery_failure = false;
};

class Kernel {
 public:
  explicit Kernel(KernelConfig config = {})
      : topo_(kKernelCores, kKernelCoresPerNode),
        mem_(kKernelPhysFrames),
        mmu_(mem_),
        tlbs_(topo_),
        owned_disk_(config.disk == nullptr ? std::make_unique<BlockDevice>(config.disk_sectors)
                                           : nullptr),
        disk_(config.disk != nullptr ? *config.disk : *owned_disk_),
        frames_(mem_, topo_),
        sched_(topo_),
        procs_(mem_, frames_, topo_),
        owned_net_(config.network == nullptr ? std::make_unique<Network>() : nullptr),
        net_(config.network != nullptr ? *config.network : *owned_net_),
        nic_(config.link_addr ? net_.attach_at(*config.link_addr) : net_.attach()),
        ip_(nic_),
        udp_(ip_),
        vtp_(ip_, clock_) {
    auto fs = config.recover_fs ? MemFs::recover(disk_) : MemFs::format(disk_);
    if (!fs.ok() && config.recover_fs && config.format_on_recovery_failure) {
      fs = MemFs::format(disk_);
    }
    VNROS_CHECK(fs.ok());
    fs_ = std::move(fs.value());
    simfutex_ = std::make_unique<SimFutex>(sched_);
    rings_ = std::make_unique<SysRingTable>(sched_, ip_);
  }

  const Topology& topo() const { return topo_; }
  PhysMem& mem() { return mem_; }
  Mmu& mmu() { return mmu_; }
  TlbSystem& tlbs() { return tlbs_; }
  BlockDevice& disk() { return disk_; }
  FrameAllocator& frames() { return frames_; }
  Scheduler& sched() { return sched_; }
  ProcessManager& procs() { return procs_; }
  MemFs& fs() { return fs_; }
  PipeTable& pipes() { return pipes_; }
  SimFutex& simfutex() { return *simfutex_; }
  SysRingTable& rings() { return *rings_; }
  VirtualClock& clock() { return clock_; }
  SerialConsole& console() { return console_; }
  Network& network() { return net_; }
  NetDevice& nic() { return nic_; }
  IpStack& ip() { return ip_; }
  UdpStack& udp() { return udp_; }
  VtpStack& vtp() { return vtp_; }

  NetAddr net_addr() const { return nic_.addr(); }

  // --- kstat: the kernel's contract counter surface ---------------------------
  // The stable names an application may query through the kstat syscall
  // (Sys::kstat). Each name reads a per-core obs counter of *this* kernel
  // instance via the subsystem's thin-view accessor; the names — not registry
  // internals — are the ABI, so the table below is the whole contract.
  struct KstatEntry {
    const char* name;
    u64 (*read)(const Kernel&);
  };
  static std::span<const KstatEntry> kstat_table();

  Result<u64> kstat(std::string_view name) const {
    for (const KstatEntry& e : kstat_table()) {
      if (name == e.name) {
        return e.read(*this);
      }
    }
    return ErrorCode::kNotFound;
  }

  std::vector<std::string> kstat_names() const {
    std::vector<std::string> out;
    for (const KstatEntry& e : kstat_table()) {
      out.emplace_back(e.name);
    }
    return out;
  }

 private:
  Topology topo_;
  PhysMem mem_;
  Mmu mmu_;
  TlbSystem tlbs_;
  std::unique_ptr<BlockDevice> owned_disk_;
  BlockDevice& disk_;
  FrameAllocator frames_;
  Scheduler sched_;
  ProcessManager procs_;
  MemFs fs_;
  PipeTable pipes_;
  std::unique_ptr<SimFutex> simfutex_;
  std::unique_ptr<SysRingTable> rings_;
  VirtualClock clock_;
  SerialConsole console_;
  std::unique_ptr<Network> owned_net_;
  Network& net_;
  NetDevice& nic_;
  IpStack ip_;
  UdpStack udp_;
  VtpStack vtp_;
};

inline std::span<const Kernel::KstatEntry> Kernel::kstat_table() {
  static const KstatEntry table[] = {
      {"fs/journal_records", [](const Kernel& k) { return k.fs_.stats().journal_records; }},
      {"fs/journal_bytes", [](const Kernel& k) { return k.fs_.stats().journal_bytes; }},
      {"fs/checkpoints", [](const Kernel& k) { return k.fs_.stats().checkpoints; }},
      {"fs/fsyncs", [](const Kernel& k) { return k.fs_.stats().fsyncs; }},
      {"tlb/shootdowns", [](const Kernel& k) { return k.tlbs_.shootdown_stats().shootdowns; }},
      {"tlb/ipis", [](const Kernel& k) { return k.tlbs_.shootdown_stats().ipis; }},
      {"tlb/batched_pages",
       [](const Kernel& k) { return k.tlbs_.shootdown_stats().batched_pages; }},
      {"tlb/full_flushes",
       [](const Kernel& k) { return k.tlbs_.shootdown_stats().full_flushes; }},
      {"frames/allocations", [](const Kernel& k) { return k.frames_.stats().allocations; }},
      {"frames/frees", [](const Kernel& k) { return k.frames_.stats().frees; }},
      {"frames/remote_fallbacks",
       [](const Kernel& k) { return k.frames_.stats().remote_fallbacks; }},
      {"frames/injected_oom", [](const Kernel& k) { return k.frames_.stats().injected_oom; }},
      {"ring/submitted", [](const Kernel& k) { return k.rings_->submitted(); }},
      {"ring/completed", [](const Kernel& k) { return k.rings_->completed(); }},
      {"ring/sq_full", [](const Kernel& k) { return k.rings_->sq_full(); }},
      {"ring/cq_depth_p99", [](const Kernel& k) { return k.rings_->cq_depth_p99(); }},
      {"vtp/conns_active", [](const Kernel& k) { return static_cast<u64>(k.vtp_.active_conns()); }},
      {"vtp/retransmits", [](const Kernel& k) { return k.vtp_.stats().retransmits; }},
      {"vtp/cwnd_halvings", [](const Kernel& k) { return k.vtp_.stats().cwnd_halvings; }},
      {"vtp/accept_queue_p99", [](const Kernel& k) { return k.vtp_.accept_queue_p99(); }},
  };
  return table;
}

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_KERNEL_H_
