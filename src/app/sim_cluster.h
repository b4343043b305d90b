// One simulated blockstore cluster: the rig every cluster harness boots
// (the chaos runner, the app/* cluster VCs, the churn tests, YCSB and the
// demo). It owns the fabric, the members' shared ClusterView and, per
// member, a Machine, an optional disk and a BlockStoreNode serving
// kServicePort. Member i is BsNodeId i, and ids are never reused.
//
// It defines the world step once:
//   - a member's pump (the wait inside the node's peer call) releases the
//     frames the fabric held back, then lets every other active member
//     serve once;
//   - a client's pump, pump(client) for a Machine the caller owns, lets
//     every active member serve once, then ticks every member's VTP stack
//     and the client's. With an admission clock running
//     (set_admission_rate), each member is granted its tokens right before
//     it serves.
// A member's pump advances no transport: only a client's pump ticks VTP.
#ifndef VNROS_SRC_APP_SIM_CLUSTER_H_
#define VNROS_SRC_APP_SIM_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/blockstore.h"
#include "src/hw/block_device.h"
#include "src/hw/network.h"
#include "src/kernel/machine.h"

namespace vnros {

class SimCluster {
 public:
  // Every member serves clients (VTP streams) and peers (datagrams) on this
  // port; members differ by fabric address.
  static constexpr Port kServicePort = 9000;

  // What a harness chooses per member: the disk it boots on, which outlives
  // its reboots (null: its kernel formats a scratch disk of its own, and the
  // member cannot reboot), and its node's fault-site prefix (see
  // BlockStoreNode).
  struct MemberSpec {
    std::unique_ptr<BlockDevice> disk;
    std::string fault_prefix;
  };
  using SpecFn = std::function<MemberSpec(usize member)>;

  // Boots `members` machines on one fabric, then their nodes, into one ring
  // with `replication` owners per key (ClusterView::of). `spec` (optional)
  // gives each member, here and at join(), its disk and fault-site prefix.
  SimCluster(usize members, usize replication, FabricConfig fabric = {}, SpecFn spec = {});

  // Nodes' pumps point back into the rig.
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  Network& net() { return net_; }
  const ClusterView& view() const { return view_; }
  // Members ever booted, departed ones included.
  usize size() const { return members_.size(); }
  // Whether member i is up: booted and not departed.
  bool active(usize i) const { return members_[i].node != nullptr; }
  BlockStoreNode& node(usize i) { return *members_[i].node; }
  Machine& machine(usize i) { return *members_[i].machine; }
  // Member i's disk; only members whose spec gave one have it.
  BlockDevice& disk(usize i) { return *members_[i].disk; }
  LinkAddr addr(usize i) const { return members_[i].addr; }
  BsPeer peer(usize i) const { return BsPeer{members_[i].addr, kServicePort}; }
  bool is_owner(std::string_view key, usize i) const;

  // One poll of a client's world: see the header comment.
  void pump(Machine& client);
  // Runs the admission clock: from now on each client's pump grants every
  // active member `ops_ppm` (BlockStoreNode::grant_tokens) right before it
  // serves. 0, the default, stops it.
  void set_admission_rate(u64 ops_ppm) { admission_rate_ppm_ = ops_ppm; }
  // 64 serve passes over every active member, with no transport tick: lets
  // replica pushes, hint deliveries and handoffs in flight land.
  void drain();

  // Boots a new member into view() and returns its id. Existing members
  // keep their belief: the join completes once they rebalance() into view().
  usize join();
  // view() without member i: the view a graceful leaver rebalances into.
  ClusterView without(usize i) const;
  // Takes member i out of view() and powers its machine off for good; its
  // disk stays.
  void leave(usize i);
  // Powers member i's machine off and boots a fresh kernel from its disk at
  // its old address, then a fresh node in the current view. The kernel
  // recovers the journal, or formats the disk when the journal cannot be
  // recovered; returns whether it recovered.
  bool reboot(usize i);

 private:
  struct Member {
    std::unique_ptr<BlockDevice> disk;
    std::string fault_prefix;
    LinkAddr addr = 0;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<BlockStoreNode> node;
  };

  // Appends member size() and boots its machine.
  void add_member();
  void boot_machine(usize i, bool recover);
  void boot_node(usize i);
  // Releases held frames, then every active member but `skip` is granted
  // `grant_ppm` admission tokens (if any) and serves once.
  void serve_except(usize skip, u64 grant_ppm = 0);

  Network net_;
  SpecFn spec_;
  u64 admission_rate_ppm_ = 0;
  ClusterView view_;
  std::vector<Member> members_;
};

}  // namespace vnros

#endif  // VNROS_SRC_APP_SIM_CLUSTER_H_
