// The paper's motivating application, end to end: a distributed block store
// (GFS/S3-style) whose storage nodes run purely on the verified OS contract.
//
// Three simulated machines share a lossy network fabric: two storage nodes
// that form one ring (every key on both), and a client. The client stores
// objects over a VTP stream through the primary, which journals each one
// durably and pushes it to the replica over datagrams, parking a hint when
// the lossy fabric eats the push or its ack; then the primary's disk
// suffers a power failure and a rebooted kernel recovers every
// acknowledged object from the journal.
//
//   ./build/examples/blockstore_demo
#include <cstdio>
#include <string>

#include "src/app/blockstore.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall.h"

using namespace vnros;  // NOLINT: example brevity

namespace {

struct Machine {
  Kernel kernel;
  SyscallDispatcher disp;
  Pid pid;
  Sys sys;

  Machine(Network* net, BlockDevice* disk, bool recover)
      : kernel(config(net, disk, recover)), disp(kernel), pid(boot(disp)), sys(disp, pid, 0) {}

  static KernelConfig config(Network* net, BlockDevice* disk, bool recover) {
    KernelConfig c;
    c.network = net;
    c.disk = disk;
    c.recover_fs = recover;
    return c;
  }

  static Pid boot(SyscallDispatcher& disp) {
    Sys init(disp, kInvalidPid, 0);
    auto pid = init.spawn();
    VNROS_CHECK(pid.ok());
    return pid.value();
  }
};

std::vector<u8> bytes(const std::string& s) { return std::vector<u8>(s.begin(), s.end()); }

}  // namespace

int main() {
  std::printf("== vnros block store: verified app on the verified OS contract ==\n\n");

  // A fabric that loses 10%% of frames and duplicates 2%% — the stream's
  // retransmission and the node's idempotent operations must absorb that.
  FabricConfig fabric;
  fabric.loss_ppm = 100'000;
  fabric.dup_ppm = 20'000;
  Network net(fabric);

  BlockDevice primary_disk(16384);  // survives the "reboot" below
  auto* primary = new Machine(&net, &primary_disk, false);
  Machine replica_host(&net, nullptr, false);
  Machine client_host(&net, nullptr, false);

  BlockStoreNode replica(replica_host.sys, 9001);
  VNROS_CHECK(replica.init().ok());
  // The primary's pump serves the replica while a push waits for its ack.
  auto* node = new BlockStoreNode(primary->sys, 9000, {}, [&] { replica.serve_once(); });
  VNROS_CHECK(node->init().ok());
  ClusterView ring = ClusterView::of(
      {BsPeer{primary->kernel.net_addr(), 9000}, BsPeer{replica_host.kernel.net_addr(), 9001}},
      2);
  node->configure_cluster({.self = 0}, ring);
  replica.configure_cluster({.self = 1}, ring);

  BlockStoreClient client(
      client_host.sys, ClusterView::of({{primary->kernel.net_addr(), 9000}}, 1), [&] {
        node->serve_once();
        replica.serve_once();
        primary->kernel.vtp().tick();
        replica_host.kernel.vtp().tick();
        client_host.kernel.vtp().tick();
      });

  // --- store some objects ---------------------------------------------------
  std::printf("storing 8 objects through the lossy fabric...\n");
  for (int i = 0; i < 8; ++i) {
    std::string key = "object-" + std::to_string(i);
    std::string value = "contents of object " + std::to_string(i);
    auto r = client.put(key, bytes(value));
    VNROS_CHECK(r.ok());
  }
  std::printf("  done; the stream retransmitted %lu segments, the client retried %lu rpcs\n",
              primary->kernel.vtp().stats().retransmits +
                  client_host.kernel.vtp().stats().retransmits,
              client.retries());
  std::printf("  primary stats: %lu puts, %lu replica pushes, %lu hints parked\n",
              node->stats().puts, node->stats().replicas_pushed, node->stats().hints_written);

  auto got = client.get("object-3");
  VNROS_CHECK(got.ok());
  std::printf("  get(object-3) = \"%s\"\n",
              std::string(got.value().begin(), got.value().end()).c_str());

  // --- replica caught up ------------------------------------------------------
  // A put whose push went unacked left a hint on the primary; delivering it
  // is one more acked push.
  for (int round = 0; round < 8 && replica.view().size() < 8; ++round) {
    (void)node->deliver_hints();
  }
  std::printf("  replica holds %zu objects (%lu parked hints delivered)\n",
              replica.view().size(), node->stats().hints_delivered);

  // --- power failure on the primary --------------------------------------------
  std::printf("\npower failure on the primary: volatile disk cache lost...\n");
  usize objects_before = node->view().size();
  delete node;
  delete primary;
  primary_disk.crash(0);  // adversarial: nothing unflushed survives

  // --- reboot & recover ----------------------------------------------------------
  Machine rebooted(&net, &primary_disk, /*recover=*/true);
  BlockStoreNode recovered(rebooted.sys, 9000);
  VNROS_CHECK(recovered.init().ok());
  auto view = recovered.view();
  std::printf("rebooted kernel replayed the journal: %zu/%zu objects recovered\n", view.size(),
              objects_before);
  for (int i = 0; i < 8; ++i) {
    std::string key = "object-" + std::to_string(i);
    auto r = recovered.get(key);
    VNROS_CHECK(r.ok());  // every *acknowledged* put must survive
  }
  std::printf("every acknowledged object intact (fsync-before-ack at work).\n");

  std::printf("\nblock store demo complete.\n");
  return 0;
}
