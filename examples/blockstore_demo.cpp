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
#include <memory>
#include <string>

#include "src/app/blockstore.h"
#include "src/app/sim_cluster.h"
#include "src/kernel/machine.h"

using namespace vnros;  // NOLINT: example brevity

namespace {

std::vector<u8> bytes(const std::string& s) { return std::vector<u8>(s.begin(), s.end()); }

}  // namespace

int main() {
  std::printf("== vnros block store: verified app on the verified OS contract ==\n\n");

  // A fabric that loses 10%% of frames and duplicates 2%% — the stream's
  // retransmission and the node's idempotent operations must absorb that.
  FabricConfig fabric;
  fabric.loss_ppm = 100'000;
  fabric.dup_ppm = 20'000;
  // Member 0, the primary, boots on a disk that survives the "reboot"
  // below; member 1 is the replica. A node's pump serves the other member
  // while a push waits for its ack.
  SimCluster cluster(2, 2, fabric, [](usize member) {
    SimCluster::MemberSpec spec;
    if (member == 0) {
      spec.disk = std::make_unique<BlockDevice>(16384);
    }
    return spec;
  });
  BlockStoreNode& primary = cluster.node(0);
  BlockStoreNode& replica = cluster.node(1);
  Machine client_host({.network = &cluster.net()});

  // The client talks to the primary only; each poll is one world step.
  BlockStoreClient client(client_host.sys, ClusterView::of({cluster.peer(0)}, 1),
                          [&] { cluster.pump(client_host); });

  // --- store some objects ---------------------------------------------------
  std::printf("storing 8 objects through the lossy fabric...\n");
  for (int i = 0; i < 8; ++i) {
    std::string key = "object-" + std::to_string(i);
    std::string value = "contents of object " + std::to_string(i);
    auto r = client.put(key, bytes(value));
    VNROS_CHECK(r.ok());
  }
  std::printf("  done; the stream retransmitted %lu segments, the client retried %lu rpcs\n",
              cluster.machine(0).kernel.vtp().stats().retransmits +
                  client_host.kernel.vtp().stats().retransmits,
              client.retries());
  std::printf("  primary stats: %lu puts, %lu replica pushes, %lu hints parked\n",
              primary.stats().puts, primary.stats().replicas_pushed,
              primary.stats().hints_written);

  auto got = client.get("object-3");
  VNROS_CHECK(got.ok());
  std::printf("  get(object-3) = \"%s\"\n",
              std::string(got.value().begin(), got.value().end()).c_str());

  // --- replica caught up ------------------------------------------------------
  // A put whose push went unacked left a hint on the primary; delivering it
  // is one more acked push.
  for (int round = 0; round < 8 && replica.view().size() < 8; ++round) {
    (void)primary.deliver_hints();
  }
  std::printf("  replica holds %zu objects (%lu parked hints delivered)\n",
              replica.view().size(), primary.stats().hints_delivered);

  // --- power failure on the primary --------------------------------------------
  std::printf("\npower failure on the primary: volatile disk cache lost...\n");
  usize objects_before = primary.view().size();
  cluster.disk(0).crash(0);  // adversarial: nothing unflushed survives

  // --- reboot & recover ----------------------------------------------------------
  // A fresh kernel mounts the same disk at the primary's address and
  // replays the journal.
  VNROS_CHECK(cluster.reboot(0));
  BlockStoreNode& recovered = cluster.node(0);
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
