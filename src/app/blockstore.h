// The verified client application: a data-storage node of a distributed
// block store (§1: "consider the data-storage node in a distributed block
// store like GFS or S3 ... Amazon even describes their use of lightweight
// formal methods to verify such a storage node").
//
// The node is written entirely against the Sys syscall facade — the client
// application contract of §3. It never touches kernel internals: blocks are
// files (create/write/fsync/read/unlink), clients reach it over VTP stream
// sockets and peers over UDP datagrams, and durability comes from fsync
// before acknowledging. That is the paper's
// whole point: with the OS contract verified below and this logic verified
// above, the stack composes.
//
// Abstract spec (checked by app/* VCs): the node refines the map
// key -> bytes with operations
//   put(k, v):  ack  =>  get(k) returns exactly v until overwritten/deleted,
//               and v survives a crash (fsync-before-ack);
//   get(k):     returns the last acknowledged put, kNotFound if none,
//               kCorrupted (never garbage) if storage bits rotted;
//   del(k):     ack  =>  get(k) returns kNotFound.
//
// Replication: a put to the primary is forwarded to its peers (best-effort
// push in the static-peer configuration; acked pushes to the ring owner set
// with hinted handoff in cluster mode — see ClusterView below).
#ifndef VNROS_SRC_APP_BLOCKSTORE_H_
#define VNROS_SRC_APP_BLOCKSTORE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/app/ring.h"
#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/kernel/syscall.h"
#include "src/obs/registry.h"

namespace vnros {

// Wire protocol opcodes.
enum class BsOp : u8 {
  kPut = 1,
  kGet = 2,
  kDel = 3,  // sequenced: carries the client's write-sequence stamp
  kPing = 4,
  kPutReplica = 5,   // replication push: applied locally, never re-forwarded
  kList = 6,         // anti-entropy: enumerate (key, crc, seq, tombstone)
  kDelReplica = 7,   // replicated (sequenced) delete: tombstone apply-if-newer
  kGetBlock = 8,     // repair fetch: raw block (tombstone flag + seq + bytes)
  kMerkleNode = 9,   // anti-entropy: one Merkle node's hash + child hashes
  kMerkleLeaf = 10,  // anti-entropy: one Merkle leaf bucket's (key, seq, flag)s
  kTombstoneGc = 11, // tombstone GC: drop your tombstone for key if seq <= S
};

// The client-facing wire. VTP streams are the only client plane: the
// transport retransmits at its own RTO, requests and replies are
// length-framed on the byte stream, and the node serves connections through
// ring-parked accept/recv SQEs. The node-to-node plane (replication pushes,
// repair fetches, anti-entropy) rides datagrams. The enum remains only as
// BlockStoreNode's trailing constructor argument, which the node ignores.
enum class BsTransport : u8 {
  kVtp = 1,
};

// One entry of a kList reply / local inventory: enough to detect a missing
// or divergent block without shipping its bytes. Tombstones (sequenced
// deletes) are first-class entries so divergence over deletion is visible.
struct BlockKeyInfo {
  std::string key;
  u32 crc = 0;  // crc32c of the payload bytes (crc of "" for tombstones)
  u64 seq = 0;  // write sequence of the local copy
  bool tombstone = false;

  bool operator==(const BlockKeyInfo&) const = default;
};

// Decodes a kList reply payload: [u32 count] then count (key, crc, seq,
// flags) entries. kCorrupted when the payload is short, or when its count
// claims more entries than the remaining bytes can hold, so a peer's count
// never sizes an allocation.
Result<std::vector<BlockKeyInfo>> decode_inventory(std::span<const u8> payload);

struct BsPeer {
  NetAddr addr = 0;
  Port port = 0;

  bool operator==(const BsPeer&) const = default;
};

// Shared cluster belief: the placement ring plus the directory mapping each
// member to its wire endpoint. Every node and every client holds a copy;
// the app/placement_refines VC and the chaos churn schedules check that all
// copies agree (ring version + fingerprint) at every quiesce point.
struct ClusterView {
  PlacementRing ring;
  std::map<BsNodeId, BsPeer> directory;
  usize replication = 2;  // owners per key (capped by cluster size)

  std::vector<BsNodeId> owners(std::string_view key) const {
    return ring.owners(key, replication);
  }
};

// Per-node cluster parameters (fixed at configure_cluster time).
struct ClusterConfig {
  BsNodeId self = 0;
  // Total pump-poll budget awaiting each replica ack. Replies arrive as ring
  // completions (the repair socket keeps one recv SQE parked in the kernel),
  // so this is a deadline, not a spin count: the push is re-sent once at
  // half the deadline and abandoned (hinted) when the budget runs out.
  usize ack_deadline_polls = 192;
  // Hinted-handoff bound: at most this many hints parked per unreachable
  // peer. Past the cap the lowest-sequence (oldest) hint for that peer is
  // dropped (counted in hints_dropped) — anti-entropy remains the backstop
  // for whatever a dropped hint would have carried.
  usize max_hints_per_peer = 64;
};

// Admission control: a token bucket over served storage ops. Tokens are in
// millionths of an op so sub-op/tick refill rates are expressible; the
// *clock* is external — the harness (or a deployment's timer) calls
// grant_tokens() per tick, keeping the node itself free of wall-clock
// dependencies and every overload schedule replayable.
struct AdmissionConfig {
  bool enabled = false;
  u64 burst_ops = 4;  // bucket capacity, in whole ops
};

// Outcome of one rebalance() pass (shard movement after a view change).
struct RebalanceStats {
  u64 scanned = 0;  // intact local blocks examined
  u64 moved = 0;    // acked handoffs to new owners
  u64 dropped = 0;  // local copies released (no longer an owner, ack held)
  u64 hinted = 0;   // unreachable new owner: durable hint written instead
  u64 failed = 0;   // no new owner acked AND we are not an owner: kept local,
                    // flagged so graceful leave can abort instead of losing data
};

// Snapshot of a node's obs counters (see stats()).
struct BlockStoreStats {
  u64 puts = 0;
  u64 gets = 0;
  u64 dels = 0;
  u64 corrupt_reads = 0;
  u64 replicas_pushed = 0;
  u64 replicas_applied = 0;
  u64 read_repairs = 0;        // corrupt blocks restored from a peer
  u64 failed_repairs = 0;      // corrupt blocks no peer could supply
  u64 sheds = 0;               // requests refused with kOverloaded
  u64 hints_written = 0;       // handoffs parked for a partitioned owner
  u64 hints_delivered = 0;     // parked handoffs later delivered + acked
  u64 hints_dropped = 0;       // hints evicted by the per-peer cap
  u64 handoffs = 0;            // blocks moved to a new owner by rebalance()
  u64 stale_ignored = 0;       // replica writes refused: local copy was newer
  u64 tombstones_written = 0;  // sequenced deletes persisted locally
  u64 tombstones_gced = 0;     // tombstones reclaimed after shard-wide acks
};

class BlockStoreNode {
 public:
  // `sys` is this node's (process's) view of its OS. The node binds `port`.
  // `pump` (optional) advances the simulated world; when set and peers are
  // configured, a kCorrupted local read triggers read-repair: the block is
  // fetched from a peer, re-persisted locally, and served instead of the
  // corruption error. `fault_prefix` (optional) registers a
  // "<prefix>/serve_delay" latency injection site: when armed with a
  // FaultSpec whose delay is nonzero, serve_once() stalls for that many
  // calls before touching its socket — a deterministic slow peer. Clients
  // reach the node over VTP streams on `port`, peers over datagrams on the
  // same port number; the trailing BsTransport is ignored.
  BlockStoreNode(Sys& sys, Port port, std::vector<BsPeer> peers = {},
                 std::function<void()> pump = {}, std::string fault_prefix = {},
                 BsTransport = BsTransport::kVtp);

  // Creates /blocks (and /hints), binds the peer datagram socket and opens
  // the client stream listener. Idempotent across restarts of the same
  // filesystem (recovery path).
  Result<Unit> init();

  // Switches the node to cluster mode: placement and replication follow
  // `view`'s ring instead of the static peer list. Call again after a
  // reboot to restore the node's belief about the cluster.
  void configure_cluster(const ClusterConfig& cfg, const ClusterView& view);

  // Adopts `next` and moves shards: every intact local block whose owner set
  // changed is pushed (acked, carrying its write sequence) to its new owners;
  // unreachable owners get a durable hint; blocks this node no longer owns
  // are released only once at least one new owner acked. An ack means "I
  // durably hold this key at a sequence >= yours" (stale pushes are refused
  // but still acked), so dropping after an ack can never lose the newest
  // write. Safe to call on every member after any membership change — a node
  // whose placement is unaffected does no work.
  Result<RebalanceStats> rebalance(const ClusterView& next);

  // Adopts a view without moving data (reboot/recovery path).
  void set_cluster_view(const ClusterView& view);

  // Attempts delivery of parked handoffs (hinted handoff). For each hint:
  // stale owners (gone from the view) are dropped; reachable owners receive
  // the hinted bytes with their original write sequence — the owner applies
  // only if the hint is at least as new as its own copy (a hint can never
  // regress a newer value) and acks either way. The hint is unlinked only
  // after that ack. Returns hints delivered (applied) this pass.
  u64 deliver_hints();

  bool clustered() const { return clustered_; }
  BsNodeId self_id() const { return cluster_.self; }
  const ClusterView& cluster_view() const { return view_; }
  u64 ring_version() const { return view_.ring.version(); }
  u64 ring_fingerprint() const { return view_.ring.fingerprint(); }

  // Admission control. grant_tokens() is the external clock: adds
  // `ops_ppm` millionths of an op to the bucket (capped at burst_ops).
  void set_admission(const AdmissionConfig& cfg) { admission_ = cfg; }
  void grant_tokens(u64 ops_ppm);

  // Drains the serve ring once: reaps every completed receive — the fixed
  // pool of kServeWorkers recv SQEs parked on the peer datagram socket, the
  // accept parked on the client listener, one recv parked per client
  // stream — processes each request, sends the replies, and re-arms what
  // completed. Returns whether at least one request was served. Harness
  // loops call it once per tick; one call serves a whole batch.
  bool serve_once();

  // Local storage operations (also reachable via the wire).
  Result<Unit> put(std::string_view key, std::span<const u8> value);
  Result<std::vector<u8>> get(std::string_view key) const;
  Result<Unit> del(std::string_view key);

  // Apply-if-newer ingress for repair/anti-entropy: persists (value, seq) —
  // or a tombstone at seq when `tombstone` — unless the local intact copy is
  // strictly newer. `applied` (optional) reports whether the bytes landed.
  // This is the only sanctioned way for an external repair driver to write
  // into a node: the sequence rides along, so repair can never resurrect a
  // value the cluster has already superseded.
  Result<Unit> apply_remote(std::string_view key, std::span<const u8> value, u64 seq,
                            bool tombstone, bool* applied = nullptr);

  // Bounded tombstone GC (cluster mode). For up to `max_batch` local
  // tombstones: every other cluster member must ack the tombstone's
  // sequence (the ack certifies "I durably hold this key at seq >= yours
  // AND hold no older parked hint for it" — the kDelReplica handler drops
  // matching hints before acking). Only then is the tombstone dropped,
  // cluster-wide (kTombstoneGc) then locally — so a lagging replica can
  // never resurrect the deleted key. Returns tombstones reclaimed.
  u64 gc_tombstones(usize max_batch = 32);

  // get(), but a kCorrupted local block is repaired from the peer list (if
  // any) before failing: fetch from a peer over the repair socket, verify,
  // re-persist locally, return the repaired bytes. This is what serve_once
  // uses for kGet, so clients never see corruption a peer can cure.
  Result<std::vector<u8>> get_or_repair(std::string_view key);

  // Abstract view: every live (key, bytes) currently stored and intact
  // (tombstones are deletion markers, not values — they are excluded).
  std::map<std::string, std::vector<u8>> view() const;

  // Anti-entropy inventory: (key, crc, seq, tombstone) for every intact
  // block, tombstones included — sync must see deletions to propagate them.
  std::vector<BlockKeyInfo> list() const;

  // Thin view over the obs counters ("bs<N>/..."): race-free merged reads.
  BlockStoreStats stats() const {
    return BlockStoreStats{c_puts_.value(),           c_gets_.value(),
                           c_dels_.value(),           c_corrupt_reads_.value(),
                           c_replicas_pushed_.value(), c_replicas_applied_.value(),
                           c_read_repairs_.value(),   c_failed_repairs_.value(),
                           c_sheds_.value(),          c_hints_written_.value(),
                           c_hints_delivered_.value(), c_hints_dropped_.value(),
                           c_handoffs_.value(),       c_stale_ignored_.value(),
                           c_tombstones_written_.value(), c_tombstones_gced_.value()};
  }
  Port port() const { return port_; }

  // Reads one of the kernel's contract counters (e.g. "fs/fsyncs") through
  // the kstat syscall — the §3 way for the application to introspect the OS.
  // The node never touches kernel internals, here or anywhere.
  Result<u64> kernel_stat(std::string_view name) const { return sys_.kstat(name); }

  // Path of the file backing `key` ("/blocks/<hex>"): public so tests can
  // inject storage corruption at the right place.
  static std::string key_path(std::string_view key);

 private:
  // One fetched/decoded block: payload bytes plus the write sequence stamped
  // by the client (or assigned locally) when the bytes were stored.
  struct BlockData {
    std::vector<u8> bytes;
    u64 seq = 0;
  };

  Result<Unit> put_local(std::string_view key, std::span<const u8> value, u64 seq,
                         bool tombstone);
  // The coordinator write path with an explicit sequence (serve_once passes
  // the client's stamp; the seq-less public put() assigns local_seq + 1).
  Result<Unit> put_stamped(std::string_view key, std::span<const u8> value, u64 seq);
  // The coordinator delete path: a sequenced tombstone write (apply-if-newer
  // like every other write), replicated with acked pushes + hints like a put.
  Result<Unit> del_stamped(std::string_view key, u64 seq);
  // Apply-if-newer: persists (value, seq) — or a tombstone — unless the
  // local intact copy has a strictly newer sequence, in which case the write
  // is refused as stale but still reported kOk (the caller's bytes are
  // durably superseded). Sets `applied` so callers can count real applies
  // apart from stale refusals.
  Result<Unit> apply_replica(std::string_view key, std::span<const u8> value, u64 seq,
                             bool tombstone, bool* applied);
  // Sequence of the local intact copy (live or tombstone); 0 when missing or
  // corrupt (so any incoming write, including a re-pushed seq-0 legacy
  // block, may land).
  u64 local_seq(std::string_view key) const;
  void push_replicas(std::string_view key, std::span<const u8> value, u64 seq);
  Result<BlockData> fetch_from_peer(const BsPeer& peer, std::string_view key);
  Result<BlockData> get_or_repair_block(std::string_view key);

  // Cluster-mode plumbing.
  void replicate_put(std::string_view key, std::span<const u8> value, u64 seq);
  void replicate_del(std::string_view key, u64 seq);
  // Sends `op` to `peer` over the repair socket and awaits the ack as a ring
  // completion, pumping up to cluster_.ack_deadline_polls polls (one re-send
  // at half the deadline).
  Result<Unit> push_acked(const BsPeer& peer, BsOp op, std::string_view key,
                          std::span<const u8> value, u64 seq);
  Result<Unit> write_hint(BsNodeId owner, std::string_view key, std::span<const u8> value,
                          u64 seq, bool tombstone);
  // "/hints/<owner>_<hexkey>" for this (owner, key) pair.
  std::string hint_path(BsNodeId owner, std::string_view key) const;
  // Drops every parked hint for `key` (any owner) whose sequence is <= seq:
  // the tombstone GC barrier — an ack of a tombstone must also certify no
  // older hint for the key survives on the acking node.
  void drop_stale_hints(std::string_view key, u64 seq);
  // Per-peer hint bound: evicts the lowest-sequence hint for `owner` when
  // the cap is reached. Returns false when the incoming hint (at `seq`) is
  // itself the oldest and should be dropped instead of written.
  bool reserve_hint_slot(BsNodeId owner, std::string_view key, u64 seq);
  // Replica peers consulted by get_or_repair: the key's other ring owners
  // in cluster mode, the static peer list otherwise.
  std::vector<BsPeer> repair_peers(std::string_view key) const;
  // Admission gate for one served op: true = admitted (a token was taken),
  // false = shed. Always admits when admission is disabled.
  bool admit_op();

  // --- Serve/repair rings (async syscall path) ------------------------------
  // Lazily creates the serve ring and keeps kServeWorkers recv SQEs parked
  // on the peer datagram socket. False when the kernel refuses (ring
  // exhausted).
  bool ensure_serve_ring();
  // Handles one node-to-node request datagram; the reply goes straight back
  // with udp_sendto.
  void process_request(NetAddr src, Port src_port, std::span<const u8> payload);
  // The transport-independent request core: decodes one request payload,
  // executes it, and returns the reply bytes — or nullopt when the request
  // warrants no reply (malformed, or an unacked replica push).
  std::optional<std::vector<u8>> handle_request(std::span<const u8> payload);

  // --- VTP stream serve plane (client connections) ---------------------------
  // One accepted client connection: inbuf reassembles [u32 len][body] frames
  // off the byte stream; outbuf holds reply bytes the transport has not yet
  // accepted (flushed every drain, closed past kVtpOutbufMax — slow consumer).
  struct VtpServeConn {
    Fd fd = kInvalidFd;
    std::vector<u8> inbuf;
    std::vector<u8> outbuf;
    bool recv_armed = false;
  };
  // Keeps the VTP listener up, one accept SQE parked (kAcceptTag), and one
  // recv SQE parked per accepted connection (kVtpConnTag | slot).
  void ensure_vtp_serve();
  // Consumes newly received stream bytes for `slot`: reassembles frames,
  // runs handle_request on each, frames the replies into outbuf, flushes.
  usize on_vtp_bytes(u64 slot, std::span<const u8> bytes);
  void vtp_flush(VtpServeConn& conn);
  void close_vtp_conn(u64 slot);
  // Awaits one repair-socket reply whose leading req_id matches: keeps a
  // single recv SQE parked on repair_sock_ (via the repair ring), pumping up
  // to `polls` times. Returns the whole matched reply payload (req_id word
  // included); kTimedOut when the budget runs out. Waits nest — the pump can
  // serve a request that pushes from this node — so a reply for another
  // in-flight wait is stashed for it; replies for RPCs no wait awaits any
  // more (timed out) are dropped.
  Result<std::vector<u8>> await_repair_reply(u64 req_id, usize polls);
  // The body of await_repair_reply, with req_id registered in awaiting_.
  Result<std::vector<u8>> poll_repair_reply(u64 req_id, usize polls);

  Sys& sys_;
  Port port_;
  std::vector<BsPeer> peers_;
  std::function<void()> pump_;
  Fd sock_ = kInvalidFd;
  Fd repair_sock_ = kInvalidFd;  // dedicated socket: repair RPCs never steal
                                 // datagrams destined for the service socket
  bool in_repair_ = false;       // re-entrancy guard (pump may recurse into us)
  u64 next_repair_req_id_ = 1;

  // Serve worker pool: a ring with a fixed complement of parked receives.
  static constexpr usize kServeWorkers = 4;
  static constexpr u64 kAcceptTag = 1ull << 62;    // the parked VTP accept SQE
  static constexpr u64 kVtpConnTag = 1ull << 61;   // VTP recv CQE; low bits = slot
  static constexpr usize kVtpRecvChunk = 32 * 1024;  // per-recv byte bound
  static constexpr usize kVtpOutbufMax = 1 << 20;    // slow-consumer close bound
  // Accept-queue + in-progress-handshake bound. Accepts drain one per serve
  // pass, so the backlog must absorb a whole client fleet connecting at once
  // (handshakes complete and requests buffer while the conn awaits accept).
  static constexpr usize kVtpBacklog = 2048;
  static_assert(kVtpBacklog <= kMaxVtpBacklog, "vtp_listen would refuse the serve backlog");
  u32 serve_ring_ = 0;        // 0 = not yet set up
  usize serve_recvs_ = 0;     // recv SQEs currently parked (<= kServeWorkers)
  u32 repair_ring_ = 0;       // dedicated ring for repair/ack RPC replies
  bool repair_recv_armed_ = false;  // one recv SQE parked on repair_sock_
  std::vector<u64> awaiting_;       // req_ids of the in-flight repair waits
  std::map<u64, std::vector<u8>> stashed_replies_;  // req_id -> a reply reaped
                                                    // by another wait

  Fd vtp_listener_ = kInvalidFd;
  bool accept_armed_ = false;          // one accept SQE parked on the listener
  std::map<u64, VtpServeConn> vtp_conns_;  // slot -> accepted connection
  u64 next_vtp_slot_ = 0;

  bool clustered_ = false;
  ClusterConfig cluster_;
  ClusterView view_;
  AdmissionConfig admission_;
  u64 tokens_ppm_ = 0;   // admission bucket (millionths of an op)
  u64 stall_polls_ = 0;  // serve_once calls left to sit out (latency fault)
  FaultSite* delay_site_ = nullptr;

  // Metrics ("bs<N>/..."): registry-owned per-core counters — mutable from
  // const readers (get() counts), race-free for concurrent observers.
  const std::string obs_prefix_;
  Counter& c_puts_;
  Counter& c_gets_;
  Counter& c_dels_;
  Counter& c_corrupt_reads_;
  Counter& c_replicas_pushed_;
  Counter& c_replicas_applied_;
  Counter& c_read_repairs_;
  Counter& c_failed_repairs_;
  Counter& c_sheds_;
  Counter& c_hints_written_;
  Counter& c_hints_delivered_;
  Counter& c_hints_dropped_;
  Counter& c_handoffs_;
  Counter& c_stale_ignored_;
  Counter& c_tombstones_written_;
  Counter& c_tombstones_gced_;
  Histogram& h_serve_busy_;  // request CQEs reaped per serve_once drain:
                             // worker-pool occupancy (0..kServeWorkers)
  const u32 span_serve_;
};

// Client retry behaviour. All waiting is measured in polls — the
// simulation's stand-in for wall-clock time — so schedules replay
// deterministically from a seed.
struct RetryPolicy {
  usize max_attempts = 16;       // sends per rpc (across all targets)
  usize polls_per_attempt = 64;  // polls awaiting each reply
  u64 backoff_base_polls = 0;    // idle polls before retry 1; doubles per retry
  u64 backoff_max_polls = 0;     // exponential backoff cap (0 = uncapped)
  u64 jitter_ppm = 0;            // additive jitter: up to this fraction of the backoff
  u64 deadline_polls = 0;        // total poll budget per rpc (0 = unlimited).
                                 // Backoffs are clamped to the remaining budget
                                 // (reserving one attempt window), so the rpc
                                 // never sleeps a full backoff past its deadline.
  // kOverloaded backpressure: the server is alive and explicitly shedding,
  // so do NOT fail over — wait (multiplicatively growing, jittered like the
  // timeout backoff) and retry the same target.
  u64 overload_base_polls = 8;
  u64 overload_max_polls = 256;
};

// Visible retry behaviour, for tests and for kDebug logging: how hard did
// the client have to work to get an answer? Snapshot of the client's obs
// counters (see retry_stats()).
struct RetryStats {
  u64 attempts = 0;          // request frames sent
  u64 retries = 0;           // attempts beyond the first, per rpc
  u64 backoff_polls = 0;     // polls spent idling in backoff
  u64 failovers = 0;         // switches to a different target
  u64 transient_errors = 0;  // kIoError/kNoMemory/kBusy replies absorbed by retry
  u64 send_errors = 0;       // local send failures absorbed by retry
  u64 overloads = 0;         // kOverloaded replies absorbed by backpressure
  u64 sticky_resumes = 0;    // rpcs that resumed on the last known-live target
                             // instead of re-probing a dead rotation residue
  u64 reconnects = 0;        // streams re-opened to a target whose previous
                             // stream died with a typed error
};

// A finished op's reply: the payload, plus the write sequence the serving
// replica stamped on it (kGet only; 0 for every other op).
struct BsReply {
  std::vector<u8> value;
  u64 seq = 0;
};

// Client library: request/response over one VTP stream per target, with
// timeout + retry. The stream retransmits lost segments below the rpc
// layer; an rpc whose reply misses its attempt window re-sends the request
// (operations are idempotent, so at-least-once delivery preserves the
// abstract map semantics). Transient server errors (fault-injected
// kIoError/kNoMemory, kBusy) are retried with exponential backoff + jitter;
// when failover targets are configured, timeouts and transient errors
// rotate the client to the next replica.
//
// The core is non-blocking and holds one op in flight per client object:
// start() sends it and each poll() advances it by one poll. The blocking
// ops (put/get/del/...) are start() plus a pump-then-poll loop, so a
// harness that drives hundreds of clients on one thread polls each client
// object itself and the blocking caller runs the very same state machine.
class BlockStoreClient {
 public:
  // `pump` advances the simulated world between the polls of a blocking op
  // — the simulation's stand-in for wall-clock time. It must serve the
  // nodes and tick every host's VTP stack; a client driven only through
  // start()/poll() may pass none. Each target gets one stream, connected
  // lazily from a kernel-assigned source port and reconnected after any
  // terminal connection error; requests and replies are framed
  // [u32 len][body]. The client opens no datagram socket.
  BlockStoreClient(Sys& sys, NetAddr server, Port server_port, std::function<void()> pump,
                   RetryPolicy policy = {});

  // Adds a replica the client may rotate to when the current target times
  // out or keeps returning transient errors.
  void add_failover(NetAddr addr, Port port);

  // Switches keyed ops (put/get/del) to ring routing: each rpc is sent to
  // the key's owner list (primary first), falling back to the static target
  // list when the view maps to nothing. Ping/list keep the static targets.
  void set_cluster(const ClusterView& view) { view_ = view; }

  // Blocking ops: each records one bs/rpc span.
  Result<Unit> put(std::string_view key, std::span<const u8> value);
  Result<std::vector<u8>> get(std::string_view key);
  // get() plus the write sequence the serving replica stamped on the bytes —
  // the observable the linearizability checker orders reads by.
  Result<std::pair<std::vector<u8>, u64>> get_with_seq(std::string_view key);
  Result<Unit> del(std::string_view key);
  Result<Unit> ping();
  Result<std::vector<BlockKeyInfo>> list();

  // Full-inventory anti-entropy repair (the baseline the Merkle scheduler in
  // src/app/anti_entropy.h is ablated against): ships the complete remote
  // inventory, then pulls every entry — tombstones included — that is newer
  // than `target`'s copy, writing it into `target` at its original sequence.
  // Returns blocks repaired.
  Result<u64> sync_into(BlockStoreNode& target);

  // Sends `op` (kPut carries `value`; kPut and kDel take a fresh write
  // stamp). kBusy, with nothing sent, while an earlier op's reply has not
  // yet been returned by poll().
  Result<Unit> start(BsOp op, std::string_view key, std::span<const u8> value = {});
  // Advances the op in flight by one poll — call it once per world step:
  // one read of the awaited stream, reply matching, and the RetryPolicy
  // ladder (attempt windows, backoff, failover, deadline). Returns the op's
  // reply once it is done; an op that finished inside start() (every
  // attempt failed before it had to wait) is returned without advancing.
  // nullopt while the op waits, or when none is in flight.
  std::optional<Result<BsReply>> poll();
  // True while an op is in flight and not yet done: the next poll()
  // advances it.
  bool waiting() const { return op_.has_value() && !op_->reply.has_value(); }

  u64 retries() const { return c_retries_.value(); }

  // Stamp of the most recent put/del rpc (retries reuse it). The chaos
  // linearizability checker reads this right after each write op to learn
  // the sequence the op occupies in the per-key write order.
  u64 last_write_seq() const { return put_seq_; }

  // Thin view over the obs counters ("bsc<N>/..."): race-free merged reads.
  RetryStats retry_stats() const {
    return RetryStats{c_attempts_.value(),         c_retries_.value(),
                      c_backoff_polls_.value(),    c_failovers_.value(),
                      c_transient_errors_.value(), c_send_errors_.value(),
                      c_overloads_.value(),        c_sticky_resumes_.value(),
                      c_reconnects_.value()};
  }
  const RetryPolicy& policy() const { return policy_; }

  // The target the next rpc will be sent to (index 0 = the constructor's
  // server; failover targets follow in add_failover order).
  usize current_target() const { return current_target_; }

 private:
  using ChanKey = std::pair<NetAddr, Port>;

  static bool transient(ErrorCode err);

  // One blocking op: start(), then pump and poll until the reply.
  Result<BsReply> call(BsOp op, std::string_view key, std::span<const u8> value = {});

  // The op in flight. It waits for a poll in one of three phases; `left`
  // counts what the phase has left: backoff polls, sends of the frame, or
  // polls of the reply window. kNextAttempt waits for nothing: the last
  // attempt ended, and the next one starts at once.
  enum class Phase { kNextAttempt, kBackoff, kSending, kAwaiting };
  struct Op {
    u64 req_id = 0;
    std::vector<u8> frame;      // [u32 len][body], sent whole by each attempt
    std::vector<BsPeer> route;  // the key's owners (ring mode) or targets_
    bool ring_mode = false;
    usize idx = 0;              // route entry the current attempt uses
    usize attempt = 0;
    u64 polls_used = 0;
    u64 backoff = 0;            // the next timeout backoff
    u64 overload_backoff = 0;   // the next kOverloaded backoff
    bool overload_wait = false; // the next attempt is backpressure, not a probe
    ErrorCode last_err = ErrorCode::kTimedOut;
    Phase phase = Phase::kNextAttempt;
    u64 left = 0;
    usize sent = 0;             // frame bytes the stream accepted
    std::optional<Result<BsReply>> reply;  // set once the op is done
  };
  // The retry ladder's steps: each runs until the op waits for a poll or
  // the attempt ends (it sets the phase) or the op is done (it sets the
  // reply). run_attempts() starts attempts while one ends without waiting.
  void run_attempts();
  void next_attempt();
  void backoff_or_send();
  void push_frame();
  void await_reply();
  void read_reply();
  void end_attempt(ErrorCode err);
  void give_up();
  bool deadline_hit() const {
    return policy_.deadline_polls != 0 && op_->polls_used >= policy_.deadline_polls;
  }

  // One VTP stream to a server: the connection plus the reassembly buffer
  // for reply frames that arrived on it.
  struct VtpChan {
    Fd fd = kInvalidFd;
    std::vector<u8> inbuf;
  };
  // The channel to `peer`, connecting on first use. nullptr when connect
  // fails (the attempt machinery treats that as a send error and retries).
  VtpChan* vtp_chan(const BsPeer& peer);
  // Closes a stream after a typed error; the next rpc to that target
  // reconnects (counted in reconnects).
  void drop_vtp_chan(ChanKey key);

  Sys& sys_;
  std::vector<BsPeer> targets_;  // [0] = primary, rest = failover replicas
  usize current_target_ = 0;
  bool have_last_good_ = false;  // stickiness: resume rpcs on the last target
  usize last_good_target_ = 0;   // that actually answered (static routing only)
  std::optional<ClusterView> view_;  // set_cluster: ring routing for keyed ops
  std::function<void()> pump_;
  RetryPolicy policy_;
  Rng rng_{0xC11E47ull};  // jitter; fixed seed keeps runs replayable
  std::map<ChanKey, VtpChan> chans_;  // one stream per target
  std::set<ChanKey> dropped_;         // targets whose last stream died
  std::optional<Op> op_;              // the op in flight
  u64 next_req_id_ = 1;
  u64 put_seq_ = 0;  // write-sequence stamp: orders this client's puts per key
                     // across replicas (apply-if-newer on every server path)

  // Metrics ("bsc<N>/..."): per-core counters plus a span per blocking op
  // and a histogram of polls per rpc (the simulation's latency unit, so the
  // distribution replays bit-identically from a seed).
  const std::string obs_prefix_;
  Counter& c_attempts_;
  Counter& c_retries_;
  Counter& c_backoff_polls_;
  Counter& c_failovers_;
  Counter& c_transient_errors_;
  Counter& c_send_errors_;
  Counter& c_overloads_;
  Counter& c_sticky_resumes_;
  Counter& c_reconnects_;
  Histogram& h_rpc_polls_;
  const u32 span_rpc_;
};

}  // namespace vnros

#endif  // VNROS_SRC_APP_BLOCKSTORE_H_
