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
// Each plane serves only its own role's ops (the op table in src/app/wire.h
// lists which). Streams serve the client ops; the peer datagram socket
// serves the replication, repair, anti-entropy and GC ops. A known op that
// arrives on the other plane is refused with kNotPermitted before
// admission: it takes no token and changes nothing.
//
// Abstract spec (checked by app/* VCs): the node refines the map
// key -> bytes with operations
//   put(k, v):  ack  =>  get(k) returns exactly v until overwritten/deleted,
//               and v survives a crash (fsync-before-ack);
//   get(k):     returns the last acknowledged put, kNotFound if none,
//               kCorrupted (never garbage) if storage bits rotted;
//   del(k):     ack  =>  get(k) returns kNotFound.
// A request body is bounded by kVtpConnBufMax (1 MiB): a put's key and
// value together may hold at most 1 MiB less 25 bytes of request header,
// and the client refuses a larger put with kInvalidArgument.
//
// Replication: a put (or sequenced delete) on its coordinator is pushed,
// acked, to the key's other ring owners, and an owner that does not ack gets
// a parked hint instead (see ClusterView below). A node that was never
// configured has an empty view and replicates to no one.
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
#include "src/app/wire.h"
#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/kernel/syscall.h"
#include "src/obs/registry.h"

namespace vnros {

// The client-facing wire. VTP streams are the only client plane: the
// transport retransmits at its own RTO, requests and replies are
// length-framed on the byte stream, and the node serves connections through
// ring-parked accept/recv SQEs. The node-to-node plane (replication pushes,
// repair fetches, anti-entropy) rides datagrams. The enum remains only as
// BlockStoreNode's trailing constructor argument, which the node ignores.
enum class BsTransport : u8 {
  kVtp = 1,
};

// A finished op's reply: the payload, plus the write sequence the serving
// replica stamped on it (kGet and kGetBlock; 0 for every other op).
struct BsReply {
  std::vector<u8> value;
  u64 seq = 0;
};

// One block as a node stores it: the write sequence stamped when it was
// written, whether it is a tombstone (a sequenced delete marker, with no
// bytes), and the payload bytes. A DecodedBlock owns its bytes (a block read
// off a disk or a reply); a BlockRef views them, and is the value every
// write carries from the coordinator to the disk, so no put copies its
// value on the way.
template <typename Bytes>
struct SequencedBlock {
  u64 seq = 0;
  bool tombstone = false;
  Bytes bytes{};

  SequencedBlock<std::span<const u8>> ref() const { return {seq, tombstone, bytes}; }
};
using DecodedBlock = SequencedBlock<std::vector<u8>>;
using BlockRef = SequencedBlock<std::span<const u8>>;

// Decodes a kGetBlock reply: its BlockPayload, the sequence riding in
// BsReply::seq. kCorrupted when the payload is malformed (a missing flag
// byte, or one other than 0 or 1), or when a tombstone carries bytes.
Result<DecodedBlock> decode_block_reply(BsReply reply);

struct BsPeer {
  NetAddr addr = 0;
  Port port = 0;

  bool operator==(const BsPeer&) const = default;
};

// How long one peer call tries: up to `attempts` sends, each awaited for
// `window` pump polls.
struct PeerRetry {
  usize attempts = 1;
  usize window = 1;
};

// Wire bytes one peer call moved: every send's request bytes, and the bytes
// of the reply that ended it.
struct PeerTraffic {
  u64 sent = 0;
  u64 received = 0;
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

  // A fixed membership: member i is BsNodeId i, reached at members[i], on a
  // ring of 32 points per member. Each member's node then takes the view
  // with configure_cluster({.self = i}, view).
  static ClusterView of(const std::vector<BsPeer>& members, usize replication) {
    ClusterView v;
    v.ring = PlacementRing(32);
    v.replication = replication;
    for (usize i = 0; i < members.size(); ++i) {
      v.ring.add_node(static_cast<BsNodeId>(i));
      v.directory[static_cast<BsNodeId>(i)] = members[i];
    }
    return v;
  }
};

// Per-node cluster parameters (fixed at configure_cluster time).
struct ClusterConfig {
  BsNodeId self = 0;
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
  // Total pump-poll budget awaiting each replica ack. Replies arrive as ring
  // completions (the repair socket keeps one recv SQE parked in the kernel),
  // so this is a deadline, not a spin count: the push is re-sent once at
  // half the deadline and abandoned (hinted) when the budget runs out.
  static constexpr usize kAckDeadlinePolls = 192;
  // Hinted-handoff bound: at most this many hints parked per unreachable
  // peer. Past the cap the lowest-sequence (oldest) hint for that peer is
  // dropped (counted in hints_dropped) — anti-entropy remains the backstop
  // for whatever a dropped hint would have carried.
  static constexpr usize kMaxHintsPerPeer = 64;

  // `sys` is this node's (process's) view of its OS. The node binds `port`.
  // `pump` (optional) advances the simulated world while the node waits for
  // another node's reply inside call_peer: replica pushes, read-repair
  // fetches and anti-entropy RPCs all wait there. Without a pump every peer
  // call fails with kUnsupported, so a push is hinted at once, a corrupt
  // read stays kCorrupted and anti-entropy cannot run. `fault_prefix` (optional)
  // registers a "<prefix>/serve_delay" latency injection site: when armed
  // with a FaultSpec whose delay is nonzero, serve_once() stalls for that
  // many calls before touching its socket — a deterministic slow peer.
  // Clients reach the node over VTP streams on `port`, peers over datagrams
  // on the same port number. `peers` must be empty (checked) and the
  // trailing BsTransport is unread: replication follows the view
  // configure_cluster installs, and the two parameters stay only so callers
  // that pass them by position compile.
  BlockStoreNode(Sys& sys, Port port, std::vector<BsPeer> peers = {},
                 std::function<void()> pump = {}, std::string fault_prefix = {},
                 BsTransport = BsTransport::kVtp);

  // Creates /blocks (and /hints), binds the peer datagram socket and opens
  // the client stream listener. Idempotent across restarts of the same
  // filesystem (recovery path).
  Result<Unit> init();

  // Sets the node's identity and its view: placement and replication follow
  // `view`'s ring. Until the first call the view is empty and the node
  // replicates to no one. Call again after a reboot to restore the node's
  // belief about the cluster.
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

  // Apply-if-newer, the one write entry point below the coordinator write:
  // persists `block` unless the local intact copy is strictly newer, in
  // which case the write is refused as stale but still reported kOk (the
  // caller's bytes are durably superseded). `applied` (optional) reports
  // whether the bytes landed, so callers can count real applies apart from
  // stale refusals. Replica pushes, hint delivery, the coordinator write and
  // every external repair driver write through it: the sequence rides
  // along, so repair can never resurrect a value the cluster has already
  // superseded.
  Result<Unit> apply_remote(std::string_view key, BlockRef block, bool* applied = nullptr);
  // The same, with the block spelled out: (value, seq), or a tombstone at
  // seq when `tombstone`.
  Result<Unit> apply_remote(std::string_view key, std::span<const u8> value, u64 seq,
                            bool tombstone, bool* applied = nullptr) {
    return apply_remote(key, BlockRef{seq, tombstone, value}, applied);
  }

  // Bounded tombstone GC. For up to `max_batch` local
  // tombstones: every other cluster member must ack the tombstone's
  // sequence (the ack certifies "I durably hold this key at seq >= yours
  // AND hold no older parked hint for it" — the kDelReplica handler drops
  // matching hints before acking). Only then is the tombstone dropped,
  // cluster-wide (kTombstoneGc) then locally — so a lagging replica can
  // never resurrect the deleted key. Returns tombstones reclaimed.
  u64 gc_tombstones(usize max_batch = 32);

  // get(), but a kCorrupted local block is repaired from the key's other
  // owners (if any) before failing: the raw block is fetched from one
  // (kGetBlock through call_peer) and re-persisted locally at its sequence.
  // A fetched value is returned; a fetched tombstone is re-persisted as one
  // and answers kNotFound. This is what serve_once uses for kGet, so
  // clients never see corruption a peer can cure.
  Result<std::vector<u8>> get_or_repair(std::string_view key);

  // The node's one request/reply call to a peer. It sends `op` with req's
  // key and body fields (as op's row declares them) from the repair socket
  // under a fresh req_id and waits for the reply on the repair ring
  // (await_repair_reply), re-sending only after a send fails or a window
  // passes in silence. The first reply carrying the req_id ends the call:
  // its payload and sequence on kOk, the peer's error code otherwise.
  // kTimedOut (or the last send error) when every attempt went unanswered;
  // kUnsupported when the node has no pump. A send of a replica push (a
  // kBsPush row) counts in replicas_pushed. `traffic` (optional)
  // accumulates the wire bytes.
  Result<BsReply> call_peer(const BsPeer& peer, BsOp op, BsRequest req, PeerRetry retry,
                            PeerTraffic* traffic = nullptr);

  // Abstract view: every live (key, bytes) currently stored and intact
  // (tombstones are deletion markers, not values — they are excluded).
  std::map<std::string, std::vector<u8>> view() const;

  // Anti-entropy inventory: (key, crc, seq, tombstone) for every intact
  // block, tombstones included — sync must see deletions to propagate them.
  std::vector<BlockKeyInfo> list() const;

  // The request core both planes share, run by serve_once on every request
  // that arrives (as SyscallDispatcher::handle is for syscalls): decodes one
  // request that arrived on `plane`, executes it, and returns the reply
  // bytes — or nullopt when the request head is malformed and warrants no
  // reply. An op that `plane` does not serve gets kNotPermitted before
  // admission.
  std::optional<std::vector<u8>> handle_request(BsPlane plane, std::span<const u8> payload);

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

  // Path of the file backing `key` ("/blocks/<hex>"): public so tests can
  // inject storage corruption at the right place.
  static std::string key_path(std::string_view key);

 private:
  // How one hand-off of a block to an owner ended: the owner acked it, a
  // hint was parked for it instead, or neither.
  enum class Handoff { kAcked, kHinted, kFailed };

  // Persists `block` as key's block file: written whole to a ".tmp" sidecar,
  // renamed over the block, then fsynced.
  Result<Unit> put_local(std::string_view key, BlockRef block);
  // The coordinator write, a value or a tombstone alike: apply-if-newer,
  // counted as a put or a delete, then replicated when it landed. The
  // client's stamp rides in block.seq; the seq-less public put() and del()
  // stamp local_seq + 1.
  Result<Unit> coordinate(std::string_view key, BlockRef block);
  // Sequence of the local intact copy (live or tombstone); 0 when missing or
  // corrupt (so any incoming write, including a re-pushed seq-0 legacy
  // block, may land).
  u64 local_seq(std::string_view key) const;
  // get_or_repair with the block's sequence; a cured tombstone reads as
  // kNotFound.
  Result<DecodedBlock> get_or_repair_block(std::string_view key);

  // Replication plumbing.
  // Hands `block` to every other owner of `key`.
  void replicate(std::string_view key, BlockRef block);
  // The one step that moves a block to an owner: pushes it, acked, as its
  // replica_op; an owner that does not ack gets a parked hint instead when
  // `park` (hint delivery passes false: its block is already parked).
  // kFailed also when the owner has no directory entry.
  Handoff hand_off(BsNodeId owner, std::string_view key, BlockRef block, bool park);
  // A write op (kPutReplica carries req's value and seq; kDelReplica and
  // kTombstoneGc carry its seq) through call_peer, in two windows of half
  // kAckDeadlinePolls each. kOk only when the peer acked kOk: an
  // error reply fails the push at once, as two silent windows do.
  Result<Unit> push_acked(const BsPeer& peer, BsOp op, const BsRequest& req);
  // Parks `block` for `owner` as "/hints/<owner>_<hexkey>", in block format
  // and unsynced, within the per-peer cap.
  Result<Unit> write_hint(BsNodeId owner, std::string_view key, BlockRef block);
  // Drops every parked hint for `key` (any owner) whose sequence is <= seq:
  // the tombstone GC barrier — an ack of a tombstone must also certify no
  // older hint for the key survives on the acking node.
  void drop_stale_hints(std::string_view key, u64 seq);
  // Per-peer hint bound: evicts the lowest-sequence hint for `owner` when
  // the cap is reached. Returns false when the incoming hint (at `seq`) is
  // itself the oldest and should be dropped instead of written.
  bool reserve_hint_slot(BsNodeId owner, std::string_view key, u64 seq);
  // Replica peers consulted by get_or_repair: the key's other ring owners.
  std::vector<BsPeer> repair_peers(std::string_view key) const;
  // Admission gate for one served op: true = admitted (a token was taken),
  // false = shed. Always admits when admission is disabled.
  bool admit_op();

  // --- Serve/repair rings (async syscall path) ------------------------------
  // Lazily creates the serve ring and keeps kServeWorkers recv SQEs parked
  // on the peer datagram socket. False when the kernel refuses (ring
  // exhausted).
  bool ensure_serve_ring();
  // Handles one node-to-node request datagram on the peer plane; the reply
  // goes straight back to the sender as one datagram, with no ring submit.
  void process_request(NetAddr src, Port src_port, std::span<const u8> payload);
  // Executes one decoded, admitted request, filling the reply's error code,
  // payload and sequence.
  void serve_request(const BsRequest& req, BsReplyFrame& reply);

  // --- VTP stream serve plane (client connections) ---------------------------
  // One accepted client connection: `in` reassembles request frames off
  // the byte stream (a header claiming more than kVtpConnBufMax closes the
  // connection); outbuf holds reply bytes the transport has not yet
  // accepted (flushed every drain, closed past kVtpConnBufMax — slow
  // consumer).
  struct VtpServeConn {
    Fd fd = kInvalidFd;
    StreamFramer in;
    std::vector<u8> outbuf;
    bool recv_armed = false;
    bool serving = false;  // an on_vtp_bytes call is serving its frames
  };
  // Keeps the VTP listener up, one accept SQE parked (kAcceptTag), and one
  // recv SQE parked per accepted connection (kVtpConnTag | slot).
  void ensure_vtp_serve();
  // Consumes newly received stream bytes for `slot`: reassembles frames,
  // runs handle_request on each, frames the replies into outbuf, flushes.
  // A call nested inside another one's request for the same connection only
  // appends the bytes; the outer call serves them after its current frame.
  usize on_vtp_bytes(u64 slot, std::span<const u8> bytes);
  void vtp_flush(VtpServeConn& conn);
  void close_vtp_conn(u64 slot);
  // Awaits one repair-socket reply whose leading req_id matches: keeps a
  // single recv SQE parked on repair_sock_ (via the repair ring), pumping up
  // to `polls` times. Returns the whole matched reply payload (req_id word
  // included); kTimedOut when the budget runs out. Waits nest — the pump can
  // serve a request that calls a peer from this node — so a reply for another
  // in-flight wait is stashed for it; replies for RPCs no wait awaits any
  // more (timed out) are dropped.
  Result<std::vector<u8>> await_repair_reply(u64 req_id, usize polls);
  // The body of await_repair_reply, with req_id registered in awaiting_.
  Result<std::vector<u8>> poll_repair_reply(u64 req_id, usize polls);

  Sys& sys_;
  Port port_;
  std::function<void()> pump_;
  Fd sock_ = kInvalidFd;
  Fd repair_sock_ = kInvalidFd;  // call_peer's socket: peer replies never steal
                                 // datagrams destined for the service socket
  bool in_repair_ = false;       // re-entrancy guard (pump may recurse into us)
  u64 next_repair_req_id_ = 1;

  // Serve worker pool: a ring with a fixed complement of parked receives.
  static constexpr usize kServeWorkers = 4;
  static constexpr u64 kAcceptTag = 1ull << 62;    // the parked VTP accept SQE
  static constexpr u64 kVtpConnTag = 1ull << 61;   // VTP recv CQE; low bits = slot
  static constexpr usize kVtpRecvChunk = 32 * 1024;  // per-recv byte bound
  // Accept-queue + in-progress-handshake bound. Accepts drain one per serve
  // pass, so the backlog must absorb a whole client fleet connecting at once
  // (handshakes complete and requests buffer while the conn awaits accept).
  static constexpr usize kVtpBacklog = 2048;
  static_assert(kVtpBacklog <= kMaxVtpBacklog, "vtp_listen would refuse the serve backlog");
  u32 serve_ring_ = 0;        // 0 = not yet set up
  usize serve_recvs_ = 0;     // recv SQEs currently parked (<= kServeWorkers)
  u32 repair_ring_ = 0;       // dedicated ring for call_peer's replies
  bool repair_recv_armed_ = false;  // one recv SQE parked on repair_sock_
  std::vector<u64> awaiting_;       // req_ids of the in-flight repair waits
  std::map<u64, std::vector<u8>> stashed_replies_;  // req_id -> a reply reaped
                                                    // by another wait

  Fd vtp_listener_ = kInvalidFd;
  bool accept_armed_ = false;          // one accept SQE parked on the listener
  std::map<u64, VtpServeConn> vtp_conns_;  // slot -> accepted connection
  u64 next_vtp_slot_ = 0;

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
  usize max_attempts = 16;       // sends per rpc (across the op's route)
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
  u64 failovers = 0;         // switches to the route's next member
  u64 transient_errors = 0;  // kIoError/kNoMemory/kBusy replies absorbed by retry
  u64 send_errors = 0;       // local send failures absorbed by retry
  u64 overloads = 0;         // kOverloaded replies absorbed by backpressure
  u64 reconnects = 0;        // streams re-opened to a member whose previous
                             // stream died with a typed error
};

// Client library: request/response over one VTP stream per member, with
// timeout + retry. The client routes by its ClusterView only: a keyed op
// (put/get/del) goes to the key's owners, primary first, and a ping to the
// view's members in id order. The stream retransmits lost segments below
// the rpc layer; an rpc whose reply misses its attempt window re-sends the
// request (operations are idempotent, so at-least-once delivery preserves
// the abstract map semantics). Transient server errors (fault-injected
// kIoError/kNoMemory, kBusy) are retried with exponential backoff +
// jitter; timeouts and transient errors rotate the rpc to the next member
// of its route.
//
// The core is non-blocking and holds one op in flight per client object:
// start() sends it and each poll() advances it by one poll. The blocking
// ops (put/get/del/ping) are start() plus a pump-then-poll loop, so a
// harness that drives hundreds of clients on one thread polls each client
// object itself and the blocking caller runs the very same state machine.
class BlockStoreClient {
 public:
  // `view` is the cluster the client routes by; a harness that talks to one
  // node passes a one-member view of it (ClusterView::of({{addr, port}}, 1)).
  // `pump` advances the simulated world between the polls of a blocking op
  // — the simulation's stand-in for wall-clock time. It must serve the
  // nodes and tick every host's VTP stack; a client driven only through
  // start()/poll() may pass none. Each member gets one stream, connected
  // lazily from a kernel-assigned source port and reconnected after any
  // terminal connection error; requests and replies are framed
  // [u32 len][body]. The client opens no datagram socket.
  BlockStoreClient(Sys& sys, ClusterView view, std::function<void()> pump,
                   RetryPolicy policy = {});

  // Adopts a new view (a membership change); the next op routes by it.
  void set_cluster(const ClusterView& view) { view_ = view; }

  // Blocking ops: each records one bs/rpc span.
  Result<Unit> put(std::string_view key, std::span<const u8> value);
  Result<std::vector<u8>> get(std::string_view key);
  // get() plus the write sequence the serving replica stamped on the bytes —
  // the observable the linearizability checker orders reads by.
  Result<std::pair<std::vector<u8>, u64>> get_with_seq(std::string_view key);
  Result<Unit> del(std::string_view key);
  Result<Unit> ping();

  // Sends `op` (kPut carries `value`; kPut and kDel take a fresh write
  // stamp). Each refusal below sends nothing and uses no request id or
  // stamp: kBusy while an earlier op's reply has not yet been returned by
  // poll(); kNotFound when the view cannot route `op` (a key with no owner
  // in the directory, a ping to an empty view, or a peer op, which no
  // client sends); kInvalidArgument when the request body would exceed
  // kVtpConnBufMax.
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
                      c_overloads_.value(),        c_reconnects_.value()};
  }

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
    std::vector<BsPeer> route;  // the key's owners, or the members for a ping
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

  // One VTP stream to a server: the connection plus the reassembly of the
  // reply frames that arrived on it.
  struct VtpChan {
    Fd fd = kInvalidFd;
    StreamFramer in;
  };
  // The channel to `peer`, connecting on first use. nullptr when connect
  // fails (the attempt machinery treats that as a send error and retries).
  VtpChan* vtp_chan(const BsPeer& peer);
  // Closes a stream after a typed error; the next rpc to that member
  // reconnects (counted in reconnects).
  void drop_vtp_chan(ChanKey key);

  Sys& sys_;
  ClusterView view_;  // every op routes by it
  std::function<void()> pump_;
  RetryPolicy policy_;
  Rng rng_{0xC11E47ull};  // jitter; fixed seed keeps runs replayable
  std::map<ChanKey, VtpChan> chans_;  // one stream per member
  std::set<ChanKey> dropped_;         // members whose last stream died
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
  Counter& c_reconnects_;
  Histogram& h_rpc_polls_;
  const u32 span_rpc_;
};

}  // namespace vnros

#endif  // VNROS_SRC_APP_BLOCKSTORE_H_
