// VTP — the Verified Transport Protocol: the stack's stream transport.
//
// VTP carries the full connection-oriented contract the Sys socket surface
// exposes:
//   - listen with a bounded backlog + accept queue; SYNs past the backlog are
//     shed with a typed kOverloaded RST (visible at the connecting end);
//   - a three-way handshake whose SYN retransmits are budgeted — exhaustion
//     surfaces kTimedOut on the connection instead of retrying forever;
//   - sliding-window flow control against the receiver-advertised window
//     (every segment carries the advertisement; a zero window stalls the
//     sender, which probes with empty kData segments, and the receiver posts
//     a window-update ACK when the application read reopens it);
//   - an AIMD congestion window: slow start to ssthresh, additive increase
//     past it, multiplicative decrease (and a fresh ssthresh) on RTO loss;
//   - selective cumulative-ACK retransmission: only the segment at snd_una is
//     resent on timeout, out-of-order arrivals are buffered for reassembly
//     instead of dropped;
//   - unique connection tuples: connect refuses a live (peer, dst_port,
//     src_port) tuple with kAlreadyExists, and src_port 0 draws an unused
//     ephemeral port.
//
// Spec (net/vtp_* VCs, src/spec/pipe.h): each direction of every connection
// refines a reliable FIFO pipe — the byte sequence delivered to the receiving
// application is a prefix of the byte sequence the sender's application
// pushed, and under a fair-loss fabric (every retransmission delivered with
// nonzero probability; partitions eventually healed) the whole sequence is
// delivered. Window safety is an invariant, not a liveness property: bytes
// in flight past snd_una never exceed the last advertised window.
//
// Fault sites: "net/vtp_handshake" (an armed fire drops one handshake step —
// connect's SYN, a listener's SYN-ACK, or the final ACK) and
// "net/vtp_segment" (an armed fire drops one outbound segment at the stack
// boundary, below which the fabric's own loss/dup/reorder model applies).
#ifndef VNROS_SRC_NET_VTP_H_
#define VNROS_SRC_NET_VTP_H_

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/fault.h"
#include "src/base/result.h"
#include "src/hw/timer.h"
#include "src/net/ip.h"
#include "src/obs/registry.h"

namespace vnros {

using ConnId = u64;

enum class VtpState : u8 {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait,     // we sent FIN; draining our unacked data + awaiting FIN ack
  kPeerClosed,  // peer sent FIN; reads drain then report kPipeClosed
  kError,       // terminal typed failure (kTimedOut / kConnReset / kOverloaded)
};

// Point-in-time snapshot of a stack's obs counters (see stats()).
struct VtpStats {
  u64 segments_tx = 0;
  u64 segments_rx = 0;
  u64 rx_bad_checksum = 0;      // undecodable or checksum-failed segments, dropped
  u64 retransmits = 0;
  u64 cwnd_halvings = 0;
  u64 accept_shed = 0;          // SYNs refused because the backlog was full
  u64 ooo_buffered = 0;         // out-of-order segments kept for reassembly
  u64 duplicate_data = 0;
  u64 window_probes = 0;        // empty kData probes sent against a zero window
  u64 window_updates = 0;       // ACKs posted because a read reopened the window
  u64 window_violations = 0;    // safety tripwire: must stay 0 (VC-pinned)
  u64 resets_tx = 0;
  u64 conns_opened = 0;
  u64 conns_closed = 0;
};

class VtpStack {
 public:
  static constexpr usize kMss = 1024;            // max payload per segment
  static constexpr usize kRcvWindow = 16 * 1024; // receive buffer / max advertisement
  static constexpr usize kSndBufMax = 256 * 1024;  // send-side backpressure bound
  static constexpr u64 kRtoTicks = 16;           // retransmission timeout
  static constexpr u32 kMaxSynRetries = 5;       // then kTimedOut on the conn
  static constexpr usize kDefaultBacklog = 16;
  // connect(src_port = 0) draws from [kEphemeralBase, kEphemeralBase +
  // kEphemeralPorts), skipping ports a live connection or listener holds.
  static constexpr Port kEphemeralBase = 49152;
  static constexpr usize kEphemeralPorts = 16384;

  VtpStack(IpStack& ip, VirtualClock& clock);

  // --- Connection management -------------------------------------------------
  // `backlog` bounds accept queue + in-progress handshakes; SYNs beyond it
  // are shed with a typed kOverloaded RST.
  Result<Unit> listen(Port port, usize backlog = kDefaultBacklog);
  // Tears the listener down; queued-but-unaccepted connections and
  // handshakes still in progress on the port are reset.
  Result<Unit> unlisten(Port port);
  // Opens a connection from local `src_port`; 0 asks for an unused ephemeral
  // port (kBusy when none is free). A `src_port` whose (dst, dst_port,
  // src_port) tuple is already live is refused with kAlreadyExists: a tuple
  // names at most one connection, which is how an inbound segment finds its
  // connection.
  Result<ConnId> connect(NetAddr dst, Port dst_port, Port src_port);
  // Pops an established connection from `port`'s accept queue (kWouldBlock
  // while empty — transient, ring-parkable).
  Result<ConnId> accept(Port port);
  Result<Unit> close(ConnId id);

  // --- Data ------------------------------------------------------------------
  // Appends up to `data.size()` bytes to the send buffer and returns how many
  // were accepted; kWouldBlock when the buffer is full (transient,
  // ring-parkable). Transmission is driven by tick() and ACK clocking.
  Result<usize> send(ConnId id, std::span<const u8> data);
  // Pops up to max_len in-order bytes; kWouldBlock when none buffered and the
  // peer is still open, kPipeClosed once drained after the peer's FIN, or the
  // connection's typed terminal error.
  Result<std::vector<u8>> recv(ConnId id, usize max_len);

  // Drains the IP layer and dispatches inbound segments (no time advance);
  // send/recv/accept call this so ring-parked retries make progress.
  void poll();
  // poll() + transmit eligible segments + fire retransmission/probe timers +
  // reap fully-closed connections; advances virtual time by one tick.
  void tick();

  // Readiness probes: would recv / send / accept return something other
  // than kWouldBlock right now? True for a connection or listener that is
  // gone (the op then fails typed). The ring reactor arms these through the
  // IP layer's readiness record, which this stack marks on every transition
  // that can make them true (src/net/readiness.h).
  bool readable(ConnId id) const;
  bool writable(ConnId id) const;
  bool acceptable(Port port) const;

  bool is_established(ConnId id) const;
  VtpState state(ConnId id) const;
  // The connection's terminal typed error (kOk while healthy).
  ErrorCode conn_error(ConnId id) const;
  u64 unacked_bytes(ConnId id) const;
  Port local_port(ConnId id) const;  // 0 for an unknown id
  usize active_conns() const;
  u64 accept_queue_p99() const { return h_accept_queue_->snapshot().percentile(99.0); }

  // Thin race-free view over the per-core obs counters ("vtp<N>/...").
  VtpStats stats() const {
    return VtpStats{c_segments_tx_.value(),       c_segments_rx_.value(),
                    c_rx_bad_checksum_.value(),   c_retransmits_.value(),
                    c_cwnd_halvings_.value(),     c_accept_shed_.value(),
                    c_ooo_buffered_.value(),      c_duplicate_data_.value(),
                    c_window_probes_.value(),     c_window_updates_.value(),
                    c_window_violations_.value(), c_resets_tx_.value(),
                    c_conns_opened_.value(),      c_conns_closed_.value()};
  }

 private:
  struct Conn {
    VtpState state = VtpState::kClosed;
    NetAddr peer = 0;
    Port local_port = 0;
    Port peer_port = 0;
    ErrorCode error = ErrorCode::kOk;  // terminal reason when state == kError

    // Send side: bytes the app handed us, indexed from snd_base_seq.
    std::deque<u8> snd_buf;
    u64 snd_base_seq = 1;
    u64 snd_una = 1;   // lowest unacked byte seq
    u64 snd_nxt = 1;   // next never-transmitted byte seq
    u64 peer_wnd = kRcvWindow;  // last receiver advertisement
    u64 cwnd = 2 * kMss;
    u64 ssthresh = kRcvWindow;
    u64 last_progress_tick = 0;  // last snd_una advance or head (re)transmit
    u32 syn_retries = 0;
    bool fin_queued = false;
    bool fin_acked = false;
    u64 fin_seq = 0;

    // Receive side: in-order bytes ready for the app, plus a bounded
    // reassembly buffer of out-of-order segments keyed by sequence.
    u64 rcv_nxt = 1;
    std::deque<u8> rcv_ready;
    std::map<u64, std::vector<u8>> ooo;
    usize ooo_bytes = 0;
    bool peer_fin = false;
    u64 peer_fin_seq = 0;  // nonzero once the peer's FIN seq is known

    u64 bytes_in_flight() const { return snd_nxt - snd_una; }
    u64 buffered_end() const { return snd_base_seq + snd_buf.size(); }
    u64 advertised_wnd() const {
      usize used = rcv_ready.size() + ooo_bytes;
      return used >= kRcvWindow ? 0 : kRcvWindow - used;
    }
  };

  using ConnMap = std::map<ConnId, Conn>;

  struct Listener {
    usize backlog = kDefaultBacklog;
    std::deque<ConnId> queue;  // established, awaiting accept()
  };

  void on_segment(const IpHeader& ip, std::span<const u8> payload);
  void transmit(Conn& conn, VtpType type, u64 seq, u64 ack, std::span<const u8> payload);
  void transmit_rst(NetAddr dst, Port src_port, Port dst_port, ErrorCode reason);
  // Sends new data permitted by min(cwnd, peer_wnd) starting at snd_nxt;
  // called from tick(), send() and ACK arrival (ack clocking).
  void pump_send_locked(Conn& conn);
  void retransmit_head_locked(Conn& conn);
  void ack_locked(Conn& conn);
  // Terminal typed failure; wakes the connection's parked ops.
  void fail_locked(ConnId id, Conn& conn, ErrorCode reason);
  // Inserts `conn` under the next id and indexes its tuple.
  ConnMap::iterator add_conn_locked(Conn conn);
  // Erases a connection and its index entry and wakes its parked ops.
  void drop_conn_locked(ConnId id);
  // Marks `id` in the readiness record for a recv and/or send waiter.
  void wake_locked(ConnId id, bool recv, bool send);
  usize synrcvd_count_locked(Port port) const;
  Conn* find_locked(ConnId id);
  const Conn* find_locked(ConnId id) const;
  // The connection on the tuple (peer, local, remote), or conns_.end().
  ConnMap::iterator match_locked(NetAddr peer, Port local, Port remote);
  bool port_in_use_locked(Port port) const;
  Port ephemeral_port_locked();  // 0 when every ephemeral port is held

  IpStack& ip_;
  VirtualClock& clock_;
  mutable std::mutex mu_;
  // Id-ordered: tick() transmits in this order, so it is part of the schedule
  // a seed replays. Segments find their connection through by_tuple_.
  ConnMap conns_;
  // Tuple key (see tuple_key in vtp.cc) -> the connection's entry in conns_;
  // map iterators stay valid until that entry is erased. One entry per
  // connection, because tuples are unique: connect refuses a live tuple and a
  // SYN on one is answered on it. Entries are added only by add_conn_locked
  // and removed only by drop_conn_locked.
  std::unordered_map<u64, ConnMap::iterator> by_tuple_;
  std::map<Port, Listener> listeners_;
  ConnId next_id_ = 1;
  u64 next_ephemeral_ = 0;  // ephemeral port cursor

  const std::string obs_prefix_;
  Counter& c_segments_tx_;
  Counter& c_segments_rx_;
  Counter& c_rx_bad_checksum_;
  Counter& c_retransmits_;
  Counter& c_cwnd_halvings_;
  Counter& c_accept_shed_;
  Counter& c_ooo_buffered_;
  Counter& c_duplicate_data_;
  Counter& c_window_probes_;
  Counter& c_window_updates_;
  Counter& c_window_violations_;
  Counter& c_resets_tx_;
  Counter& c_conns_opened_;
  Counter& c_conns_closed_;
  Histogram* h_accept_queue_;  // queue depth sampled at each enqueue
  const u32 span_handshake_;
  const u32 span_retransmit_;
  FaultSite* fault_handshake_;
  FaultSite* fault_segment_;
};

}  // namespace vnros

#endif  // VNROS_SRC_NET_VTP_H_
