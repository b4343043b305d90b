// Readiness: how the net stacks tell the SysRing reactor that a socket
// changed state — io_uring's poll-armed model.
//
// A ring op whose synchronous form returned a transient kWouldBlock parks on
// one WaitKey: the event that could let it complete (a datagram on a UDP
// port, a connection in a listener's accept queue, bytes, FIN or an error on
// a VTP connection, or send-buffer space on one). The reactor arms the key;
// the stack that owns the object marks it when that event may have happened;
// the reactor's next pass takes the marked keys and re-executes only the ops
// parked on them. Arming is one-shot, and a mark of an unarmed key is
// dropped, so a kernel with nothing parked records nothing.
//
// Marks may be spurious (the woken op parks again) but never missing: every
// transition that can end a kWouldBlock marks. An op checks its object under
// the stack's lock and is armed after that lock is released, so a change in
// between would find the key unarmed; arm() therefore re-probes the object
// through the probe its stack registered and reports an event that already
// happened.
//
// Lock order: the ring lock, then a stack lock, then this record's lock,
// which is a leaf. Stacks mark under their own lock; arm() runs the probe
// after releasing this record's lock.
#ifndef VNROS_SRC_NET_READINESS_H_
#define VNROS_SRC_NET_READINESS_H_

#include <array>
#include <functional>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/base/types.h"

namespace vnros {

// The event a parked op waits on.
struct WaitKey {
  enum class Kind : u8 {
    kUdpRecv,    // id = bound UDP port: a datagram queued, or the port unbound
    kVtpAccept,  // id = listening port: a connection queued, or the listener gone
    kVtpRecv,    // id = ConnId: bytes, FIN or a terminal error, or the conn gone
    kVtpSend,    // id = ConnId: send-buffer space or a terminal error, or the conn gone
  };
  static constexpr usize kKinds = 4;

  Kind kind = Kind::kUdpRecv;
  u64 id = 0;

  auto operator<=>(const WaitKey&) const = default;
};

class Readiness {
 public:
  // True when `id`'s event has happened, judged from the owning stack's
  // state. Registered once by each stack at construction.
  using Probe = std::function<bool(u64 id)>;

  void set_probe(WaitKey::Kind kind, Probe probe);

  // Arms `key` for its next mark. Returns true when the event has already
  // happened (the caller must not wait for a mark; the key is left unarmed).
  bool arm(WaitKey key);
  void disarm(WaitKey key);
  // Records that `key`'s object changed state, if the key is armed (which
  // spends the arming).
  void mark(WaitKey key);
  // Appends every key marked since the last take() to `out`.
  void take(std::vector<WaitKey>& out);
  // Runs `key`'s probe: has its event happened?
  bool ready(WaitKey key) const;

 private:
  struct Hash {
    usize operator()(const WaitKey& k) const noexcept {
      return static_cast<usize>(k.id * 0x9E37'79B9'7F4A'7C15ull) ^ static_cast<usize>(k.kind);
    }
  };

  mutable std::mutex mu_;
  std::unordered_set<WaitKey, Hash> armed_;
  std::vector<WaitKey> marked_;
  std::array<Probe, WaitKey::kKinds> probes_;
};

}  // namespace vnros

#endif  // VNROS_SRC_NET_READINESS_H_
