// VTP stream sockets for green threads: co_await accept/send/recv.
//
// UVtp is the typed face of URingExecutor for the kVtp* syscalls. The three
// ring-parkable ops (accept, send, recv) become awaitables that submit one
// SQE and park the uthread until the kernel's reactor delivers the CQE —
// a transient kWouldBlock (empty accept queue, full send buffer, nothing
// received yet) never completes the op, it just stays parked, so a uthread
// written as straight-line code blocks exactly where a thread would.
// listen/connect/close stay synchronous: they complete immediately at the
// dispatcher and gain nothing from a ring round-trip.
//
// Send keeps stream semantics: the awaited result is how many bytes the
// transport accepted (possibly fewer than offered); send_all loops until the
// whole span is buffered. recv resolves with the popped bytes, kPipeClosed
// once the peer's FIN drains, or the connection's typed terminal error.
#ifndef VNROS_SRC_ULIB_UVTP_H_
#define VNROS_SRC_ULIB_UVTP_H_

#include <span>
#include <vector>

#include "src/base/result.h"
#include "src/kernel/syscall.h"
#include "src/ulib/uring.h"
#include "src/ulib/uthread.h"

namespace vnros {

class UVtp {
 public:
  UVtp(URingExecutor& exec, Sys& sys) : exec_(exec), sys_(sys) {}

  // --- Synchronous (not ring-parkable) ---------------------------------------
  Result<Fd> listen(Port port, usize backlog = 16) { return sys_.vtp_listen(port, backlog); }
  Result<Fd> connect(NetAddr dst, Port dst_port, Port src_port) {
    return sys_.vtp_connect(dst, dst_port, src_port);
  }
  Result<Unit> close(Fd fd) { return sys_.vtp_close(fd); }

  // --- Awaitables ------------------------------------------------------------
  // An OpAwaiter for syscall N whose resume value is the typed result the
  // synchronous Sys method would have returned.
  template <SysNr N>
  struct Typed {
    URingExecutor::OpAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(UTask::Handle h) { inner.await_suspend(h); }
    Result<SysReply<N>> await_resume() {
      RingOpResult r = inner.await_resume();
      return sys_reply<N>(r.err, r.payload);
    }
  };

  // Parks until an established connection is queued; resumes with its fd.
  Typed<SysNr::kVtpAccept> accept(Fd listener) {
    return {exec_.submit<SysNr::kVtpAccept>(listener)};
  }

  // Parks while the send buffer is full; resumes with the bytes accepted.
  Typed<SysNr::kVtpSend> send(Fd fd, std::span<const u8> data) {
    return {exec_.submit<SysNr::kVtpSend>(fd, data)};
  }

  // Parks until in-order bytes (or the peer's FIN / a typed error) arrive.
  Typed<SysNr::kVtpRecv> recv(Fd fd, usize max_len) {
    return {exec_.submit<SysNr::kVtpRecv>(fd, max_len)};
  }

  // Convenience coroutine: awaits send() until the whole span is buffered.
  UTask send_all(Fd fd, std::vector<u8> data, Result<Unit>* out) {
    usize off = 0;
    while (off < data.size()) {
      auto n = co_await send(fd, std::span<const u8>(data.data() + off, data.size() - off));
      if (!n.ok()) {
        *out = n.error();
        co_return;
      }
      off += static_cast<usize>(n.value());
    }
    *out = Unit{};
  }

 private:
  URingExecutor& exec_;
  Sys& sys_;
};

}  // namespace vnros

#endif  // VNROS_SRC_ULIB_UVTP_H_
