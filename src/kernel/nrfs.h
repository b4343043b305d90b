// NrFs: the filesystem served through node replication (§4.1 — NrOS's main
// services, the file system included, are sequential structures scaled with
// NR).
//
// FsDs wraps the in-memory MemFs as an NR Dispatch structure: every mutation
// is a logged FsMutation (src/kernel/fs.h) that each replica commits
// identically (MemFs is deterministic, including inode-number assignment),
// and reads are served replica-locally under the distributed reader lock.
// Persistence composes at a different layer (the journaled MemFs over a
// BlockDevice); NrFs is the scalability half of the design, and
// kernel/nrfs_* VCs check that the replicas never diverge and that NrFs is
// observationally equivalent to a single MemFs.
#ifndef VNROS_SRC_KERNEL_NRFS_H_
#define VNROS_SRC_KERNEL_NRFS_H_

#include <string>
#include <variant>
#include <vector>

#include "src/kernel/fs.h"
#include "src/kernel/nr_shards.h"
#include "src/nr/node_replicated.h"

namespace vnros {

struct FsDs {
  // Every replica commits the same logged mutation through MemFs::commit.
  using WriteOp = FsMutation;

  struct ReadDataOp {
    std::string path;
    u64 offset = 0;
    u64 len = 0;
  };
  struct ReaddirOp {
    std::string path;
  };
  struct StatOp {
    std::string path;
  };
  struct ReadOp {
    std::variant<std::monostate, ReadDataOp, ReaddirOp, StatOp> op;
  };

  struct Response {
    ErrorCode err = ErrorCode::kOk;
    u64 length = 0;                   // bytes read / written
    std::vector<u8> data;             // read payload
    std::vector<std::string> names;   // readdir
    FileStat stat;

    bool operator==(const Response&) const = default;
  };

  // Each replica holds its own in-memory tree; copying a (fresh) FsDs for a
  // new replica starts it empty — the log replay reconstructs identical
  // state everywhere.
  MemFs fs;

  FsDs() = default;
  FsDs(const FsDs&) : fs() {}
  FsDs& operator=(const FsDs&) = delete;

  Response dispatch(const ReadOp& op) const {
    Response resp;
    if (const auto* rd = std::get_if<ReadDataOp>(&op.op)) {
      std::vector<u8> buf(rd->len);
      auto r = fs.read(rd->path, rd->offset, buf);
      resp.err = r.error();
      if (r.ok()) {
        resp.err = ErrorCode::kOk;
        resp.length = r.value();
        buf.resize(r.value());
        resp.data = std::move(buf);
      }
      return resp;
    }
    if (const auto* dd = std::get_if<ReaddirOp>(&op.op)) {
      auto r = fs.readdir(dd->path);
      resp.err = r.error();
      if (r.ok()) {
        resp.err = ErrorCode::kOk;
        resp.names = r.value();
      }
      return resp;
    }
    if (const auto* st = std::get_if<StatOp>(&op.op)) {
      auto r = fs.stat(st->path);
      resp.err = r.error();
      if (r.ok()) {
        resp.err = ErrorCode::kOk;
        resp.stat = r.value();
      }
      return resp;
    }
    resp.err = ErrorCode::kInvalidArgument;
    return resp;
  }

  Response dispatch_mut(const WriteOp& op) {
    Response resp;
    auto r = fs.commit(op);
    resp.err = r.error();
    resp.length = r.value_or(0);
    return resp;
  }
};

// User-facing replicated filesystem with a MemFs-shaped API.
class NrFs {
 public:
  explicit NrFs(const Topology& topo, NrConfig config = KernelNrShards::fs())
      : repl_(topo, FsDs{}, config) {}

  ThreadToken register_thread(CoreId core) { return repl_.register_thread(core); }

  // A mutation, logged once and committed on every replica. Returns the
  // bytes written for an FsWrite and 0 for every other mutation.
  Result<u64> commit(const ThreadToken& t, FsMutation m) {
    auto resp = repl_.execute_mut(t, std::move(m));
    if (resp.err != ErrorCode::kOk) {
      return resp.err;
    }
    return resp.length;
  }

  Result<std::vector<u8>> read(const ThreadToken& t, std::string path, u64 offset, u64 len) {
    FsDs::ReadOp op;
    op.op = FsDs::ReadDataOp{std::move(path), offset, len};
    auto resp = repl_.execute(t, op);
    if (resp.err != ErrorCode::kOk) {
      return resp.err;
    }
    return std::move(resp.data);
  }
  Result<std::vector<std::string>> readdir(const ThreadToken& t, std::string path) {
    FsDs::ReadOp op;
    op.op = FsDs::ReaddirOp{std::move(path)};
    auto resp = repl_.execute(t, op);
    if (resp.err != ErrorCode::kOk) {
      return resp.err;
    }
    return std::move(resp.names);
  }
  Result<FileStat> stat(const ThreadToken& t, std::string path) {
    FsDs::ReadOp op;
    op.op = FsDs::StatOp{std::move(path)};
    auto resp = repl_.execute(t, op);
    if (resp.err != ErrorCode::kOk) {
      return resp.err;
    }
    return resp.stat;
  }

  void sync(const ThreadToken& t) { repl_.sync(t); }
  usize num_replicas() const { return repl_.num_replicas(); }
  const FsDs& peek(usize replica) const { return repl_.peek(replica); }

 private:
  NodeReplicated<FsDs> repl_;
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_NRFS_H_
