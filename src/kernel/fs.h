// The filesystem (Table 2 "filesystem" row): an inode-based in-memory tree
// with a write-ahead journal on the simulated block device and crash
// recovery.
//
// Persistence model (what the crash-consistency VCs check):
//   - every mutation is one FsMutation value (below) and commits in
//     write-ahead order: its checks run on the current state, its journal
//     record (CRC-protected, epoch-tagged) is appended, and only then does
//     the in-memory state change. A failed check or journal write therefore
//     leaves nothing to undo: a failed mutation is never visible, and only
//     its own record is dropped;
//   - the journal is a byte stream of batches. A record goes right behind
//     the previous one, in an in-memory tail, and may span sectors. A
//     journal sector goes to the device once, when it fills or when fsync
//     closes the batch: a pad record (a record whose payload is all zeros)
//     runs to the end of the sector, and the next batch starts on the next
//     sector. One skip rule, shared by the writer and replay, passes over
//     the end of a sector with fewer than a record header's bytes left, so
//     a header never straddles a sector and a pad always fits. No sector an
//     fsync flushed is written again in its epoch (checked on every journal
//     write), so a torn write can only damage records no fsync covered;
//   - fsync() is the only durability barrier: it writes the tail, then
//     flushes (BlockDevice::flush). This is group commit: a write fault
//     lands on the mutation whose record fills a sector (that mutation
//     fails) or on fsync, which then returns kIoError, changes nothing and
//     leaves the batch pending for the next fill or fsync to write;
//   - after a simulated crash (volatile cache partially lost), recover()
//     replays the longest valid journal prefix through the same
//     checks-then-change core, following only valid pad records and the
//     skip rule and stopping at the first bad header or CRC. The recovered
//     state is therefore the state after some prefix of acknowledged
//     operations, and the prefix provably includes everything acknowledged
//     before the last completed fsync — exactly the contract applications
//     (and the paper's S3 storage-node example) rely on.
//   - when a record does not fit in the rest of the journal, the commit
//     first compacts: the current, pre-op state (pending tail included) is
//     written as a full-state checkpoint, the journal restarts under a new
//     epoch, and the record is appended to it. Crash at any point of
//     compaction recovers either the old or the new state, never a mix
//     (epoch tagging).
//
// The abstract state is FsAbsState: which directories exist and what bytes
// each file holds. kernel/fs_* VCs drive MemFs and the FsModel reference
// interpreter in lockstep and diff the abstractions after every step.
#ifndef VNROS_SRC_KERNEL_FS_H_
#define VNROS_SRC_KERNEL_FS_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/base/result.h"
#include "src/base/serde.h"
#include "src/base/types.h"
#include "src/hw/block_device.h"
#include "src/obs/registry.h"

namespace vnros {

struct FileStat {
  u64 inode = 0;
  u64 size = 0;
  bool is_dir = false;

  bool operator==(const FileStat&) const = default;
};

// Abstract filesystem state ("/" is implicit and always a directory).
struct FsAbsState {
  std::set<std::string> dirs;                         // absolute paths
  std::map<std::string, std::vector<u8>> files;       // absolute path -> bytes

  bool operator==(const FsAbsState&) const = default;
};

// The largest file MemFs holds, the same as the syscall layer's per-request
// I/O bound. A write or truncate that would grow a file past it is refused
// with kNoSpace before anything is journaled.
inline constexpr u64 kMaxFileBytes = u64{16} << 20;

// --- Mutations -----------------------------------------------------------------
//
// The seven fs mutations, each declared once. One value is what
// MemFs::commit checks, journals and applies, what journal replay decodes,
// and what NrFs logs to every replica. A journal record's payload is
// [u8 opcode][fields in order]: the opcode is the mutation's index in
// FsMutation plus one, and the fields are the ones each mutation's Codec
// lists below (src/base/serde.h).
struct FsMkdir {
  std::string path;
};
struct FsRmdir {  // the directory must be empty
  std::string path;
};
struct FsCreate {  // an empty regular file
  std::string path;
};
struct FsUnlink {  // a regular file
  std::string path;
};
struct FsRename {
  std::string from;
  std::string to;
};
struct FsWrite {
  std::string path;
  u64 offset = 0;
  std::vector<u8> data;
};
struct FsTruncate {
  std::string path;
  u64 size = 0;
};

using FsMutation =
    std::variant<FsMkdir, FsRmdir, FsCreate, FsUnlink, FsRename, FsWrite, FsTruncate>;

template <>
struct Codec<FsMkdir> : FieldsCodec<FsMkdir, &FsMkdir::path> {};
template <>
struct Codec<FsRmdir> : FieldsCodec<FsRmdir, &FsRmdir::path> {};
template <>
struct Codec<FsCreate> : FieldsCodec<FsCreate, &FsCreate::path> {};
template <>
struct Codec<FsUnlink> : FieldsCodec<FsUnlink, &FsUnlink::path> {};
template <>
struct Codec<FsRename> : FieldsCodec<FsRename, &FsRename::from, &FsRename::to> {};
template <>
struct Codec<FsWrite> : FieldsCodec<FsWrite, &FsWrite::path, &FsWrite::offset, &FsWrite::data> {};
template <>
struct Codec<FsTruncate> : FieldsCodec<FsTruncate, &FsTruncate::path, &FsTruncate::size> {};

// A journal record's header: [u32 magic][u64 epoch][u32 payload bytes]
// [u32 crc32c of the payload]. The skip rule never starts a record where
// fewer bytes than this are left in a sector.
inline constexpr u64 kRecHeaderBytes = 20;

// The journal record payload of `m`.
std::vector<u8> encode_fs_record(const FsMutation& m);
// nullopt on an unknown opcode, a truncated field or trailing bytes.
std::optional<FsMutation> decode_fs_record(std::span<const u8> payload);

// Snapshot of the filesystem's obs counters (see stats()).
struct FsStats {
  u64 journal_records = 0;
  u64 journal_bytes = 0;
  u64 checkpoints = 0;
  u64 fsyncs = 0;
};

class MemFs {
 public:
  // Purely in-memory filesystem (no persistence; journaling disabled).
  MemFs();

  // mkfs: formats `dev` (superblock + empty journal) and attaches.
  static Result<MemFs> format(BlockDevice& dev);

  // Mounts `dev` after a crash or clean shutdown: loads the checkpoint (if
  // any) and replays the longest valid journal prefix of the current epoch.
  static Result<MemFs> recover(BlockDevice& dev);

  MemFs(MemFs&&) = default;
  MemFs& operator=(MemFs&&) = default;

  // The one mutation path. `m`'s checks run on the current state, its
  // record is appended to the journal, and only then does the state change;
  // a failed check or journal write changes no path, byte or inode number.
  // An FsWrite of no bytes stops after its checks: no record, no new size.
  // Returns the bytes written for an FsWrite and 0 for every other mutation.
  Result<u64> commit(const FsMutation& m);

  // --- Namespace operations -------------------------------------------------
  Result<Unit> mkdir(std::string_view path) { return unit_of(commit(FsMkdir{std::string(path)})); }
  Result<Unit> rmdir(std::string_view path) { return unit_of(commit(FsRmdir{std::string(path)})); }
  Result<Unit> create(std::string_view path) {
    return unit_of(commit(FsCreate{std::string(path)}));
  }
  Result<Unit> unlink(std::string_view path) {
    return unit_of(commit(FsUnlink{std::string(path)}));
  }
  // POSIX replace semantics: an existing destination *file* is atomically
  // replaced (old bytes unreachable from the instant the rename commits),
  // which is what makes write-temp-then-rename a crash-safe publish. A
  // directory destination is rejected with kIsDirectory; a directory source
  // never replaces a file (kNotDirectory).
  Result<Unit> rename(std::string_view from, std::string_view to) {
    return unit_of(commit(FsRename{std::string(from), std::string(to)}));
  }
  Result<std::vector<std::string>> readdir(std::string_view path) const;
  Result<FileStat> stat(std::string_view path) const;

  // --- Data operations -------------------------------------------------------
  // Reads up to out.size() bytes from `offset`; returns bytes read (0 at or
  // past EOF — the read_spec's min(buffer.len, size - offset) semantics).
  Result<u64> read(std::string_view path, u64 offset, std::span<u8> out) const;

  // Writes at `offset`, zero-filling any gap, extending the file. Returns
  // bytes written (always data.size() on success).
  Result<u64> write(std::string_view path, u64 offset, std::span<const u8> data) {
    return commit(FsWrite{std::string(path), offset, {data.begin(), data.end()}});
  }

  Result<Unit> truncate(std::string_view path, u64 new_size) {
    return unit_of(commit(FsTruncate{std::string(path), new_size}));
  }

  // Durability barrier: writes the pending tail, then flushes, so every
  // record appended so far reaches stable storage. When the tail's write
  // fails, returns its error and changes nothing: the batch stays pending.
  Result<Unit> fsync();

  // --- Introspection ----------------------------------------------------------
  FsAbsState view() const;

  // Thin view over the obs counters ("fs<N>/..."): race-free merged reads.
  FsStats stats() const {
    return FsStats{c_journal_records_->value(), c_journal_bytes_->value(),
                   c_checkpoints_->value(), c_fsyncs_->value()};
  }
  bool has_device() const { return dev_ != nullptr; }
  // The device byte offset at which the next journal record starts.
  u64 journal_head() const { return tail_sector_ * kSectorSize + tail_.size(); }

 private:
  struct Inode {
    bool is_dir = false;
    std::vector<u8> data;                 // file payload
    std::map<std::string, u64> entries;   // dir contents: name -> ino
  };

  explicit MemFs(BlockDevice* dev);

  // Path helpers. Canonical absolute paths: "/a/b"; "/" is the root.
  static Result<std::vector<std::string>> split_path(std::string_view path);
  Result<u64> lookup(std::string_view path) const;                    // ino of path
  Result<std::pair<u64, std::string>> lookup_parent(std::string_view path) const;

  // What a checked mutation changes, as its checks found it, so that
  // apply() repeats no lookup and cannot fail.
  struct Target {
    u64 dir = 0;         // directory of the entry the op adds, removes or moves
    std::string name{};  // that entry (a rename's source)
    u64 ino = 0;         // the inode the op removes, moves, writes or truncates
    u64 to_dir = 0;      // a rename's destination entry
    std::string to_name{};
  };

  // The checks-then-change core. check() runs every check of `m` on the
  // current state and changes nothing; apply() then changes the state and
  // cannot fail. commit() journals between the two; replay_journal() and
  // load_state() run them back to back through step(), so replay is
  // bit-identical to first execution.
  Result<Target> check(const FsMutation& m) const;
  void apply(const FsMutation& m, const Target& t);
  Result<Unit> step(const FsMutation& m);
  static Result<Unit> unit_of(const Result<u64>& r) {
    return r.ok() ? Result<Unit>(Unit{}) : Result<Unit>(r.error());
  }

  // Journaling.
  Result<Unit> journal_append(std::span<const u8> payload);
  Result<Unit> write_full_sectors(usize rollback);
  void flush_device();
  Result<Unit> write_superblock();
  Result<Unit> checkpoint_locked();
  std::vector<u8> serialize_state_locked() const;
  Result<Unit> load_state(std::span<const u8> bytes);
  Result<Unit> replay_journal();

  u64 journal_start_sector() const;
  u64 journal_capacity_sectors() const;

  // unique_ptr keeps MemFs movable (factories return it by value).
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  BlockDevice* dev_ = nullptr;
  std::map<u64, Inode> inodes_;
  u64 next_ino_ = 2;  // 1 is the root
  u64 epoch_ = 1;
  bool ckpt_valid_ = false;
  u64 ckpt_sectors_ = 0;
  // The journal's pending tail: the bytes from the start of sector
  // `tail_sector_` to the head, less than one sector after every commit and
  // fsync. Every journal sector before `tail_sector_` is on the device; the
  // ones before `flushed_sector_` are flushed and never written again.
  u64 tail_sector_ = 0;
  std::vector<u8> tail_;
  u64 flushed_sector_ = 0;
  // Metrics ("fs<N>/..."). Pointers (registry-owned, process lifetime) so
  // MemFs stays movable; journal commits and fsyncs are also traced as spans.
  Counter* c_journal_records_ = nullptr;
  Counter* c_journal_bytes_ = nullptr;
  Counter* c_checkpoints_ = nullptr;
  Counter* c_fsyncs_ = nullptr;
  Histogram* h_journal_record_bytes_ = nullptr;
  u32 span_journal_commit_ = 0;
  u32 span_fsync_ = 0;
};

}  // namespace vnros

#endif  // VNROS_SRC_KERNEL_FS_H_
