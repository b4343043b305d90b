#include "src/kernel/fs.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/base/contracts.h"
#include "src/base/crc.h"
#include "src/base/serde.h"

namespace vnros {
namespace {

constexpr u64 kSbMagic = 0x766E'726F'7346'5321ull;  // "vnrosFS!"
constexpr u32 kRecMagic = 0x4A524E4C;               // "JRNL"
constexpr u64 kRootIno = 1;

// The header a journal record and a checkpoint both start with, before
// their payload.
struct RecHeader {
  u32 magic = kRecMagic;
  u64 epoch = 0;
  u32 len = 0;  // payload bytes
  u32 crc = 0;  // crc32c of the payload (a journal record's: record_crc)
};

// Sector 0, followed by the crc32c of these fields.
struct Superblock {
  u64 magic = kSbMagic;
  u64 epoch = 0;
  bool ckpt_valid = false;
  u64 ckpt_sectors = 0;
};

// A checkpoint's payload: every directory, then every file and its bytes,
// each in path order (so parents precede children).
struct FsImage {
  std::vector<std::string> dirs;
  std::vector<std::pair<std::string, std::vector<u8>>> files;
};

u64 sectors_for(u64 bytes) { return (bytes + kSectorSize - 1) / kSectorSize; }

bool valid_name(std::string_view name) {
  return !name.empty() && name.size() <= 255 && name.find('/') == std::string_view::npos;
}

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

// A default-valued FsMutation holding alternative `index` (< its size).
template <usize I = 0>
FsMutation blank_mutation(usize index) {
  if constexpr (I + 1 < std::variant_size_v<FsMutation>) {
    if (index != I) {
      return blank_mutation<I + 1>(index);
    }
  }
  return FsMutation(std::in_place_index<I>);
}

}  // namespace

template <>
struct Codec<RecHeader>
    : FieldsCodec<RecHeader, &RecHeader::magic, &RecHeader::epoch, &RecHeader::len,
                  &RecHeader::crc> {};
template <>
struct Codec<Superblock>
    : FieldsCodec<Superblock, &Superblock::magic, &Superblock::epoch, &Superblock::ckpt_valid,
                  &Superblock::ckpt_sectors> {};
template <>
struct Codec<FsImage> : FieldsCodec<FsImage, &FsImage::dirs, &FsImage::files> {};

namespace {

static_assert(Codec<RecHeader>::kMinBytes == kRecHeaderBytes);  // every field is fixed-width

// The skip rule, shared by the journal's writer and replay: a record never
// starts where fewer than kRecHeaderBytes are left in a sector, so a
// header never straddles two sectors and a pad record always fits. `pos`
// is a byte offset from a sector boundary.
u64 next_record(u64 pos) {
  const u64 left = kSectorSize - pos % kSectorSize;
  return left < kRecHeaderBytes ? pos + left : pos;
}

// A journal record's crc: crc32c of its [u64 epoch][u32 len], then of its
// payload. Covering the epoch means that a sector torn inside a header
// cannot splice this epoch's magic and epoch onto the length, crc and
// payload of an older epoch's record at the same offset. (A checkpoint's
// crc covers only its payload: it is flushed before the superblock names
// its epoch.)
u32 record_crc(u64 epoch, std::span<const u8> payload) {
  Writer w;
  Codec<u64>::put(w, epoch);
  Codec<u32>::put(w, static_cast<u32>(payload.size()));
  return crc32c(payload, crc32c(w.bytes()));
}

// Appends one record to `stream`, which starts on a sector boundary: its
// header over `payload`, then the zeros the skip rule passes over.
void append_record(std::vector<u8>& stream, u64 epoch, u32 crc, std::span<const u8> payload) {
  Writer w;
  Codec<RecHeader>::put(
      w, RecHeader{.epoch = epoch, .len = static_cast<u32>(payload.size()), .crc = crc});
  w.put_raw(payload);
  stream.insert(stream.end(), w.bytes().begin(), w.bytes().end());
  stream.resize(next_record(stream.size()), 0);
}

// Closes `stream`'s last sector with a pad record: a record whose payload
// is all zeros and runs to the sector's end. No mutation's payload is all
// zeros, since it starts with an opcode of at least 1.
void append_pad(std::vector<u8>& stream, u64 epoch) {
  const u64 used = stream.size() % kSectorSize;
  if (used != 0) {
    const std::vector<u8> zeros(kSectorSize - used - kRecHeaderBytes, 0);
    append_record(stream, epoch, record_crc(epoch, zeros), zeros);
  }
}

bool is_pad(std::span<const u8> payload) {
  return std::all_of(payload.begin(), payload.end(), [](u8 b) { return b == 0; });
}

// The header `raw` starts with, when it heads a record of `epoch`.
std::optional<RecHeader> record_header(std::span<const u8> raw, u64 epoch) {
  Reader r(raw);
  auto hdr = wire_get<RecHeader>(r);
  if (!hdr || hdr->magic != kRecMagic || hdr->epoch != epoch) {
    return std::nullopt;
  }
  return hdr;
}

}  // namespace

std::vector<u8> encode_fs_record(const FsMutation& m) {
  Writer w;
  Codec<u8>::put(w, static_cast<u8>(m.index() + 1));
  std::visit([&w](const auto& op) { Codec<std::decay_t<decltype(op)>>::put(w, op); }, m);
  return w.take();
}

std::optional<FsMutation> decode_fs_record(std::span<const u8> payload) {
  Reader r(payload);
  auto opcode = wire_get<u8>(r);
  if (!opcode || *opcode == 0 || *opcode > std::variant_size_v<FsMutation>) {
    return std::nullopt;
  }
  FsMutation m = blank_mutation(*opcode - 1u);
  const bool ok =
      std::visit([&r](auto& op) { return Codec<std::decay_t<decltype(op)>>::get(r, op); }, m);
  if (!ok || !r.exhausted()) {
    return std::nullopt;
  }
  return m;
}

MemFs::MemFs() : MemFs(nullptr) {}

MemFs::MemFs(BlockDevice* dev) : dev_(dev) {
  ObsRegistry& reg = ObsRegistry::global();
  const std::string prefix = reg.instance_prefix("fs");
  c_journal_records_ = &reg.counter(prefix + "journal_records");
  c_journal_bytes_ = &reg.counter(prefix + "journal_bytes");
  c_checkpoints_ = &reg.counter(prefix + "checkpoints");
  c_fsyncs_ = &reg.counter(prefix + "fsyncs");
  h_journal_record_bytes_ = &reg.histogram(prefix + "journal_record_bytes");
  span_journal_commit_ = reg.tracer().intern_site("fs/journal_commit");
  span_fsync_ = reg.tracer().intern_site("fs/fsync");
  inodes_[kRootIno] = Inode{.is_dir = true, .data = {}, .entries = {}};
}

u64 MemFs::journal_start_sector() const {
  // Sector 0: superblock. Checkpoint area: a quarter of the device.
  return 1 + (dev_ != nullptr ? dev_->num_sectors() / 4 : 0);
}

u64 MemFs::journal_capacity_sectors() const {
  return dev_ != nullptr ? dev_->num_sectors() - journal_start_sector() : 0;
}

// --- Formatting / recovery ----------------------------------------------------

Result<MemFs> MemFs::format(BlockDevice& dev) {
  if (dev.num_sectors() < 16) {
    return ErrorCode::kInvalidArgument;
  }
  MemFs fs(&dev);
  fs.tail_sector_ = fs.flushed_sector_ = fs.journal_start_sector();
  auto sb = fs.write_superblock();
  if (!sb.ok()) {
    return sb.error();
  }
  dev.flush();
  return fs;
}

Result<MemFs> MemFs::recover(BlockDevice& dev) {
  MemFs fs(&dev);

  // Read and validate the superblock.
  std::vector<u8> sb_bytes(kSectorSize);
  auto rd = dev.read(0, sb_bytes);
  if (!rd.ok()) {
    return rd.error();
  }
  Reader sb_reader(sb_bytes);
  auto sb = wire_get<Superblock>(sb_reader);
  const usize covered = sb_reader.position();
  auto crc = wire_get<u32>(sb_reader);
  if (!sb || !crc || sb->magic != kSbMagic ||
      *crc != crc32c(std::span<const u8>(sb_bytes.data(), covered))) {
    return ErrorCode::kCorrupted;
  }
  fs.epoch_ = sb->epoch;
  fs.ckpt_valid_ = sb->ckpt_valid;
  fs.ckpt_sectors_ = sb->ckpt_sectors;

  // Load the checkpoint, if one is valid.
  if (fs.ckpt_valid_) {
    std::vector<u8> raw(fs.ckpt_sectors_ * kSectorSize);
    for (u64 s = 0; s < fs.ckpt_sectors_; ++s) {
      auto r = dev.read(1 + s, std::span<u8>(raw.data() + s * kSectorSize, kSectorSize));
      if (!r.ok()) {
        return r.error();
      }
    }
    // The checkpoint epoch must match the superblock's: a failed checkpoint
    // attempt can leave a newer-epoch image in the checkpoint area while the
    // superblock still describes the old one — that mix must be detected,
    // never loaded.
    auto hdr = record_header(raw, fs.epoch_);
    if (!hdr || kRecHeaderBytes + hdr->len > raw.size()) {
      return ErrorCode::kCorrupted;
    }
    std::span<const u8> payload(raw.data() + kRecHeaderBytes, hdr->len);
    if (crc32c(payload) != hdr->crc) {
      return ErrorCode::kCorrupted;
    }
    auto loaded = fs.load_state(payload);
    if (!loaded.ok()) {
      return loaded.error();
    }
  }

  // Replay the longest valid journal prefix of this epoch.
  auto replayed = fs.replay_journal();
  if (!replayed.ok()) {
    return replayed.error();
  }

  // Re-anchor durability: checkpoint the recovered state under a fresh
  // epoch. This makes the mount durable and invalidates any stale records
  // beyond the replayed prefix (they carry the old epoch).
  std::lock_guard<std::mutex> lock(*fs.mu_);
  auto ck = fs.checkpoint_locked();
  if (!ck.ok()) {
    return ck.error();
  }
  return fs;
}

Result<Unit> MemFs::replay_journal() {
  // The journal is one byte stream from its first sector; `pos` is a byte
  // offset into it.
  const u64 first = journal_start_sector();
  const u64 end = journal_capacity_sectors() * kSectorSize;
  std::vector<u8> sector(kSectorSize);
  u64 loaded = ~u64{0};  // the stream sector `sector` holds
  auto read = [&](u64 pos, std::span<u8> out) -> Result<Unit> {
    for (usize done = 0; done < out.size();) {
      const u64 s = (pos + done) / kSectorSize;
      if (s != loaded) {
        // A device error is not "end of journal": silently truncating the
        // replay prefix here would drop acknowledged operations. Surface it
        // so recovery fails loudly instead of recovering a stale state.
        auto r = dev_->read(first + s, sector);
        if (!r.ok()) {
          return r.error();
        }
        loaded = s;
      }
      const u64 off = (pos + done) % kSectorSize;
      const usize n = std::min<usize>(kSectorSize - off, out.size() - done);
      std::memcpy(out.data() + done, sector.data() + off, n);
      done += n;
    }
    return Unit{};
  };
  std::vector<u8> header(kRecHeaderBytes);
  std::vector<u8> payload;
  for (u64 pos = 0; pos + kRecHeaderBytes <= end;) {
    if (auto r = read(pos, header); !r.ok()) {
      return r;
    }
    auto hdr = record_header(header, epoch_);
    if (!hdr || pos + kRecHeaderBytes + hdr->len > end) {
      break;
    }
    const u64 rec_end = pos + kRecHeaderBytes + hdr->len;
    payload.resize(hdr->len);
    if (auto r = read(pos + kRecHeaderBytes, payload); !r.ok()) {
      return r;
    }
    if (record_crc(epoch_, payload) != hdr->crc) {
      break;  // torn record: end of valid prefix
    }
    if (is_pad(payload)) {
      if (rec_end % kSectorSize != 0) {
        break;  // a pad runs exactly to the end of its sector
      }
      pos = rec_end;
      continue;
    }
    // A record is journaled only after its checks passed on this same
    // state, so replaying it cannot fail; a failure means the journal and
    // the state machine disagree.
    auto m = decode_fs_record(payload);
    if (!m || !step(*m).ok()) {
      return ErrorCode::kCorrupted;
    }
    pos = next_record(rec_end);
  }
  return Unit{};
}

Result<Unit> MemFs::write_superblock() {
  Writer w;
  Codec<Superblock>::put(
      w, Superblock{.epoch = epoch_, .ckpt_valid = ckpt_valid_, .ckpt_sectors = ckpt_sectors_});
  Codec<u32>::put(w, crc32c(w.bytes()));
  std::vector<u8> sector(kSectorSize, 0);
  VNROS_CHECK(w.size() <= kSectorSize);
  std::memcpy(sector.data(), w.bytes().data(), w.size());
  return dev_->write(0, sector);
}

std::vector<u8> MemFs::serialize_state_locked() const {
  // Enumerate via the same traversal as view() (but we already hold the
  // lock): rebuild paths from the inode tree.
  FsImage image;
  struct Item {
    u64 ino;
    std::string path;
  };
  std::vector<Item> stack{{kRootIno, ""}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Inode& node = inodes_.at(item.ino);
    for (const auto& [name, child_ino] : node.entries) {
      const Inode& child = inodes_.at(child_ino);
      std::string child_path = item.path + "/" + name;
      if (child.is_dir) {
        image.dirs.push_back(child_path);
        stack.push_back({child_ino, child_path});
      } else {
        image.files.emplace_back(std::move(child_path), child.data);
      }
    }
  }
  std::sort(image.dirs.begin(), image.dirs.end());
  std::sort(image.files.begin(), image.files.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return to_wire(image);
}

Result<Unit> MemFs::load_state(std::span<const u8> bytes) {
  inodes_.clear();
  next_ino_ = 2;
  inodes_[kRootIno] = Inode{.is_dir = true, .data = {}, .entries = {}};

  auto image = from_wire<FsImage>(bytes);
  if (!image) {
    return ErrorCode::kCorrupted;
  }
  // Sorted paths: parents precede children.
  for (std::string& path : image->dirs) {
    if (!step(FsMkdir{std::move(path)}).ok()) {
      return ErrorCode::kCorrupted;
    }
  }
  for (auto& [path, data] : image->files) {
    if (!step(FsCreate{path}).ok()) {
      return ErrorCode::kCorrupted;
    }
    if (!data.empty() && !step(FsWrite{std::move(path), 0, std::move(data)}).ok()) {
      return ErrorCode::kCorrupted;
    }
  }
  return Unit{};
}

Result<Unit> MemFs::checkpoint_locked() {
  VNROS_CHECK(dev_ != nullptr);
  std::vector<u8> payload = serialize_state_locked();
  u64 total = kRecHeaderBytes + payload.size();
  u64 need_sectors = sectors_for(total);
  u64 ckpt_cap = journal_start_sector() - 1;
  if (need_sectors > ckpt_cap) {
    return ErrorCode::kNoSpace;  // device misconfigured for this dataset
  }

  std::vector<u8> raw;
  append_record(raw, epoch_ + 1, crc32c(payload), payload);
  raw.resize(need_sectors * kSectorSize, 0);
  for (u64 s = 0; s < need_sectors; ++s) {
    auto wr = dev_->write(1 + s, std::span<const u8>(raw.data() + s * kSectorSize, kSectorSize));
    if (!wr.ok()) {
      return wr.error();
    }
  }
  flush_device();  // checkpoint durable before the superblock points at it

  const u64 old_epoch = epoch_;
  const bool old_ckpt_valid = ckpt_valid_;
  const u64 old_ckpt_sectors = ckpt_sectors_;
  epoch_ += 1;
  ckpt_valid_ = true;
  ckpt_sectors_ = need_sectors;
  auto sb = write_superblock();
  if (!sb.ok()) {
    // The switch did not commit: keep describing the old checkpoint so the
    // in-memory superblock stays consistent with the on-disk one.
    epoch_ = old_epoch;
    ckpt_valid_ = old_ckpt_valid;
    ckpt_sectors_ = old_ckpt_sectors;
    return sb.error();
  }
  dev_->flush();  // superblock switch is the commit point

  // The old epoch's tail is dropped: the checkpoint holds every op it
  // recorded.
  tail_sector_ = flushed_sector_ = journal_start_sector();
  tail_.clear();
  c_checkpoints_->inc();
  return Unit{};
}

Result<Unit> MemFs::journal_append(std::span<const u8> payload) {
  SpanScope span(ObsRegistry::global().tracer(), span_journal_commit_);
  const u64 total = kRecHeaderBytes + payload.size();
  if (total > journal_capacity_sectors() * kSectorSize) {
    return ErrorCode::kNoSpace;  // the record would not fit even a fresh journal
  }
  if (journal_head() + total > dev_->num_sectors() * kSectorSize) {
    // Compact the current, pre-op state; the record then starts the fresh
    // journal of the checkpoint's epoch.
    auto ck = checkpoint_locked();
    if (!ck.ok()) {
      return ck.error();
    }
  }
  const usize pending = tail_.size();
  append_record(tail_, epoch_, record_crc(epoch_, payload), payload);
  auto written = write_full_sectors(pending);
  if (!written.ok()) {
    return written;
  }
  c_journal_records_->inc();
  c_journal_bytes_->add(total);
  h_journal_record_bytes_->record(total);
  return Unit{};
}

// Writes each full sector at the front of the tail and drops it from the
// tail. When a write fails, the tail is cut back to its first `rollback`
// bytes (what was pending before the caller appended) and the error is
// returned; the sectors this call did write hold no record a flush covered,
// and are written again when the tail next reaches them.
Result<Unit> MemFs::write_full_sectors(usize rollback) {
  const u64 full = tail_.size() / kSectorSize;
  for (u64 i = 0; i < full; ++i) {
    // Write-once: no sector a flush covered in this epoch is written again.
    VNROS_CHECK(tail_sector_ + i >= flushed_sector_);
    auto wr = dev_->write(tail_sector_ + i,
                          std::span<const u8>(tail_.data() + i * kSectorSize, kSectorSize));
    if (!wr.ok()) {
      tail_.resize(rollback);
      return wr.error();
    }
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(full * kSectorSize));
  tail_sector_ += full;
  return Unit{};
}

void MemFs::flush_device() {
  dev_->flush();
  flushed_sector_ = tail_sector_;
}

// --- Path plumbing -------------------------------------------------------------

Result<std::vector<std::string>> MemFs::split_path(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return ErrorCode::kInvalidArgument;
  }
  std::vector<std::string> parts;
  usize i = 1;
  while (i < path.size()) {
    usize j = path.find('/', i);
    if (j == std::string_view::npos) {
      j = path.size();
    }
    std::string_view name = path.substr(i, j - i);
    if (!valid_name(name)) {
      return ErrorCode::kInvalidArgument;
    }
    parts.emplace_back(name);
    i = j + 1;
  }
  return parts;
}

Result<u64> MemFs::lookup(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) {
    return parts.error();
  }
  u64 ino = kRootIno;
  for (const auto& name : parts.value()) {
    const Inode& node = inodes_.at(ino);
    if (!node.is_dir) {
      return ErrorCode::kNotDirectory;
    }
    auto it = node.entries.find(name);
    if (it == node.entries.end()) {
      return ErrorCode::kNotFound;
    }
    ino = it->second;
  }
  return ino;
}

Result<std::pair<u64, std::string>> MemFs::lookup_parent(std::string_view path) const {
  auto parts = split_path(path);
  if (!parts.ok()) {
    return parts.error();
  }
  if (parts.value().empty()) {
    return ErrorCode::kInvalidArgument;  // root has no parent
  }
  u64 ino = kRootIno;
  for (usize i = 0; i + 1 < parts.value().size(); ++i) {
    const Inode& node = inodes_.at(ino);
    if (!node.is_dir) {
      return ErrorCode::kNotDirectory;
    }
    auto it = node.entries.find(parts.value()[i]);
    if (it == node.entries.end()) {
      return ErrorCode::kNotFound;
    }
    ino = it->second;
  }
  if (!inodes_.at(ino).is_dir) {
    return ErrorCode::kNotDirectory;
  }
  return std::pair<u64, std::string>{ino, parts.value().back()};
}

// --- The mutation path -------------------------------------------------------------

Result<MemFs::Target> MemFs::check(const FsMutation& m) const {
  // An entry mkdir or create adds: its parent directory exists and the name
  // is free.
  auto free_entry = [this](std::string_view path) -> Result<Target> {
    auto parent = lookup_parent(path);
    if (!parent.ok()) {
      return parent.error();
    }
    auto& [dir, name] = parent.value();
    if (inodes_.at(dir).entries.count(name) != 0) {
      return ErrorCode::kAlreadyExists;
    }
    return Target{.dir = dir, .name = std::move(name)};
  };
  // An entry rmdir or unlink removes: it exists.
  auto entry = [this](std::string_view path) -> Result<Target> {
    auto parent = lookup_parent(path);
    if (!parent.ok()) {
      return parent.error();
    }
    auto& [dir, name] = parent.value();
    const auto& entries = inodes_.at(dir).entries;
    auto it = entries.find(name);
    if (it == entries.end()) {
      return ErrorCode::kNotFound;
    }
    return Target{.dir = dir, .name = std::move(name), .ino = it->second};
  };
  // A file write or truncate resizes: it exists, and `fits` says its new
  // size stays within kMaxFileBytes.
  auto file = [this](std::string_view path, bool fits) -> Result<Target> {
    auto ino = lookup(path);
    if (!ino.ok()) {
      return ino.error();
    }
    if (inodes_.at(ino.value()).is_dir) {
      return ErrorCode::kIsDirectory;
    }
    if (!fits) {
      return ErrorCode::kNoSpace;
    }
    return Target{.ino = ino.value()};
  };
  return std::visit(
      Overloaded{
          [&](const FsMkdir& op) { return free_entry(op.path); },
          [&](const FsCreate& op) { return free_entry(op.path); },
          [&](const FsRmdir& op) -> Result<Target> {
            auto t = entry(op.path);
            if (!t.ok()) {
              return t;
            }
            const Inode& dir = inodes_.at(t.value().ino);
            if (!dir.is_dir) {
              return ErrorCode::kNotDirectory;
            }
            if (!dir.entries.empty()) {
              return ErrorCode::kNotEmpty;
            }
            return t;
          },
          [&](const FsUnlink& op) -> Result<Target> {
            auto t = entry(op.path);
            if (t.ok() && inodes_.at(t.value().ino).is_dir) {
              return ErrorCode::kIsDirectory;
            }
            return t;
          },
          [&](const FsRename& op) -> Result<Target> {
            auto src = lookup_parent(op.from);
            if (!src.ok()) {
              return src.error();
            }
            auto dst = lookup_parent(op.to);
            if (!dst.ok()) {
              return dst.error();
            }
            auto& [src_dir, src_name] = src.value();
            auto& [dst_dir, dst_name] = dst.value();
            const auto& src_entries = inodes_.at(src_dir).entries;
            auto it = src_entries.find(src_name);
            if (it == src_entries.end()) {
              return ErrorCode::kNotFound;
            }
            const u64 moving = it->second;
            const bool moving_dir = inodes_.at(moving).is_dir;
            const auto& dst_entries = inodes_.at(dst_dir).entries;
            auto existing = dst_entries.find(dst_name);
            Target t{.dir = src_dir,
                     .name = std::move(src_name),
                     .ino = moving,
                     .to_dir = dst_dir,
                     .to_name = std::move(dst_name)};
            if (existing != dst_entries.end()) {
              // POSIX replace semantics for files: rename atomically unlinks
              // the old destination file (this is what makes
              // write-temp-then-rename a crash-safe publish). Directories are
              // never replaced.
              if (inodes_.at(existing->second).is_dir) {
                return ErrorCode::kIsDirectory;
              }
              if (moving_dir) {
                return ErrorCode::kNotDirectory;
              }
              // Renaming a path onto itself is a no-op, not a self-unlink.
              if (existing->second == moving) {
                return t;
              }
            }
            // Moving a directory under itself would orphan the subtree.
            if (moving_dir && op.to.starts_with(op.from + "/")) {
              return ErrorCode::kInvalidArgument;
            }
            return t;
          },
          [&](const FsWrite& op) {
            return file(op.path, op.offset <= kMaxFileBytes &&
                                     op.data.size() <= kMaxFileBytes - op.offset);
          },
          [&](const FsTruncate& op) { return file(op.path, op.size <= kMaxFileBytes); },
      },
      m);
}

void MemFs::apply(const FsMutation& m, const Target& t) {
  auto add = [&](bool is_dir) {
    const u64 ino = next_ino_++;
    inodes_[ino] = Inode{.is_dir = is_dir, .data = {}, .entries = {}};
    inodes_.at(t.dir).entries[t.name] = ino;
  };
  auto remove = [&] {
    inodes_.erase(t.ino);
    inodes_.at(t.dir).entries.erase(t.name);
  };
  std::visit(Overloaded{
                 [&](const FsMkdir&) { add(true); },
                 [&](const FsCreate&) { add(false); },
                 [&](const FsRmdir&) { remove(); },
                 [&](const FsUnlink&) { remove(); },
                 [&](const FsRename&) {
                   if (t.dir == t.to_dir && t.name == t.to_name) {
                     return;  // onto itself
                   }
                   auto& to_entries = inodes_.at(t.to_dir).entries;
                   auto replaced = to_entries.find(t.to_name);
                   if (replaced != to_entries.end()) {
                     inodes_.erase(replaced->second);
                   }
                   inodes_.at(t.dir).entries.erase(t.name);
                   to_entries[t.to_name] = t.ino;
                 },
                 [&](const FsWrite& op) {
                   std::vector<u8>& data = inodes_.at(t.ino).data;
                   data.resize(std::max<u64>(data.size(), op.offset + op.data.size()), 0);
                   std::copy(op.data.begin(), op.data.end(),
                             data.begin() + static_cast<std::ptrdiff_t>(op.offset));
                 },
                 [&](const FsTruncate& op) { inodes_.at(t.ino).data.resize(op.size, 0); },
             },
             m);
}

Result<Unit> MemFs::step(const FsMutation& m) {
  auto t = check(m);
  if (!t.ok()) {
    return t.error();
  }
  apply(m, t.value());
  return Unit{};
}

Result<u64> MemFs::commit(const FsMutation& m) {
  std::lock_guard<std::mutex> lock(*mu_);
  auto t = check(m);
  if (!t.ok()) {
    return t.error();
  }
  const auto* w = std::get_if<FsWrite>(&m);
  if (w != nullptr && w->data.empty()) {
    return u64{0};  // POSIX write(2) of 0 bytes: checked, then nothing changes
  }
  if (dev_ != nullptr) {
    auto j = journal_append(encode_fs_record(m));
    if (!j.ok()) {
      return j.error();
    }
  }
  apply(m, t.value());
  return w != nullptr ? u64{w->data.size()} : u64{0};
}

Result<Unit> MemFs::fsync() {
  std::lock_guard<std::mutex> lock(*mu_);
  SpanScope span(ObsRegistry::global().tracer(), span_fsync_);
  c_fsyncs_->inc();
  if (dev_ == nullptr) {
    return Unit{};
  }
  // Close the batch: the pad takes the tail to a whole sector, which is
  // written once, and the next batch starts on the sector after it.
  const usize pending = tail_.size();
  append_pad(tail_, epoch_);
  auto written = write_full_sectors(pending);
  if (!written.ok()) {
    return written;  // the batch stays pending
  }
  flush_device();
  return Unit{};
}

// --- Read-only operations ---------------------------------------------------------

Result<std::vector<std::string>> MemFs::readdir(std::string_view path) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  if (!node.is_dir) {
    return ErrorCode::kNotDirectory;
  }
  std::vector<std::string> names;
  names.reserve(node.entries.size());
  for (const auto& [name, child] : node.entries) {
    names.push_back(name);
  }
  return names;
}

Result<FileStat> MemFs::stat(std::string_view path) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  return FileStat{ino.value(), node.data.size(), node.is_dir};
}

Result<u64> MemFs::read(std::string_view path, u64 offset, std::span<u8> out) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto ino = lookup(path);
  if (!ino.ok()) {
    return ino.error();
  }
  const Inode& node = inodes_.at(ino.value());
  if (node.is_dir) {
    return ErrorCode::kIsDirectory;
  }
  if (offset >= node.data.size()) {
    return u64{0};
  }
  u64 n = std::min<u64>(out.size(), node.data.size() - offset);
  std::memcpy(out.data(), node.data.data() + offset, n);
  // The paper's read_spec postcondition, executably:
  VNROS_ENSURES(n == std::min<u64>(out.size(), node.data.size() - offset));
  return n;
}

FsAbsState MemFs::view() const {
  std::lock_guard<std::mutex> lock(*mu_);
  FsAbsState state;
  struct Item {
    u64 ino;
    std::string path;
  };
  std::vector<Item> stack{{kRootIno, ""}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Inode& node = inodes_.at(item.ino);
    for (const auto& [name, child_ino] : node.entries) {
      const Inode& child = inodes_.at(child_ino);
      std::string child_path = item.path + "/" + name;
      if (child.is_dir) {
        state.dirs.insert(child_path);
        stack.push_back({child_ino, child_path});
      } else {
        state.files[child_path] = child.data;
      }
    }
  }
  return state;
}

}  // namespace vnros
