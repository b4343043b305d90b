// Serialization for syscall marshalling and wire protocols.
//
// Section 3 of the paper lists *marshalling* as one of the three syscall
// verification obligations: arguments and return values must round-trip
// through serialization so user-space and kernel-space agree on them. Writer
// and Reader here are that serialization library; the round-trip property
// ("decode(encode(x)) == x and consumes exactly encode(x).size() bytes") is a
// registered verification condition for every syscall argument and reply
// frame (the VNROS_SYSCALLS table in src/kernel/syscall.h, checked row by row
// by the kernel/sys_marshalling_* VCs) and every network header (src/net).
//
// Encoding: little-endian fixed-width integers, u32-length-prefixed byte
// strings. No varints — syscall frames favour auditability over density.
#ifndef VNROS_SRC_BASE_SERDE_H_
#define VNROS_SRC_BASE_SERDE_H_

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/types.h"

namespace vnros {

class Writer {
 public:
  Writer() = default;

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_bytes(std::span<const u8> data) {
    put_u32(static_cast<u32>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void put_string(std::string_view s) {
    put_bytes(std::span<const u8>(reinterpret_cast<const u8*>(s.data()), s.size()));
  }

  // Raw append without a length prefix (for fixed-layout trailers).
  void put_raw(std::span<const u8> data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }
  usize size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (usize i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

  std::vector<u8> buf_;
};

// Reader returns std::nullopt on any truncated or malformed input instead of
// reading out of bounds; a syscall frame that fails to decode is rejected as
// kInvalidArgument rather than interpreted partially.
class Reader {
 public:
  explicit Reader(std::span<const u8> data) : data_(data) {}

  std::optional<u8> get_u8() {
    if (pos_ + 1 > data_.size()) {
      return std::nullopt;
    }
    return data_[pos_++];
  }

  std::optional<u16> get_u16() { return get_le<u16>(); }
  std::optional<u32> get_u32() { return get_le<u32>(); }
  std::optional<u64> get_u64() { return get_le<u64>(); }

  std::optional<i64> get_i64() {
    auto v = get_le<u64>();
    if (!v) {
      return std::nullopt;
    }
    return static_cast<i64>(*v);
  }

  std::optional<bool> get_bool() {
    auto v = get_u8();
    if (!v || *v > 1) {
      return std::nullopt;  // non-canonical bool is malformed, not "true"
    }
    return *v == 1;
  }

  std::optional<std::vector<u8>> get_bytes() {
    auto len = get_u32();
    if (!len || pos_ + *len > data_.size()) {
      return std::nullopt;
    }
    std::vector<u8> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                        data_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
    pos_ += *len;
    return out;
  }

  std::optional<std::string> get_string() {
    auto bytes = get_bytes();
    if (!bytes) {
      return std::nullopt;
    }
    return std::string(bytes->begin(), bytes->end());
  }

  std::optional<std::vector<u8>> get_raw(usize n) {
    if (pos_ + n > data_.size()) {
      return std::nullopt;
    }
    std::vector<u8> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                        data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  usize position() const { return pos_; }
  usize remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  std::optional<T> get_le() {
    if (pos_ + sizeof(T) > data_.size()) {
      return std::nullopt;
    }
    T v = 0;
    for (usize i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const u8> data_;
  usize pos_ = 0;
};

// Convenience: view a POD buffer as bytes.
template <typename T>
std::span<const u8> as_bytes(const T& v) {
  return std::span<const u8>(reinterpret_cast<const u8*>(&v), sizeof(T));
}

inline std::span<const u8> string_bytes(std::string_view s) {
  return std::span<const u8>(reinterpret_cast<const u8*>(s.data()), s.size());
}

}  // namespace vnros

#endif  // VNROS_SRC_BASE_SERDE_H_
