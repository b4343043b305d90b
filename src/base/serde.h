// Serialization for syscall marshalling, wire protocols and disk formats.
//
// Section 3 of the paper lists *marshalling* as one of the three syscall
// verification obligations: arguments and return values must round-trip
// through serialization so user-space and kernel-space agree on them. Writer
// and Reader here are that serialization library, and Codec<T> (below) is
// the one field codec: every syscall frame, fs record, net header and
// blockstore message lists its fields once (FieldsCodec) and goes through
// it (DESIGN.md §14 lists where each format is declared). The round-trip
// property ("decode(encode(x)) == x and consumes exactly encode(x).size()
// bytes", round_trips below) is a registered verification condition for
// every syscall row, network header and blockstore op (the
// kernel/sys_marshalling_*, net/*header_roundtrip* and app/wire_* VCs).
//
// Encoding: little-endian fixed-width integers, u32-length-prefixed byte
// strings. No varints — syscall frames favour auditability over density.
#ifndef VNROS_SRC_BASE_SERDE_H_
#define VNROS_SRC_BASE_SERDE_H_

#include <concepts>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/result.h"
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

  // Any unsigned integer, little-endian.
  template <typename T>
  void put_le(T v) {
    for (usize i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(v >> (8 * i)));
    }
  }

 private:
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

  // get_bytes, viewing the input instead of copying it: the view is valid
  // while the input is.
  std::optional<std::span<const u8>> get_bytes_view() {
    auto len = get_u32();
    if (!len || pos_ + *len > data_.size()) {
      return std::nullopt;
    }
    std::span<const u8> out = data_.subspan(pos_, *len);
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

  // Any unsigned integer, little-endian.
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

 private:
  std::span<const u8> data_;
  usize pos_ = 0;
};

// --- Field codecs ------------------------------------------------------------
//
// One codec per field type: put appends the field, get decodes it into `out`
// and returns false on truncated or malformed input. kMinBytes is the
// shortest encoding, which bounds how many elements a count prefix can
// honestly announce. Encoding: little-endian fixed-width integers, bool as
// one canonical byte, enums as their underlying integer restricted to the
// values WireEnum lists, u32-length-prefixed strings and byte vectors,
// u32-count-prefixed lists, structs as their fields in order (FieldsCodec).
// A decoded string_view or byte span views the input it was decoded from.
template <typename T>
struct Codec;

// What a caller hands an encoder for a T field: views for the owning
// containers, so encoding never copies an argument first.
template <typename T>
struct WireInT {
  using type = const T&;
};
template <>
struct WireInT<std::string> {
  using type = std::string_view;
};
template <typename T>
struct WireInT<std::vector<T>> {
  using type = std::span<const T>;
};
template <typename T>
using WireIn = typename WireInT<T>::type;

template <typename T>
bool get_into(std::optional<T> v, T& out) {
  if (!v) {
    return false;
  }
  out = std::move(*v);
  return true;
}

template <typename T>
  requires(std::integral<T> && !std::same_as<T, bool>)
struct Codec<T> {
  using U = std::make_unsigned_t<T>;
  static constexpr usize kMinBytes = sizeof(T);
  static void put(Writer& w, T v) { w.put_le(static_cast<U>(v)); }
  static bool get(Reader& r, T& out) {
    auto v = r.get_le<U>();
    out = static_cast<T>(v.value_or(0));
    return v.has_value();
  }
};

// The values an enum may take on the wire: specialize with
// `static constexpr E kValues[] = {...}`. Any other value is malformed.
template <typename E>
struct WireEnum;

template <typename E>
  requires std::is_enum_v<E>
struct Codec<E> {
  using U = std::underlying_type_t<E>;
  static constexpr usize kMinBytes = sizeof(U);
  static void put(Writer& w, E v) { Codec<U>::put(w, static_cast<U>(v)); }
  static bool get(Reader& r, E& out) {
    U raw = 0;
    if (!Codec<U>::get(r, raw)) {
      return false;
    }
    for (E e : WireEnum<E>::kValues) {
      if (static_cast<U>(e) == raw) {
        out = e;
        return true;
      }
    }
    return false;
  }
};

template <>
struct Codec<bool> {
  static constexpr usize kMinBytes = 1;
  static void put(Writer& w, bool v) { w.put_bool(v); }
  static bool get(Reader& r, bool& out) { return get_into(r.get_bool(), out); }
};

template <>
struct Codec<Unit> {
  static constexpr usize kMinBytes = 0;
  static void put(Writer&, Unit) {}
  static bool get(Reader&, Unit&) { return true; }
};

template <>
struct Codec<std::string> {
  static constexpr usize kMinBytes = 4;
  static void put(Writer& w, std::string_view v) { w.put_string(v); }
  static bool get(Reader& r, std::string& out) { return get_into(r.get_string(), out); }
};

template <>
struct Codec<std::string_view> : Codec<std::string> {
  static bool get(Reader& r, std::string_view& out) {
    auto v = r.get_bytes_view();
    out = v ? std::string_view(reinterpret_cast<const char*>(v->data()), v->size())
            : std::string_view();
    return v.has_value();
  }
};


// A frame's last field: every byte left, with no length prefix.
struct TailBytes {
  std::vector<u8> bytes;

  bool operator==(const TailBytes&) const = default;
};

template <>
struct Codec<TailBytes> {
  static constexpr usize kMinBytes = 0;
  static void put(Writer& w, const TailBytes& v) { w.put_raw(v.bytes); }
  static bool get(Reader& r, TailBytes& out) {
    return get_into(r.get_raw(r.remaining()), out.bytes);
  }
};

// A u32-count-prefixed list of T, each element encoded by E.
template <typename T, typename E = Codec<T>>
struct ListCodec {
  static_assert(E::kMinBytes > 0);
  static constexpr usize kMinBytes = 4;
  static void put(Writer& w, std::span<const T> v) {
    w.put_u32(static_cast<u32>(v.size()));
    for (const T& e : v) {
      E::put(w, e);
    }
  }
  static bool get(Reader& r, std::vector<T>& out) {
    auto n = r.get_u32();
    // A count the rest of the frame cannot hold is malformed, so the
    // reservation below is bounded by the frame, not by the count.
    if (!n || *n > r.remaining() / E::kMinBytes) {
      return false;
    }
    out.clear();
    out.reserve(*n);
    for (u32 i = 0; i < *n; ++i) {
      if (!E::get(r, out.emplace_back())) {
        return false;
      }
    }
    return true;
  }
};

template <typename T>
struct Codec<std::vector<T>> : ListCodec<T> {};

template <>
struct Codec<std::vector<u8>> {
  static constexpr usize kMinBytes = 4;
  static void put(Writer& w, std::span<const u8> v) { w.put_bytes(v); }
  static bool get(Reader& r, std::vector<u8>& out) { return get_into(r.get_bytes(), out); }
};

template <>
struct Codec<std::span<const u8>> : Codec<std::vector<u8>> {
  static bool get(Reader& r, std::span<const u8>& out) { return get_into(r.get_bytes_view(), out); }
};

template <typename M>
struct MemberT;
template <typename C, typename F>
struct MemberT<F C::*> {
  using Field = F;
};
template <auto M>
using FieldOf = typename MemberT<decltype(M)>::Field;

// A struct encoded as the listed fields, in order.
template <typename T, auto... M>
struct FieldsCodec {
  static constexpr usize kMinBytes = (0 + ... + Codec<FieldOf<M>>::kMinBytes);
  static void put(Writer& w, const T& v) { (Codec<FieldOf<M>>::put(w, v.*M), ...); }
  static bool get(Reader& r, T& out) { return (Codec<FieldOf<M>>::get(r, out.*M) && ...); }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>>
    : FieldsCodec<std::pair<A, B>, &std::pair<A, B>::first, &std::pair<A, B>::second> {};
template <>
struct Codec<VAddr> : FieldsCodec<VAddr, &VAddr::value> {};

// The value type a codec encodes: the one its get() decodes into.
template <typename T>
T codec_value(bool (*get)(Reader&, T&));
template <typename C>
using CodecValue = decltype(codec_value(&C::get));

// `v` as bytes.
template <typename T, typename C = Codec<T>>
std::vector<u8> to_wire(const T& v) {
  Writer w;
  C::put(w, v);
  return w.take();
}

// One T off `r`; nullopt when it is truncated or malformed.
template <typename T, typename C = Codec<T>>
std::optional<T> wire_get(Reader& r) {
  std::optional<T> out(std::in_place);
  if (!C::get(r, *out)) {
    out.reset();
  }
  return out;
}

// `bytes` as exactly one T: nullopt when short, malformed or followed by
// more bytes.
template <typename T, typename C = Codec<T>>
std::optional<T> from_wire(std::span<const u8> bytes) {
  Reader r(bytes);
  auto out = wire_get<T, C>(r);
  if (!r.exhausted()) {
    out.reset();
  }
  return out;
}

// The round-trip property of `v`'s encoding: it decodes back to `v`, using
// every byte, and no strict prefix of it decodes. (A format that ends in
// TailBytes has no such prefix property: its frame marks where it ends.)
template <typename T, typename C = Codec<T>>
bool round_trips(const T& v) {
  const std::vector<u8> bytes = to_wire<T, C>(v);
  auto back = from_wire<T, C>(bytes);
  if (!back || !(*back == v)) {
    return false;
  }
  for (usize cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::span<const u8>(bytes).first(cut));
    if (wire_get<T, C>(r)) {
      return false;
    }
  }
  return true;
}

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
