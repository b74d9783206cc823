// One field walk per snapshotter.
//
// Each snapshotter (the two protocol engines, the backend) lists its
// format once, in a private member template
//
//   template <class Self, class Io> static void walk(Self& self, Io& io);
//
// that names every persisted field in order. Saving runs it with Self
// const and Io = Saver, which writes each field from a const reference;
// loading runs it with Io = Loader, which reads each field in place and
// throws (SerdeError, std::invalid_argument, IdentityMismatchError) on
// malformed input. The two classes share their method names, so the walk
// does not know which way it runs; the few rules that only make sense on
// load sit in the Loader (identity, stamp bounds, key validation, dropped
// premasters) or behind `if constexpr (Io::kLoading)` in the walk.
//
// Everything rides on common/serde.hpp conventions; doubles are
// round-tripped bit-exactly through their IEEE-754 image so a restored
// engine's clocks, token buckets, and TTL arithmetic continue on the
// identical values.
//
// Envelope is the one snapshot()/state_digest()/restore() body, shared by
// every snapshotter that befriends it.
#pragma once

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ec.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"
#include "persist/snapshot.hpp"

namespace argus::persist {

/// What the loader demands of an LruTable's stamps: below the bound
/// always, and for kDistinct also pairwise distinct (a table stamped only
/// at insert, like the replay window).
enum class Stamps : std::uint8_t { kBelowBound, kDistinct };

/// Writes a walk's fields, in walk order, into one payload.
class Saver {
 public:
  static constexpr bool kLoading = false;

  template <class T>
  void u8(const T& v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  template <class T>
  void u32(const T& v) {
    w_.u32(static_cast<std::uint32_t>(v));
  }
  template <class T>
  void u64(const T& v) {
    w_.u64(static_cast<std::uint64_t>(v));
  }
  void f64(const double& v) { w_.u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes16(const Bytes& v) { w_.bytes16(v); }
  void bytes32(const Bytes& v) { w_.bytes32(v); }
  void str(const std::string& v) { w_.str(v); }

  /// A SHA-256 midstate (anything with export_state(), e.g. a Transcript).
  template <class Hash>
  void sha256(const Hash& h) {
    const crypto::Sha256::State s = h.export_state();
    for (const std::uint32_t word : s.state) w_.u32(word);
    w_.raw(ByteSpan(s.buf.data(), s.buf.size()));
    w_.u64(s.buf_len);
    w_.u64(s.total_len);
  }
  void keypair(const crypto::EcGroup& group, const crypto::EcKeyPair& kp) {
    w_.bytes16(kp.priv.to_bytes_be(group.params().field_bytes));
    w_.bytes16(group.encode_point(kp.pub));
  }
  void drbg(const crypto::HmacDrbg& rng) {
    const crypto::HmacDrbg::State s = rng.export_state();
    w_.bytes16(s.k);
    w_.bytes16(s.v);
  }

  /// Who the state belongs to: strings, 8-bit enums and u64s, in order.
  /// The loader refuses a payload whose values differ from `want`.
  template <class... T>
  void identity(const T&... want) {
    (scalar(want), ...);
  }

  /// A u32 count, then `fn(element)` for each element of a sequence or
  /// set. The loader default-constructs elements, or copies `blank`.
  template <class C, class Fn>
  void seq(const C& c, Fn&& fn,
           const typename C::value_type& /*blank*/ = {}) {
    w_.u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& e : c) fn(e);
  }
  /// A u32 count, then `fn(key, value)` for each entry, in key order.
  template <class M, class Fn>
  void map(const M& m, Fn&& fn) {
    w_.u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [key, value] : m) fn(key, value);
  }

  /// A u32 count, then `fn(key, value)` and the u64 stamp for each entry
  /// of an LruTable, in index order. The loader refuses a stamp at or
  /// above `bound`, the counter every stamp was drawn from.
  template <class Table, class Fn>
  void table(const Table& t, std::uint64_t /*bound*/, Fn&& fn,
             Stamps /*rule*/ = Stamps::kBelowBound) {
    w_.u32(static_cast<std::uint32_t>(t.size()));
    for (const auto& [key, entry] : t) {
      fn(key, entry.value);
      w_.u64(entry.stamp);
    }
  }
  /// Same format as table(), but the loader only parses the entries and
  /// adds their number to `dropped`; it never fills the table.
  template <class Table, class Fn>
  void dropped(const Table& t, const std::uint64_t& /*dropped*/, Fn&& fn) {
    table(t, 0, std::forward<Fn>(fn));
  }

  [[nodiscard]] const Bytes& data() const { return w_.data(); }

 private:
  template <class T>
  void scalar(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      u8(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else {
      u64(v);
    }
  }

  ByteWriter w_;
};

/// Reads a walk's fields, in walk order, into the walked object.
class Loader {
 public:
  static constexpr bool kLoading = true;

  explicit Loader(ByteSpan payload) : r_(payload) {}

  template <class T>
  void u8(T& v) {
    v = static_cast<T>(r_.u8());
  }
  template <class T>
  void u32(T& v) {
    v = static_cast<T>(r_.u32());
  }
  template <class T>
  void u64(T& v) {
    v = static_cast<T>(r_.u64());
  }
  void f64(double& v) { v = std::bit_cast<double>(r_.u64()); }
  void bytes16(Bytes& v) { v = r_.bytes16(); }
  void bytes32(Bytes& v) { v = r_.bytes32(); }
  void str(std::string& v) { v = r_.str(); }

  /// Throws std::invalid_argument on an inconsistent midstate.
  template <class Hash>
  void sha256(Hash& h) {
    crypto::Sha256::State s;
    for (std::uint32_t& word : s.state) word = r_.u32();
    const Bytes buf = r_.raw(s.buf.size());
    std::copy(buf.begin(), buf.end(), s.buf.begin());
    s.buf_len = r_.u64();
    s.total_len = r_.u64();
    h.import_state(s);
  }
  /// Throws std::invalid_argument on an off-curve public key.
  void keypair(const crypto::EcGroup& group, crypto::EcKeyPair& kp) {
    kp.priv = crypto::UInt::from_bytes_be(r_.bytes16());
    const auto pub = group.decode_point(r_.bytes16());
    if (!pub) {
      throw std::invalid_argument("persist: snapshot public key off-curve");
    }
    kp.pub = *pub;
  }
  /// Throws std::invalid_argument on bad state sizes.
  void drbg(crypto::HmacDrbg& rng) {
    crypto::HmacDrbg::State s;
    s.k = r_.bytes16();
    s.v = r_.bytes16();
    rng.import_state(s);
  }

  /// Reads every identity field, then throws IdentityMismatchError unless
  /// all of them equal `want`.
  template <class... T>
  void identity(const T&... want) {
    std::tuple<T...> got;
    std::apply([this](auto&... g) { (scalar(g), ...); }, got);
    if (got != std::tie(want...)) {
      throw IdentityMismatchError("snapshot identity mismatch");
    }
  }

  template <class C, class Fn>
  void seq(C& c, Fn&& fn, const typename C::value_type& blank = {}) {
    for (std::uint32_t i = 0, n = r_.u32(); i < n; ++i) {
      typename C::value_type e = blank;
      fn(e);
      c.insert(c.end(), std::move(e));
    }
  }
  /// A repeated key keeps its first entry.
  template <class M, class Fn>
  void map(M& m, Fn&& fn) {
    for (std::uint32_t i = 0, n = r_.u32(); i < n; ++i) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      fn(key, value);
      m.emplace(std::move(key), std::move(value));
    }
  }

  /// Rebuilds the whole table from the parsed stamps (a repeated key
  /// keeps its first entry). Every stamp, kept or not, is checked.
  template <class Table, class Fn>
  void table(Table& t, std::uint64_t bound, Fn&& fn,
             Stamps rule = Stamps::kBelowBound) {
    typename Table::Index index;
    std::vector<std::uint64_t> stamps;
    for (std::uint32_t i = 0, n = r_.u32(); i < n; ++i) {
      typename Table::key_type key{};
      typename Table::Entry entry{};
      fn(key, entry.value);
      entry.stamp = r_.u64();
      // Every stamp came from the counter at `bound`, and every stamp the
      // owner draws next lands past it; eviction order relies on that.
      if (entry.stamp >= bound) {
        throw std::invalid_argument("persist: stamp from the future");
      }
      if (rule == Stamps::kDistinct) stamps.push_back(entry.stamp);
      index.emplace(std::move(key), std::move(entry));
    }
    if (rule == Stamps::kDistinct) {
      std::sort(stamps.begin(), stamps.end());
      if (std::adjacent_find(stamps.begin(), stamps.end()) != stamps.end()) {
        throw std::invalid_argument("persist: repeated stamp");
      }
    }
    t.assign(std::move(index));
  }
  /// Premaster caches die with the snapshot: parse, count, never commit.
  template <class Table, class Fn>
  void dropped(Table& /*t*/, std::uint64_t& dropped, Fn&& fn) {
    for (std::uint32_t i = 0, n = r_.u32(); i < n; ++i) {
      typename Table::key_type key{};
      typename Table::Value value{};
      fn(key, value);
      (void)r_.u64();  // stamp
      ++dropped;
    }
  }

  /// Trailing bytes are a malformed payload.
  void finish() const { r_.expect_done(); }

 private:
  template <class T>
  void scalar(T& v) {
    if constexpr (std::is_enum_v<T>) {
      u8(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else {
      u64(v);
    }
  }

  ByteReader r_;
};

/// The one snapshot envelope. A snapshotter T befriends it and provides
/// the private walk above, `void reset_to_blank()` (back to the
/// post-construction state) and `static constexpr SnapshotKind
/// kSnapshotKind`.
class Envelope {
 public:
  template <class T>
  static Bytes seal(const T& state) {
    return seal_snapshot(T::kSnapshotKind, save(state).data());
  }

  /// SHA-256 over the payload: a cheap exact-equality probe.
  template <class T>
  static Bytes digest(const T& state) {
    return crypto::Sha256::hash(save(state).data());
  }

  /// Blank-or-exact: reset, open, walk; any throw resets again, so a
  /// failed restore always leaves the post-construction state.
  template <class T>
  static RestoreError restore(T& state, ByteSpan sealed) {
    state.reset_to_blank();
    const OpenResult open = open_snapshot(sealed, T::kSnapshotKind);
    if (!open) return open.error;
    try {
      Loader io(open.payload);
      T::walk(state, io);
      io.finish();
    } catch (const IdentityMismatchError&) {
      state.reset_to_blank();
      return RestoreError::kIdentityMismatch;
    } catch (const std::exception&) {
      state.reset_to_blank();
      return RestoreError::kBadPayload;
    }
    return RestoreError::kOk;
  }

 private:
  template <class T>
  static Saver save(const T& state) {
    Saver io;
    T::walk(state, io);
    return io;
  }
};

}  // namespace argus::persist
