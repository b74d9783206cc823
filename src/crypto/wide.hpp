// Fixed-capacity multiprecision integers.
//
// One value type serves every field in the repository: the NIST curves
// P-224/P-256/P-384/P-521 (up to 9 x 64-bit limbs) and the 512-bit
// supersingular pairing field. Values are little-endian limb arrays of
// fixed capacity, and the routines here always run over all of it; they
// serve setup, encoding and other paths outside the field-arithmetic
// loops. The hot modular arithmetic lives in MontCtx (mont.hpp), whose
// kernels loop over the modulus's own word count.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace argus::crypto {

inline constexpr std::size_t kMaxWords = 9;            // 576 bits
inline constexpr std::size_t kProdWords = 2 * kMaxWords;

/// Unsigned integer, capacity 576 bits, little-endian limbs.
struct UInt {
  std::array<std::uint64_t, kMaxWords> w{};

  static UInt zero() { return {}; }
  static UInt one() {
    UInt x;
    x.w[0] = 1;
    return x;
  }
  static UInt from_u64(std::uint64_t v) {
    UInt x;
    x.w[0] = v;
    return x;
  }
  /// Parse big-endian bytes (throws if the value exceeds capacity).
  static UInt from_bytes_be(ByteSpan bytes);
  /// Parse a hex string (no 0x prefix).
  static UInt from_hex(std::string_view hex);

  /// Serialize to exactly `len` big-endian bytes (throws if it does not fit).
  [[nodiscard]] Bytes to_bytes_be(std::size_t len) const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] bool is_odd() const { return w[0] & 1; }
  [[nodiscard]] bool bit(std::size_t i) const {
    return (w[i / 64] >> (i % 64)) & 1;
  }
  /// Index of the highest set bit + 1 (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Number of 64-bit words needed to represent the value (>= 1).
  [[nodiscard]] std::size_t word_count() const;

  friend bool operator==(const UInt&, const UInt&) = default;
};

/// Double-width product (for full multiplications).
struct UProd {
  std::array<std::uint64_t, kProdWords> w{};
};

/// -1 / 0 / +1 comparison.
int cmp(const UInt& a, const UInt& b);

/// a + b; carry-out returned via `carry` (may be null).
UInt add(const UInt& a, const UInt& b, bool* carry = nullptr);
/// a - b; borrow-out returned via `borrow` (may be null).
UInt sub(const UInt& a, const UInt& b, bool* borrow = nullptr);

/// Logical shifts by one bit.
UInt shl1(const UInt& a, bool* overflow = nullptr);
UInt shr1(const UInt& a);

/// Full product a * b.
UProd mul_full(const UInt& a, const UInt& b);

/// x mod m (binary long division; not for hot paths — Montgomery is).
UInt mod(const UProd& x, const UInt& m);
UInt mod(const UInt& x, const UInt& m);

/// Quotient and remainder of a / m (m != 0).
struct DivResult {
  UInt quotient;
  UInt remainder;
};
DivResult divmod(const UInt& a, const UInt& m);

/// (a + b) mod m, (a - b) mod m; inputs must already be < m.
UInt addmod(const UInt& a, const UInt& b, const UInt& m);
UInt submod(const UInt& a, const UInt& b, const UInt& m);

}  // namespace argus::crypto
