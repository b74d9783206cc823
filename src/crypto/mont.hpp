// Montgomery modular arithmetic (CIOS) for odd moduli up to 575 bits.
//
// A MontCtx captures one modulus (curve field prime, curve group order, or
// pairing field prime). Values passed to mul/pow/inv must be in Montgomery
// form and < n; use to_mont/from_mont at the boundary.
//
// MontCtx keeps a runtime width for the callers whose modulus is not an EC
// field prime: the pairing field, the curve group orders and primes.cpp.
// (The EC point code runs on the width-typed FieldT of field.hpp.) Its
// kernel rows (mul, sqr, add, sub, neg) instantiate field.hpp's width-N
// templates for 1..kMaxWords words — the generic Comba product and REDC —
// so the arithmetic has one implementation. The constructor picks the row
// for the modulus's word count once. Results are the unique fully reduced
// values, so the choice of kernel never changes an output bit.
#pragma once

#include "crypto/wide.hpp"

namespace argus::crypto {

namespace detail {

// The kernel set for one limb count (defined in mont.cpp; here only so the
// MontCtx members can call it inline). Inputs are < n; outputs are < n
// with every word at or above the count zero.
struct MontKernels {
  UInt (*mul)(const UInt& a, const UInt& b, const UInt& n,
              std::uint64_t n0inv);
  UInt (*sqr)(const UInt& a, const UInt& n, std::uint64_t n0inv);
  UInt (*add)(const UInt& a, const UInt& b, const UInt& n);
  UInt (*sub)(const UInt& a, const UInt& b, const UInt& n);
  UInt (*neg)(const UInt& a, const UInt& n);
};

}  // namespace detail

class MontCtx {
 public:
  explicit MontCtx(const UInt& modulus);

  [[nodiscard]] const UInt& modulus() const { return n_; }
  [[nodiscard]] std::size_t nwords() const { return nwords_; }

  [[nodiscard]] UInt to_mont(const UInt& x) const;
  [[nodiscard]] UInt from_mont(const UInt& x) const;
  /// 1 in Montgomery form (R mod n).
  [[nodiscard]] const UInt& one() const { return one_; }

  /// Montgomery product a*b*R^-1 mod n.
  [[nodiscard]] UInt mul(const UInt& a, const UInt& b) const {
    return k_->mul(a, b, n_, n0inv_);
  }
  [[nodiscard]] UInt sqr(const UInt& a) const {
    return k_->sqr(a, n_, n0inv_);
  }

  /// Modular add/sub (domain-agnostic: works for plain or Montgomery form).
  [[nodiscard]] UInt add(const UInt& a, const UInt& b) const {
    return k_->add(a, b, n_);
  }
  [[nodiscard]] UInt sub(const UInt& a, const UInt& b) const {
    return k_->sub(a, b, n_);
  }
  [[nodiscard]] UInt neg(const UInt& a) const { return k_->neg(a, n_); }

  /// base^exp (base in Montgomery form; result in Montgomery form).
  [[nodiscard]] UInt pow(const UInt& base_m, const UInt& exp) const;

  /// Multiplicative inverse for prime moduli (Fermat), Montgomery domain.
  [[nodiscard]] UInt inv(const UInt& a_m) const;

  /// Reduce an arbitrary value (e.g. a hash) into [0, n).
  [[nodiscard]] UInt reduce(const UInt& x) const { return mod(x, n_); }
  [[nodiscard]] UInt reduce(const UProd& x) const { return mod(x, n_); }

 private:
  UInt n_;
  std::size_t nwords_;
  const detail::MontKernels* k_;  // the kernel row for nwords_
  std::uint64_t n0inv_;  // -n^{-1} mod 2^64
  UInt rr_;              // R^2 mod n
  UInt one_;             // R mod n
};

}  // namespace argus::crypto
