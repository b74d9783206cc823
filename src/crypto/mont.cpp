#include "crypto/mont.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "crypto/field.hpp"

namespace argus::crypto {

namespace {

// MontCtx's rows are thin UInt adapters over the width-N kernels in
// field.hpp: the generic Comba product and word-wise REDC, the dedicated
// squaring and the masked add/sub/neg. Words at and above N are never
// read, and the returned UInt has them zero.

template <std::size_t N>
UInt row_mul(const UInt& a, const UInt& b, const UInt& n,
             std::uint64_t n0inv) {
  std::uint64_t t[2 * N];
  fe::mul_wide<N>(t, fe::from_uint<N>(a), fe::from_uint<N>(b));
  return fe::to_uint<N>(fe::redc<N>(t, fe::from_uint<N>(n), n0inv));
}

template <std::size_t N>
UInt row_sqr(const UInt& a, const UInt& n, std::uint64_t n0inv) {
  std::uint64_t t[2 * N];
  fe::sqr_wide<N>(t, fe::from_uint<N>(a));
  return fe::to_uint<N>(fe::redc<N>(t, fe::from_uint<N>(n), n0inv));
}

template <std::size_t N>
UInt row_add(const UInt& a, const UInt& b, const UInt& n) {
  return fe::to_uint<N>(fe::add<N>(fe::from_uint<N>(a), fe::from_uint<N>(b),
                                   fe::from_uint<N>(n)));
}

template <std::size_t N>
UInt row_sub(const UInt& a, const UInt& b, const UInt& n) {
  return fe::to_uint<N>(fe::sub<N>(fe::from_uint<N>(a), fe::from_uint<N>(b),
                                   fe::from_uint<N>(n)));
}

template <std::size_t N>
UInt row_neg(const UInt& a, const UInt& n) {
  return fe::to_uint<N>(fe::neg<N>(fe::from_uint<N>(a), fe::from_uint<N>(n)));
}

using detail::MontKernels;

template <std::size_t... I>
constexpr std::array<MontKernels, sizeof...(I)> make_kernels(
    std::index_sequence<I...>) {
  return {{MontKernels{&row_mul<I + 1>, &row_sqr<I + 1>, &row_add<I + 1>,
                       &row_sub<I + 1>, &row_neg<I + 1>}...}};
}

// Row w-1 serves moduli of w words.
constexpr std::array<MontKernels, kMaxWords> kKernels =
    make_kernels(std::make_index_sequence<kMaxWords>{});

}  // namespace

MontCtx::MontCtx(const UInt& modulus) : n_(modulus) {
  if (modulus.is_zero() || !modulus.is_odd()) {
    throw std::invalid_argument("MontCtx: modulus must be odd and nonzero");
  }
  if (modulus.bit_length() > 575) {
    throw std::invalid_argument("MontCtx: modulus too large");
  }
  nwords_ = modulus.word_count();
  k_ = &kKernels[nwords_ - 1];
  n0inv_ = fe::neg_inv64(n_.w[0]);

  // R mod n and R^2 mod n by repeated doubling: R = 2^(64*nwords).
  UInt r = mod(UInt::one(), n_);
  const std::size_t rbits = 64 * nwords_;
  for (std::size_t i = 0; i < rbits; ++i) r = add(r, r);
  one_ = r;
  UInt r2 = r;
  for (std::size_t i = 0; i < rbits; ++i) r2 = add(r2, r2);
  rr_ = r2;
}

UInt MontCtx::to_mont(const UInt& x) const { return mul(x, rr_); }

UInt MontCtx::from_mont(const UInt& x) const { return mul(x, UInt::one()); }

UInt MontCtx::pow(const UInt& base_m, const UInt& exp) const {
  UInt result = one_;
  const std::size_t bits = exp.bit_length();
  // 4-bit fixed window.
  UInt table[16];
  table[0] = one_;
  for (int i = 1; i < 16; ++i) {
    table[i] = mul(table[i - 1], base_m);
  }
  if (bits == 0) return one_;
  const std::size_t nibbles = (bits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      result = sqr(result);
      result = sqr(result);
      result = sqr(result);
      result = sqr(result);
    }
    std::size_t nibble = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t bit_idx = i * 4 + b;
      if (bit_idx < bits && exp.bit(bit_idx)) nibble |= 1u << b;
    }
    if (nibble != 0) result = mul(result, table[nibble]);
  }
  return result;
}

UInt MontCtx::inv(const UInt& a_m) const {
  if (a_m.is_zero()) throw std::invalid_argument("MontCtx::inv: zero");
  const UInt e = crypto::sub(n_, UInt::from_u64(2));
  return pow(a_m, e);
}

}  // namespace argus::crypto
