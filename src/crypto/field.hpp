// Width-typed prime-field elements and the kernels every prime-field
// operation in the repository runs on.
//
// Fe<N> is a fixed array of N 64-bit words, little-endian — the size of
// its field, not of the widest one. The kernels below are inline width-N
// templates: a Comba product, a dedicated squaring, a word-wise
// Montgomery reduction (REDC) for any odd modulus, and carry-chain
// add/sub/neg whose final corrections are masked selects, never branches.
//
// Two NIST primes get a reduction that uses the prime's shape instead of
// the generic REDC's N reduction multiplies:
//
//   P-256  p = 2^256 - 2^224 + 2^192 + 2^96 - 1   (-p^-1 mod 2^64 = 1)
//   P-224  p = 2^224 - 2^96 + 1                    (-p^-1 mod 2^64 = -1)
//
// With R = 2^256 the Montgomery factor m of each REDC step is the low word
// itself (P-256) or its negation (P-224), and m * p is a handful of
// shifted copies of m — so each step is shifts and one carry chain.
//
// Carry chains use addc/subb, which compile to ADC/SBB on x86-64 (every
// 64-bit x86 CPU has them; there is no runtime dispatch) and to 128-bit
// arithmetic elsewhere.
//
// On x86-64 the same two primes also get MULX/ADX kernels (Redc::kP256Adx,
// Redc::kP224Adx): mul and sqr written as inline assembly, with MULX
// products summed on two independent carry chains (ADCX on CF, ADOX on
// OF), the shaped REDC fused into the same block and a CMOV final
// subtraction. Compilers do not emit ADCX/ADOX from the _addcarryx_u64
// intrinsic (GCC 12 serialises both chains through one flag), hence the
// assembly. Those fields may only run on a CPU that reports both ADX and
// BMI2; EcGroup picks them once per group (ec.cpp).
//
// Every kernel returns the unique fully reduced value, so which kernel
// runs never changes an output bit: FieldT<4, Redc::kP256>::mul equals
// FieldT<4, Redc::kP256Adx>::mul and MontCtx::mul on the same modulus word
// for word. MontCtx (mont.hpp) instantiates these same templates for its
// runtime-width rows.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#if defined(__x86_64__) && defined(__GNUC__)
/// The MULX/ADX kernels exist in this build (they still need a CPU with
/// ADX and BMI2 to run).
#define ARGUS_FIELD_ADX 1
#endif

#include "crypto/wide.hpp"

namespace argus::crypto {

/// A field element of N words (Montgomery form inside the EC code).
template <std::size_t N>
struct Fe {
  std::array<std::uint64_t, N> w;

  friend bool operator==(const Fe&, const Fe&) = default;
};

namespace fe {

using u128 = unsigned __int128;

template <std::size_t N>
inline Fe<N> from_uint(const UInt& x) {
  Fe<N> r;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) r.w[j] = x.w[j];
  return r;
}

template <std::size_t N>
inline UInt to_uint(const Fe<N>& x) {
  UInt r;
  for (std::size_t j = 0; j < N; ++j) r.w[j] = x.w[j];
  return r;
}

template <std::size_t N>
inline bool is_zero(const Fe<N>& a) {
  std::uint64_t any = 0;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) any |= a.w[j];
  return any == 0;
}

/// mask ? x : y, word by word (mask is all-ones or zero).
template <std::size_t N>
inline Fe<N> select(std::uint64_t mask, const Fe<N>& x, const Fe<N>& y) {
  Fe<N> r;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) r.w[j] = (x.w[j] & mask) | (y.w[j] & ~mask);
  return r;
}

/// a + b + cin (cin 0 or 1); the carry-out lands in cout. On x86-64 this
/// is the ADC instruction every 64-bit x86 CPU has, so carry chains stay
/// in the flags register.
inline std::uint64_t addc(std::uint64_t a, std::uint64_t b, std::uint64_t cin,
                          std::uint64_t& cout) {
#if defined(__x86_64__)
  unsigned long long r;
  cout = _addcarry_u64(static_cast<unsigned char>(cin), a, b, &r);
  return r;
#else
  const u128 s = static_cast<u128>(a) + b + cin;
  cout = static_cast<std::uint64_t>(s >> 64);
  return static_cast<std::uint64_t>(s);
#endif
}

/// a - b - bin (bin 0 or 1); the borrow-out lands in bout.
inline std::uint64_t subb(std::uint64_t a, std::uint64_t b, std::uint64_t bin,
                          std::uint64_t& bout) {
#if defined(__x86_64__)
  unsigned long long r;
  bout = _subborrow_u64(static_cast<unsigned char>(bin), a, b, &r);
  return r;
#else
  const u128 d = static_cast<u128>(a) - b - bin;
  bout = static_cast<std::uint64_t>(d >> 64) & 1;
  return static_cast<std::uint64_t>(d);
#endif
}

/// r = a - b across N words; returns the borrow-out (0 or 1).
template <std::size_t N>
inline std::uint64_t sub_words(std::uint64_t* r, const std::uint64_t* a,
                               const std::uint64_t* b) {
  std::uint64_t borrow = 0;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) r[j] = subb(a[j], b[j], borrow, borrow);
  return borrow;
}

/// The value r + top * 2^(64N), known to be < 2p, reduced below p.
template <std::size_t N>
inline Fe<N> final_sub(const std::uint64_t* r, std::uint64_t top,
                       const Fe<N>& p) {
  Fe<N> d;
  const std::uint64_t borrow = sub_words<N>(d.w.data(), r, p.w.data());
  // r < p exactly when nothing carried out and r - p borrows.
  const std::uint64_t keep = 0 - static_cast<std::uint64_t>(top < borrow);
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) d.w[j] = (r[j] & keep) | (d.w[j] & ~keep);
  return d;
}

/// (c2:acc) += a * b, acc holding the low two words of a column sum.
inline void mac(u128& acc, std::uint64_t& c2, std::uint64_t a,
                std::uint64_t b) {
  const u128 p = static_cast<u128>(a) * b;
  acc += p;
  c2 += acc < p;
}

/// Comba product t = a * b: one column of partial products at a time, in
/// a three-word accumulator.
template <std::size_t N>
inline void mul_wide(std::uint64_t (&t)[2 * N], const Fe<N>& a,
                     const Fe<N>& b) {
  u128 acc = 0;
  std::uint64_t c2 = 0;
#pragma GCC unroll 17
  for (std::size_t k = 0; k < 2 * N - 1; ++k) {
    const std::size_t lo = k < N ? 0 : k - N + 1;
    const std::size_t hi = k < N ? k : N - 1;
#pragma GCC unroll 9
    for (std::size_t i = lo; i <= hi; ++i) mac(acc, c2, a.w[i], b.w[k - i]);
    t[k] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) | (static_cast<u128>(c2) << 64);
    c2 = 0;
  }
  t[2 * N - 1] = static_cast<std::uint64_t>(acc);
}

/// Comba square t = a^2: each column's cross products a_i * a_j (i < j)
/// are summed once and added twice, then the diagonal a_i^2 is added —
/// about half the multiplies of mul_wide.
template <std::size_t N>
inline void sqr_wide(std::uint64_t (&t)[2 * N], const Fe<N>& a) {
  u128 acc = 0;
  std::uint64_t c2 = 0;
#pragma GCC unroll 17
  for (std::size_t k = 0; k < 2 * N - 1; ++k) {
    const std::size_t lo = k < N ? 0 : k - N + 1;
    u128 cross = 0;
    std::uint64_t cross2 = 0;
#pragma GCC unroll 9
    for (std::size_t i = lo; 2 * i < k; ++i) {
      mac(cross, cross2, a.w[i], a.w[k - i]);
    }
    acc += cross;
    c2 += (acc < cross) + cross2;
    acc += cross;
    c2 += (acc < cross) + cross2;
    if (k % 2 == 0) mac(acc, c2, a.w[k / 2], a.w[k / 2]);
    t[k] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) | (static_cast<u128>(c2) << 64);
    c2 = 0;
  }
  t[2 * N - 1] = static_cast<std::uint64_t>(acc);
}

/// Word-wise Montgomery reduction t * R^-1 mod p, R = 2^(64N), for any odd
/// p with n0inv = -p^-1 mod 2^64. Requires t < p * R (true for t = a * b
/// with a, b < p). Overwrites t.
template <std::size_t N>
inline Fe<N> redc(std::uint64_t (&t)[2 * N], const Fe<N>& p,
                  std::uint64_t n0inv) {
  std::uint64_t top = 0;  // carry out of word i + N, owed to word i + N + 1
#pragma GCC unroll 9
  for (std::size_t i = 0; i < N; ++i) {
    const std::uint64_t m = t[i] * n0inv;
    u128 c = 0;
#pragma GCC unroll 9
    for (std::size_t j = 0; j < N; ++j) {
      c += static_cast<u128>(m) * p.w[j] + t[i + j];
      t[i + j] = static_cast<std::uint64_t>(c);
      c >>= 64;
    }
    t[i + N] = addc(t[i + N], static_cast<std::uint64_t>(c), top, top);
  }
  return final_sub<N>(t + N, top, p);
}

inline constexpr Fe<4> kP256{{0xffffffffffffffffULL, 0x00000000ffffffffULL,
                              0x0000000000000000ULL, 0xffffffff00000001ULL}};
inline constexpr Fe<4> kP224{{0x0000000000000001ULL, 0xffffffff00000000ULL,
                              0xffffffffffffffffULL, 0x00000000ffffffffULL}};

/// REDC for P-256. m = t[i] (n0inv = 1), and t[i] + m * p = m * (p + 1)
/// because t[i] - m = 0, where p + 1 = 2^256 - 2^224 + 2^192 + 2^96 has
/// words {0, 2^32, 0, 0xffffffff00000001}: m * 2^96 lands as m << 32 and
/// m >> 32 in words i+1 and i+2, and m * 0xffffffff00000001 =
/// m * 2^64 + (m - m * 2^32) in words i+3 and i+4. No multiplies, and one
/// carry chain per step.
inline Fe<4> redc_p256(std::uint64_t (&t)[8]) {
  std::uint64_t top = 0;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t m = t[i];
    std::uint64_t b;
    const std::uint64_t mc_lo = subb(m, m << 32, 0, b);
    // mc_hi <= 2^64 - 2^32, so adding the previous step's carry (0 or 1)
    // cannot wrap.
    const std::uint64_t mc_hi = m - (m >> 32) - b + top;
    std::uint64_t c;
    t[i + 1] = addc(t[i + 1], m << 32, 0, c);
    t[i + 2] = addc(t[i + 2], m >> 32, c, c);
    t[i + 3] = addc(t[i + 3], mc_lo, c, c);
    t[i + 4] = addc(t[i + 4], mc_hi, c, top);
  }
  return final_sub<4>(t + 4, top, kP256);
}

/// REDC for P-224 (n0inv = -1). Each step adds m * p for
/// m = 2^64 - t[i], which is -t[i] mod 2^64 but taken in [1, 2^64] rather
/// than [0, 2^64): still a valid REDC factor (it zeroes word i), and since
/// p < 2^-32 R the sum stays below 2p. Then t[i] + m carries exactly 1
/// into word i+1, and the rest of m * p is -m * 2^96 + m * 2^224 =
/// (m * (2^128 - 1)) << 96, where m * (2^128 - 1) = m * 2^128 - m has
/// words {t[i], 2^64 - 1, ~t[i]} for every t[i]. Shifted left by one word
/// and 32 bits, that is one all-additions carry chain over words i+1..i+4
/// with no multiplies and no zero test.
inline Fe<4> redc_p224(std::uint64_t (&t)[8]) {
  std::uint64_t top = 0;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t k = t[i];
    // The carry of 1 from word i rides in the zero low bits of k << 32;
    // ~k >> 32 < 2^32, so adding the previous step's carry cannot wrap.
    const std::uint64_t a1 = (k << 32) | 1;
    const std::uint64_t a2 = 0xffffffff00000000ULL | (k >> 32);
    const std::uint64_t a3 = (~k << 32) | 0x00000000ffffffffULL;
    const std::uint64_t a4 = (~k >> 32) + top;
    std::uint64_t c;
    t[i + 1] = addc(t[i + 1], a1, 0, c);
    t[i + 2] = addc(t[i + 2], a2, c, c);
    t[i + 3] = addc(t[i + 3], a3, c, c);
    t[i + 4] = addc(t[i + 4], a4, c, top);
  }
  return final_sub<4>(t + 4, top, kP224);
}

#if defined(ARGUS_FIELD_ADX)
// MULX/ADX kernels for P-256 and P-224. Each is one asm block over
// registers: product words, two scratch words (lo, hi), RDX (MULX's
// implicit operand) and the operand pointers. The operands are read
// through the pointers under a "memory" clobber rather than as "m"
// operands, which keeps the demand at 10 (mul) and 12 (sqr) registers,
// few enough for -O0 sanitizer builds that reserve the frame pointer.
//
// mul interleaves: product row i (a * b[i], lows on the CF chain, highs on
// the OF chain) then REDC step i, whose factor is word i, already final.
// Only five product words are ever live, so they rotate through r0..r4;
// step i's carry becomes the initial top word of row i + 1. sqr forms the
// six cross products, doubles them on the CF chain while the four squares
// enter on the OF chain, runs the four REDC steps on the low half alone
// and adds the high half last, so no step waits for the previous step's
// carry.
//
// A row or step can drop a carry out of its top word only if the running
// sum outgrew the words it has. It never does: after row i the sum is
// below (2^64 + 2) * p * 2^(64i), under 2^(64(i+5)) for both primes. The
// result (below 2p, its carry in `top`) is reduced by a subtract-and-CMOV:
// no branch, no operand-dependent load.

// REDC step for P-256 with factor m = t[i] (see redc_p256): m << 32 and
// m >> 32 into words i+1 and i+2, the low word of m * 0xffffffff00000001
// into word i+3; its high word, left in m's register, goes to word i+4
// by TAIL (the carry chain is still open).
#define ARGUS_P256_STEP(m, t1, t2, t3, TAIL) \
  "movq %[" m "], %[lo]\n\t"                 \
  "shlq $32, %[lo]\n\t"                      \
  "movq %[" m "], %[hi]\n\t"                 \
  "shrq $32, %[hi]\n\t"                      \
  "movq %[" m "], %%rdx\n\t"                 \
  "subq %[lo], %%rdx\n\t"                    \
  "sbbq %[hi], %[" m "]\n\t"                 \
  "addq %[lo], %[" t1 "]\n\t"                \
  "adcq %[hi], %[" t2 "]\n\t"                \
  "adcq %%rdx, %[" t3 "]\n\t" TAIL

// REDC step for P-224 with k = t[i] (see redc_p224): (k << 32) | 1,
// ~(~k >> 32) and ~(k << 32) into words i+1..i+3; ~k >> 32, left in k's
// register, goes to word i+4 by TAIL.
#define ARGUS_P224_STEP(m, t1, t2, t3, TAIL) \
  "movq %[" m "], %[lo]\n\t"                 \
  "shlq $32, %[lo]\n\t"                      \
  "movq %[lo], %[hi]\n\t"                    \
  "notq %[hi]\n\t"                           \
  "notq %[" m "]\n\t"                        \
  "shrq $32, %[" m "]\n\t"                   \
  "movq %[" m "], %%rdx\n\t"                 \
  "notq %%rdx\n\t"                           \
  "orq $1, %[lo]\n\t"                        \
  "addq %[lo], %[" t1 "]\n\t"                \
  "adcq %%rdx, %[" t2 "]\n\t"                \
  "adcq %[hi], %[" t3 "]\n\t" TAIL

// Step tails. Into an existing word t4, carrying out into m's register
// (which becomes word i+5), or m's register itself becoming word i+4 (it
// cannot wrap: the top addend is at most 2^64 - 2^32).
#define ARGUS_TAIL_INTO(m, t4)      \
  "adcq %[" m "], %[" t4 "]\n\t"  \
  "movl $0, %k[" m "]\n\t"        \
  "adcq $0, %[" m "]\n\t"
#define ARGUS_TAIL_FRESH(m) "adcq $0, %[" m "]\n\t"

// (top : x3..x0) - p into lo, hi, s0, s1; keep x where that borrows.
// p's words as immediates or RDX loads (MOV leaves the flags alone).
#define ARGUS_P256_FINAL(x0, x1, x2, x3, top, s0, s1) \
  "movq %[" x0 "], %[lo]\n\t"                         \
  "subq $-1, %[lo]\n\t"                               \
  "movl $0xffffffff, %%edx\n\t"                       \
  "movq %[" x1 "], %[hi]\n\t"                         \
  "sbbq %%rdx, %[hi]\n\t"                             \
  "movq %[" x2 "], %[" s0 "]\n\t"                     \
  "sbbq $0, %[" s0 "]\n\t"                            \
  "movabsq $0xffffffff00000001, %%rdx\n\t"            \
  "movq %[" x3 "], %[" s1 "]\n\t"                     \
  "sbbq %%rdx, %[" s1 "]\n\t"                         \
  "sbbq $0, %[" top "]\n\t"                           \
  "cmovncq %[lo], %[" x0 "]\n\t"                      \
  "cmovncq %[hi], %[" x1 "]\n\t"                      \
  "cmovncq %[" s0 "], %[" x2 "]\n\t"                  \
  "cmovncq %[" s1 "], %[" x3 "]\n\t"

#define ARGUS_P224_FINAL(x0, x1, x2, x3, top, s0, s1) \
  "movq %[" x0 "], %[lo]\n\t"                         \
  "subq $1, %[lo]\n\t"                                \
  "movabsq $0xffffffff00000000, %%rdx\n\t"            \
  "movq %[" x1 "], %[hi]\n\t"                         \
  "sbbq %%rdx, %[hi]\n\t"                             \
  "movq %[" x2 "], %[" s0 "]\n\t"                     \
  "sbbq $-1, %[" s0 "]\n\t"                           \
  "movl $0xffffffff, %%edx\n\t"                       \
  "movq %[" x3 "], %[" s1 "]\n\t"                     \
  "sbbq %%rdx, %[" s1 "]\n\t"                         \
  "sbbq $0, %[" top "]\n\t"                           \
  "cmovncq %[lo], %[" x0 "]\n\t"                      \
  "cmovncq %[hi], %[" x1 "]\n\t"                      \
  "cmovncq %[" s0 "], %[" x2 "]\n\t"                  \
  "cmovncq %[" s1 "], %[" x3 "]\n\t"

// Row 0 of a * b: t0..t4 = a * b[0] on one carry chain.
#define ARGUS_ADX_ROW0                  \
  "movq (%[b]), %%rdx\n\t"              \
  "mulxq (%[a]), %[r0], %[r1]\n\t"      \
  "mulxq 8(%[a]), %[lo], %[r2]\n\t"     \
  "addq %[lo], %[r1]\n\t"               \
  "mulxq 16(%[a]), %[lo], %[r3]\n\t"    \
  "adcq %[lo], %[r2]\n\t"               \
  "mulxq 24(%[a]), %[lo], %[r4]\n\t"    \
  "adcq %[lo], %[r3]\n\t"               \
  "adcq $0, %[r4]\n\t"

// Row i > 0: (t4..t0) += a * b[i], b[i] at byte offset `off`. XOR clears
// CF and OF; the lows ride CF, the highs OF, and CF lands in t4 last.
#define ARGUS_ADX_ROW(off, t0, t1, t2, t3, t4) \
  "movq " off "(%[b]), %%rdx\n\t"              \
  "xorl %k[lo], %k[lo]\n\t"                    \
  "mulxq (%[a]), %[lo], %[hi]\n\t"             \
  "adcxq %[lo], %[" t0 "]\n\t"                 \
  "adoxq %[hi], %[" t1 "]\n\t"                 \
  "mulxq 8(%[a]), %[lo], %[hi]\n\t"            \
  "adcxq %[lo], %[" t1 "]\n\t"                 \
  "adoxq %[hi], %[" t2 "]\n\t"                 \
  "mulxq 16(%[a]), %[lo], %[hi]\n\t"           \
  "adcxq %[lo], %[" t2 "]\n\t"                 \
  "adoxq %[hi], %[" t3 "]\n\t"                 \
  "mulxq 24(%[a]), %[lo], %[hi]\n\t"           \
  "adcxq %[lo], %[" t3 "]\n\t"                 \
  "adoxq %[hi], %[" t4 "]\n\t"                 \
  "adcq $0, %[" t4 "]\n\t"

// a^2 into r0..r7: cross products a_i * a_j (i < j) into r1..r6, then
// r7:r1 doubled on CF while the squares a_i^2 enter on OF.
#define ARGUS_ADX_SQR_WIDE                                              \
  "movq (%[a]), %%rdx\n\t"                                              \
  "mulxq 8(%[a]), %[r1], %[r2]\n\t"                                     \
  "mulxq 16(%[a]), %[lo], %[r3]\n\t"                                    \
  "addq %[lo], %[r2]\n\t"                                               \
  "mulxq 24(%[a]), %[lo], %[r4]\n\t"                                    \
  "adcq %[lo], %[r3]\n\t"                                               \
  "adcq $0, %[r4]\n\t"                                                  \
  "movq 8(%[a]), %%rdx\n\t"                                             \
  "xorl %k[r5], %k[r5]\n\t"                                             \
  "mulxq 16(%[a]), %[lo], %[hi]\n\t"                                    \
  "adcxq %[lo], %[r3]\n\t"                                              \
  "adoxq %[hi], %[r4]\n\t"                                              \
  "mulxq 24(%[a]), %[lo], %[hi]\n\t"                                    \
  "adcxq %[lo], %[r4]\n\t"                                              \
  "adoxq %[hi], %[r5]\n\t"                                              \
  "adcq $0, %[r5]\n\t"                                                  \
  "movq 16(%[a]), %%rdx\n\t"                                            \
  "mulxq 24(%[a]), %[lo], %[r6]\n\t"                                    \
  "addq %[lo], %[r5]\n\t"                                               \
  "adcq $0, %[r6]\n\t"                                                  \
  "movq (%[a]), %%rdx\n\t"                                              \
  "xorl %k[r7], %k[r7]\n\t"                                             \
  "mulxq %%rdx, %[r0], %[hi]\n\t"                                       \
  "adcxq %[r1], %[r1]\n\t"                                              \
  "adoxq %[hi], %[r1]\n\t"                                              \
  "movq 8(%[a]), %%rdx\n\t"                                             \
  "mulxq %%rdx, %[lo], %[hi]\n\t"                                       \
  "adcxq %[r2], %[r2]\n\t"                                              \
  "adoxq %[lo], %[r2]\n\t"                                              \
  "adcxq %[r3], %[r3]\n\t"                                              \
  "adoxq %[hi], %[r3]\n\t"                                              \
  "movq 16(%[a]), %%rdx\n\t"                                            \
  "mulxq %%rdx, %[lo], %[hi]\n\t"                                       \
  "adcxq %[r4], %[r4]\n\t"                                              \
  "adoxq %[lo], %[r4]\n\t"                                              \
  "adcxq %[r5], %[r5]\n\t"                                              \
  "adoxq %[hi], %[r5]\n\t"                                              \
  "movq 24(%[a]), %%rdx\n\t"                                            \
  "mulxq %%rdx, %[lo], %[hi]\n\t"                                       \
  "adcxq %[r6], %[r6]\n\t"                                              \
  "adoxq %[lo], %[r6]\n\t"                                              \
  "adcxq %[r7], %[r7]\n\t"                                              \
  "adoxq %[hi], %[r7]\n\t"

// mul: rows and REDC steps interleaved over the rotating r0..r4; the
// result lands in r4, r0, r1, r2 with the carry in r3.
#define ARGUS_ADX_MUL(STEP, FINAL)                                    \
  std::uint64_t r0, r1, r2, r3, r4, lo, hi, dx;                       \
  const std::uint64_t* ap = a.w.data();                               \
  const std::uint64_t* bp = b.w.data();                               \
  __asm__(ARGUS_ADX_ROW0                                              \
          STEP("r0", "r1", "r2", "r3", ARGUS_TAIL_INTO("r0", "r4"))   \
          ARGUS_ADX_ROW("8", "r1", "r2", "r3", "r4", "r0")            \
          STEP("r1", "r2", "r3", "r4", ARGUS_TAIL_INTO("r1", "r0"))   \
          ARGUS_ADX_ROW("16", "r2", "r3", "r4", "r0", "r1")           \
          STEP("r2", "r3", "r4", "r0", ARGUS_TAIL_INTO("r2", "r1"))   \
          ARGUS_ADX_ROW("24", "r3", "r4", "r0", "r1", "r2")           \
          STEP("r3", "r4", "r0", "r1", ARGUS_TAIL_INTO("r3", "r2"))   \
          FINAL("r4", "r0", "r1", "r2", "r3", "a", "b")               \
          : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2),           \
            [r3] "=&r"(r3), [r4] "=&r"(r4), [lo] "=&r"(lo),           \
            [hi] "=&r"(hi), "=&d"(dx), [a] "+r"(ap), [b] "+r"(bp)     \
          :                                                           \
          : "cc", "memory");                                          \
  return Fe<4>{{r4, r0, r1, r2}}

// sqr: the eight-word square, then the four REDC steps on the low half
// alone (r0..r3 rotate into words 4..7), the high half r4..r7 added with
// its carry in r4 (the sum stays below 2p), and the final subtraction.
#define ARGUS_ADX_SQR(STEP, FINAL)                                     \
  std::uint64_t r0, r1, r2, r3, r4, r5, r6, r7, lo, hi, dx;            \
  const std::uint64_t* ap = a.w.data();                                \
  __asm__(ARGUS_ADX_SQR_WIDE                                           \
          STEP("r0", "r1", "r2", "r3", ARGUS_TAIL_FRESH("r0"))         \
          STEP("r1", "r2", "r3", "r0", ARGUS_TAIL_FRESH("r1"))         \
          STEP("r2", "r3", "r0", "r1", ARGUS_TAIL_FRESH("r2"))         \
          STEP("r3", "r0", "r1", "r2", ARGUS_TAIL_FRESH("r3"))         \
          "addq %[r4], %[r0]\n\t"                                      \
          "adcq %[r5], %[r1]\n\t"                                      \
          "adcq %[r6], %[r2]\n\t"                                      \
          "adcq %[r7], %[r3]\n\t"                                      \
          "movl $0, %k[r4]\n\t"                                        \
          "adcq $0, %[r4]\n\t"                                         \
          FINAL("r0", "r1", "r2", "r3", "r4", "r5", "r6")              \
          : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2),            \
            [r3] "=&r"(r3), [r4] "=&r"(r4), [r5] "=&r"(r5),            \
            [r6] "=&r"(r6), [r7] "=&r"(r7), [lo] "=&r"(lo),            \
            [hi] "=&r"(hi), "=&d"(dx), [a] "+r"(ap)                    \
          :                                                            \
          : "cc", "memory");                                           \
  return Fe<4>{{r0, r1, r2, r3}}

/// Montgomery a * b * 2^-256 mod P-256, for a, b < p. Needs ADX and BMI2.
[[gnu::always_inline]] inline Fe<4> mul_p256_adx(const Fe<4>& a, const Fe<4>& b) {
  ARGUS_ADX_MUL(ARGUS_P256_STEP, ARGUS_P256_FINAL);
}
/// Montgomery a^2 * 2^-256 mod P-256, for a < p. Needs ADX and BMI2.
[[gnu::always_inline]] inline Fe<4> sqr_p256_adx(const Fe<4>& a) {
  ARGUS_ADX_SQR(ARGUS_P256_STEP, ARGUS_P256_FINAL);
}
/// Montgomery a * b * 2^-256 mod P-224, for a, b < p. Needs ADX and BMI2.
[[gnu::always_inline]] inline Fe<4> mul_p224_adx(const Fe<4>& a, const Fe<4>& b) {
  ARGUS_ADX_MUL(ARGUS_P224_STEP, ARGUS_P224_FINAL);
}
/// Montgomery a^2 * 2^-256 mod P-224, for a < p. Needs ADX and BMI2.
[[gnu::always_inline]] inline Fe<4> sqr_p224_adx(const Fe<4>& a) {
  ARGUS_ADX_SQR(ARGUS_P224_STEP, ARGUS_P224_FINAL);
}

#undef ARGUS_P256_STEP
#undef ARGUS_P224_STEP
#undef ARGUS_P256_FINAL
#undef ARGUS_P224_FINAL
#undef ARGUS_ADX_ROW0
#undef ARGUS_ADX_ROW
#undef ARGUS_ADX_SQR_WIDE
#undef ARGUS_ADX_MUL
#undef ARGUS_ADX_SQR
#undef ARGUS_TAIL_INTO
#undef ARGUS_TAIL_FRESH
#endif  // ARGUS_FIELD_ADX

/// (a + b) mod p for a, b < p.
template <std::size_t N>
inline Fe<N> add(const Fe<N>& a, const Fe<N>& b, const Fe<N>& p) {
  std::uint64_t s[N];
  std::uint64_t carry = 0;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) s[j] = addc(a.w[j], b.w[j], carry, carry);
  return final_sub<N>(s, carry, p);
}

/// (a - b) mod p for a, b < p.
template <std::size_t N>
inline Fe<N> sub(const Fe<N>& a, const Fe<N>& b, const Fe<N>& p) {
  std::uint64_t d[N];
  const std::uint64_t mask = 0 - sub_words<N>(d, a.w.data(), b.w.data());
  // On a borrow, a - b + 2^(64N) + p wraps back to a - b + p.
  Fe<N> r;
  std::uint64_t carry = 0;
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) {
    r.w[j] = addc(d[j], p.w[j] & mask, carry, carry);
  }
  return r;
}

/// (-a) mod p for a < p.
template <std::size_t N>
inline Fe<N> neg(const Fe<N>& a, const Fe<N>& p) {
  const std::uint64_t any = !is_zero<N>(a);
  // p - a, forced to zero when a == 0 (the result must stay below p).
  const std::uint64_t mask = 0 - any;
  Fe<N> r;
  sub_words<N>(r.w.data(), p.w.data(), a.w.data());
#pragma GCC unroll 9
  for (std::size_t j = 0; j < N; ++j) r.w[j] &= mask;
  return r;
}

/// -n^{-1} mod 2^64 via Newton iteration (n odd).
inline std::uint64_t neg_inv64(std::uint64_t n) {
  std::uint64_t x = n;  // correct to 3 bits
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;
  return ~x + 1;
}

}  // namespace fe

/// Which Montgomery kernels a field uses: the generic REDC, a NIST
/// prime's shaped REDC, or the same REDC fused into a MULX/ADX kernel.
enum class Redc { kGeneric, kP256, kP224, kP256Adx, kP224Adx };

/// Name of a field's kernel, as the benches print it.
constexpr const char* redc_name(Redc r) {
  switch (r) {
    case Redc::kGeneric: return "generic";
    case Redc::kP256: return "p256-portable";
    case Redc::kP224: return "p224-portable";
    case Redc::kP256Adx: return "p256-mulx-adx";
    case Redc::kP224Adx: return "p224-mulx-adx";
  }
  return "?";
}

/// A prime field of N words in Montgomery form (R = 2^(64N)). The EC
/// code's field type: every operation inlines into the point formulas.
template <std::size_t N, Redc R = Redc::kGeneric>
class FieldT {
 public:
  static constexpr std::size_t kWords = N;
  static constexpr Redc kRedc = R;
  using Elem = Fe<N>;

  static constexpr bool kP256Shape = R == Redc::kP256 || R == Redc::kP256Adx;
  static constexpr bool kP224Shape = R == Redc::kP224 || R == Redc::kP224Adx;
  static constexpr bool kAdx = R == Redc::kP256Adx || R == Redc::kP224Adx;
#if !defined(ARGUS_FIELD_ADX)
  static_assert(!kAdx, "the MULX/ADX kernels are x86-64 only");
#endif

  explicit FieldT(const UInt& p) : p_(fe::from_uint<N>(p)) {
    if (p.word_count() != N || !p.is_odd()) {
      throw std::invalid_argument("FieldT: modulus width mismatch");
    }
    if constexpr (kP256Shape) {
      if (p_ != fe::kP256) throw std::invalid_argument("FieldT: not P-256");
    }
    if constexpr (kP224Shape) {
      if (p_ != fe::kP224) throw std::invalid_argument("FieldT: not P-224");
    }
    n0inv_ = fe::neg_inv64(p_.w[0]);
    // R mod p and R^2 mod p by repeated doubling from 1.
    Elem r = fe::from_uint<N>(UInt::one());
    for (std::size_t i = 0; i < 64 * N; ++i) r = add(r, r);
    one_ = r;
    for (std::size_t i = 0; i < 64 * N; ++i) r = add(r, r);
    rr_ = r;
  }

  /// 1 in Montgomery form (R mod p).
  [[nodiscard]] const Elem& one() const { return one_; }

  [[nodiscard]] Elem mul(const Elem& a, const Elem& b) const {
#if defined(ARGUS_FIELD_ADX)
    if constexpr (R == Redc::kP256Adx) return fe::mul_p256_adx(a, b);
    if constexpr (R == Redc::kP224Adx) return fe::mul_p224_adx(a, b);
#endif
    std::uint64_t t[2 * N];
    fe::mul_wide<N>(t, a, b);
    return reduce(t);
  }
  [[nodiscard]] Elem sqr(const Elem& a) const {
#if defined(ARGUS_FIELD_ADX)
    if constexpr (R == Redc::kP256Adx) return fe::sqr_p256_adx(a);
    if constexpr (R == Redc::kP224Adx) return fe::sqr_p224_adx(a);
#endif
    std::uint64_t t[2 * N];
    fe::sqr_wide<N>(t, a);
    return reduce(t);
  }
  [[nodiscard]] Elem add(const Elem& a, const Elem& b) const {
    return fe::add<N>(a, b, p_);
  }
  [[nodiscard]] Elem sub(const Elem& a, const Elem& b) const {
    return fe::sub<N>(a, b, p_);
  }
  [[nodiscard]] Elem neg(const Elem& a) const { return fe::neg<N>(a, p_); }

  /// x (any value below p) into Montgomery form, and back.
  [[nodiscard]] Elem to_mont(const UInt& x) const {
    return mul(fe::from_uint<N>(x), rr_);
  }
  [[nodiscard]] UInt from_mont(const Elem& x) const {
    Elem one{};
    one.w[0] = 1;
    return fe::to_uint<N>(mul(x, one));
  }

  /// a^e for a in Montgomery form (4-bit fixed window).
  [[nodiscard]] Elem pow(const Elem& a, const UInt& e) const {
    Elem table[16];
    table[0] = one_;
    for (int i = 1; i < 16; ++i) table[i] = mul(table[i - 1], a);
    Elem r = one_;
    const std::size_t nibbles = (e.bit_length() + 3) / 4;
    for (std::size_t i = nibbles; i-- > 0;) {
      if (i != nibbles - 1) r = sqr(sqr(sqr(sqr(r))));
      const std::size_t nib = (e.w[i / 16] >> ((i % 16) * 4)) & 0xf;
      if (nib != 0) r = mul(r, table[nib]);
    }
    return r;
  }
  /// Inverse of a nonzero a by Fermat (p is prime).
  [[nodiscard]] Elem inv(const Elem& a) const {
    return pow(a, crypto::sub(fe::to_uint<N>(p_), UInt::from_u64(2)));
  }

 private:
  [[nodiscard]] Elem reduce(std::uint64_t (&t)[2 * N]) const {
    if constexpr (kP256Shape) {
      return fe::redc_p256(t);
    } else if constexpr (kP224Shape) {
      return fe::redc_p224(t);
    } else {
      return fe::redc<N>(t, p_, n0inv_);
    }
  }

  Elem p_;
  std::uint64_t n0inv_ = 0;
  Elem one_{};
  Elem rr_{};
};

using FieldP224 = FieldT<4, Redc::kP224>;
using FieldP256 = FieldT<4, Redc::kP256>;
#if defined(ARGUS_FIELD_ADX)
using FieldP224Adx = FieldT<4, Redc::kP224Adx>;
using FieldP256Adx = FieldT<4, Redc::kP256Adx>;
#endif
using FieldP384 = FieldT<6>;
using FieldP521 = FieldT<9>;

}  // namespace argus::crypto
