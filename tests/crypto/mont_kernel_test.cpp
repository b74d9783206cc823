// Differential test of the width-templated field kernels against a frozen
// copy of the runtime-width code they replaced: the CIOS loop over the
// modulus's word count with a full-capacity final subtraction, and the
// full-capacity addmod/submod/sub from wide.cpp. Every width 1..9 is
// covered with seeded random moduli (including one at the 575-bit cap)
// and every real modulus in the repository, on edge values plus 10^4
// random operands per modulus — once through MontCtx's runtime-width rows
// and once through the Fe<N> kernels of field.hpp directly, including
// the shift-and-add reductions of the P-256 and P-224 fields and, on a
// CPU with ADX and BMI2, their MULX/ADX kernels (which must also match
// the portable ones bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <string>
#include <vector>

#include "crypto/ec.hpp"
#include "crypto/field.hpp"
#include "crypto/mont.hpp"
#include "crypto/wide.hpp"
#include "pairing/params.hpp"

namespace argus::crypto {
namespace {

using u128 = unsigned __int128;

// ---- Frozen oracle -------------------------------------------------------

UInt oracle_add(const UInt& a, const UInt& b, bool* carry) {
  UInt r;
  u128 c = 0;
  for (std::size_t i = 0; i < kMaxWords; ++i) {
    c += static_cast<u128>(a.w[i]) + b.w[i];
    r.w[i] = static_cast<std::uint64_t>(c);
    c >>= 64;
  }
  if (carry) *carry = c != 0;
  return r;
}

UInt oracle_sub(const UInt& a, const UInt& b) {
  UInt r;
  u128 bw = 0;
  for (std::size_t i = 0; i < kMaxWords; ++i) {
    const u128 ai = a.w[i];
    const u128 need = static_cast<u128>(b.w[i]) + bw;
    if (ai >= need) {
      r.w[i] = static_cast<std::uint64_t>(ai - need);
      bw = 0;
    } else {
      r.w[i] = static_cast<std::uint64_t>((u128{1} << 64) + ai - need);
      bw = 1;
    }
  }
  return r;
}

int oracle_cmp(const UInt& a, const UInt& b) {
  for (std::size_t i = kMaxWords; i-- > 0;) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i] ? -1 : 1;
  }
  return 0;
}

UInt oracle_addmod(const UInt& a, const UInt& b, const UInt& m) {
  bool carry = false;
  UInt r = oracle_add(a, b, &carry);
  if (carry || oracle_cmp(r, m) >= 0) r = oracle_sub(r, m);
  return r;
}

UInt oracle_submod(const UInt& a, const UInt& b, const UInt& m) {
  if (oracle_cmp(a, b) >= 0) return oracle_sub(a, b);
  return oracle_sub(oracle_add(a, m, nullptr), b);
}

UInt oracle_neg(const UInt& a, const UInt& m) {
  return a.is_zero() ? a : oracle_sub(m, a);
}

std::uint64_t oracle_n0inv(std::uint64_t n) {
  std::uint64_t x = n;
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;
  return ~x + 1;
}

UInt oracle_mul(const UInt& a, const UInt& b, const UInt& n) {
  const std::size_t nw = n.word_count();
  const std::uint64_t n0inv = oracle_n0inv(n.w[0]);
  std::uint64_t t[kMaxWords + 2] = {0};
  for (std::size_t i = 0; i < nw; ++i) {
    u128 carry = 0;
    for (std::size_t j = 0; j < nw; ++j) {
      carry += static_cast<u128>(a.w[i]) * b.w[j] + t[j];
      t[j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    carry += t[nw];
    t[nw] = static_cast<std::uint64_t>(carry);
    t[nw + 1] = static_cast<std::uint64_t>(carry >> 64);

    const std::uint64_t m = t[0] * n0inv;
    carry = static_cast<u128>(m) * n.w[0] + t[0];
    carry >>= 64;
    for (std::size_t j = 1; j < nw; ++j) {
      carry += static_cast<u128>(m) * n.w[j] + t[j];
      t[j - 1] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    carry += t[nw];
    t[nw - 1] = static_cast<std::uint64_t>(carry);
    t[nw] = t[nw + 1] + static_cast<std::uint64_t>(carry >> 64);
    t[nw + 1] = 0;
  }
  UInt r;
  for (std::size_t j = 0; j < nw; ++j) r.w[j] = t[j];
  if (nw < kMaxWords) r.w[nw] = t[nw];
  if (oracle_cmp(r, n) >= 0) r = oracle_sub(r, n);
  return r;
}

// ---- Moduli and operands -------------------------------------------------

struct Modulus {
  std::string name;
  UInt n;
};

// Seeded random odd modulus of exactly `words` words (nonzero top word).
UInt random_modulus(std::mt19937_64& rng, std::size_t words, bool top_bit) {
  UInt n;
  for (std::size_t i = 0; i < words; ++i) n.w[i] = rng();
  n.w[0] |= 1;
  if (n.w[words - 1] == 0) n.w[words - 1] = 1;
  if (top_bit) n.w[words - 1] |= std::uint64_t{1} << 63;
  return n;
}

std::vector<Modulus> all_moduli() {
  std::vector<Modulus> out;
  std::mt19937_64 rng(0x6d6f6e74);  // "mont"
  for (std::size_t w = 1; w <= kMaxWords; ++w) {
    // At the cap the top bit must stay clear (575 bits).
    const bool can_fill = w < kMaxWords;
    out.push_back({"rand" + std::to_string(w) + "a",
                   random_modulus(rng, w, false)});
    out.push_back({"rand" + std::to_string(w) + "b",
                   random_modulus(rng, w, can_fill)});
  }
  UInt cap = random_modulus(rng, kMaxWords, false);
  cap.w[kMaxWords - 1] |= std::uint64_t{1} << 62;
  cap.w[kMaxWords - 1] &= ~(std::uint64_t{1} << 63);
  out.push_back({"cap575", cap});
  for (const CurveParams* cp : {&curve_p224(), &curve_p256(), &curve_p384(),
                                &curve_p521()}) {
    out.push_back({cp->name + ".p", cp->p});
    out.push_back({cp->name + ".n", cp->n});
  }
  out.push_back({"pairing.p", pairing::default_params().p});
  out.push_back({"pairing.r", pairing::default_params().r});
  return out;
}

// Uniform value below n.
UInt random_below(std::mt19937_64& rng, const UInt& n) {
  const std::size_t bits = n.bit_length();
  const std::size_t words = n.word_count();
  for (;;) {
    UInt x;
    for (std::size_t i = 0; i < words; ++i) x.w[i] = rng();
    if (bits % 64 != 0) {
      x.w[words - 1] &= (std::uint64_t{1} << (bits % 64)) - 1;
    }
    if (oracle_cmp(x, n) < 0) return x;
  }
}

void expect_high_words_zero(const UInt& v, std::size_t nw, const char* op) {
  for (std::size_t i = nw; i < kMaxWords; ++i) {
    ASSERT_EQ(v.w[i], 0u) << op << " wrote word " << i;
  }
}

void check_pair(const MontCtx& ctx, const UInt& a, const UInt& b) {
  const UInt& n = ctx.modulus();
  const std::size_t nw = ctx.nwords();
  const UInt m = ctx.mul(a, b);
  ASSERT_EQ(m, oracle_mul(a, b, n)) << "mul " << a.to_hex() << " "
                                    << b.to_hex();
  expect_high_words_zero(m, nw, "mul");
  const UInt s = ctx.add(a, b);
  ASSERT_EQ(s, oracle_addmod(a, b, n)) << "add " << a.to_hex() << " "
                                       << b.to_hex();
  expect_high_words_zero(s, nw, "add");
  const UInt d = ctx.sub(a, b);
  ASSERT_EQ(d, oracle_submod(a, b, n)) << "sub " << a.to_hex() << " "
                                       << b.to_hex();
  expect_high_words_zero(d, nw, "sub");
  const UInt g = ctx.neg(a);
  ASSERT_EQ(g, oracle_neg(a, n)) << "neg " << a.to_hex();
  expect_high_words_zero(g, nw, "neg");
}

TEST(MontKernelTest, MatchesFrozenRuntimeWidthOracle) {
  constexpr int kRandomPerModulus = 10000;
  std::mt19937_64 rng(0x6b65726e);  // "kern"
  std::size_t widths_seen = 0;
  for (const Modulus& mod_case : all_moduli()) {
    SCOPED_TRACE(mod_case.name);
    const UInt& n = mod_case.n;
    const MontCtx ctx(n);
    ASSERT_EQ(ctx.nwords(), n.word_count());
    widths_seen |= std::size_t{1} << ctx.nwords();

    // R mod n and R^2 mod n computed without the kernels under test.
    UProd r_full;
    r_full.w[ctx.nwords()] = 1;
    const UInt r1 = mod(r_full, n);
    const UInt r2 = mod(mul_full(r1, r1), n);
    ASSERT_EQ(ctx.one(), r1);

    const std::vector<UInt> edges = {UInt::zero(), mod(UInt::one(), n),
                                     oracle_sub(n, UInt::one()), r1, r2};
    for (const UInt& a : edges) {
      for (const UInt& b : edges) check_pair(ctx, a, b);
    }
    for (int i = 0; i < kRandomPerModulus; ++i) {
      const UInt a = random_below(rng, n);
      const UInt b = (i % 8 == 0) ? a : random_below(rng, n);
      check_pair(ctx, a, b);
      check_pair(ctx, a, edges[static_cast<std::size_t>(i) % edges.size()]);
      if (HasFatalFailure()) return;
    }
  }
  // Every kernel row 1..kMaxWords was exercised.
  EXPECT_EQ(widths_seen, ((std::size_t{1} << (kMaxWords + 1)) - 2));
}

TEST(MontKernelTest, RealModuliPickTheirOwnWidth) {
  EXPECT_EQ(MontCtx(curve_p224().p).nwords(), 4u);
  EXPECT_EQ(MontCtx(curve_p256().p).nwords(), 4u);
  EXPECT_EQ(MontCtx(curve_p384().p).nwords(), 6u);
  EXPECT_EQ(MontCtx(curve_p521().p).nwords(), 9u);
  EXPECT_EQ(MontCtx(pairing::default_params().p).nwords(), 8u);
  EXPECT_EQ(MontCtx(pairing::default_params().r).nwords(), 3u);
}

// ---- Fe<N> kernels ---------------------------------------------------------

// Operands that drive every carry path: the usual edges plus values whose
// words are all-ones or zero in every pattern (reduced below n), and
// 2^(64j) - 1 and n - 2^(64j) for each word j.
std::vector<UInt> edge_operands(const UInt& n) {
  const std::size_t nw = n.word_count();
  UProd r_full;
  r_full.w[nw] = 1;
  const UInt r1 = mod(r_full, n);
  std::vector<UInt> out = {UInt::zero(), mod(UInt::one(), n),
                           oracle_sub(n, UInt::one()), r1,
                           mod(mul_full(r1, r1), n)};
  const std::size_t patterns = std::size_t{1} << std::min<std::size_t>(nw, 6);
  for (std::size_t bits = 1; bits < patterns; ++bits) {
    UInt v;
    for (std::size_t j = 0; j < nw; ++j) {
      v.w[j] = ((bits >> (j % 6)) & 1) ? ~std::uint64_t{0} : 0;
    }
    out.push_back(mod(v, n));
  }
  for (std::size_t j = 0; j < nw; ++j) {
    UInt pow2;
    pow2.w[j] = 1;
    out.push_back(mod(oracle_sub(pow2, UInt::one()), n));
    if (oracle_cmp(pow2, n) < 0) out.push_back(oracle_sub(n, pow2));
  }
  return out;
}

// One operand pair through a typed field F (mul and sqr through F's own
// reduction, add/sub/neg through the shared carry chains).
template <class F>
void check_field_pair(const F& f, const UInt& n, const UInt& a,
                      const UInt& b) {
  constexpr std::size_t N = F::kWords;
  const Fe<N> x = fe::from_uint<N>(a);
  const Fe<N> y = fe::from_uint<N>(b);
  ASSERT_EQ(fe::to_uint<N>(f.mul(x, y)), oracle_mul(a, b, n))
      << "mul " << a.to_hex() << " " << b.to_hex();
  ASSERT_EQ(fe::to_uint<N>(f.sqr(x)), oracle_mul(a, a, n))
      << "sqr " << a.to_hex();
  ASSERT_EQ(fe::to_uint<N>(f.add(x, y)), oracle_addmod(a, b, n))
      << "add " << a.to_hex() << " " << b.to_hex();
  ASSERT_EQ(fe::to_uint<N>(f.sub(x, y)), oracle_submod(a, b, n))
      << "sub " << a.to_hex() << " " << b.to_hex();
  ASSERT_EQ(fe::to_uint<N>(f.neg(x)), oracle_neg(a, n)) << "neg "
                                                        << a.to_hex();
}

template <class F>
void check_field(const UInt& n, std::mt19937_64& rng, int randoms) {
  const F f(n);
  const std::vector<UInt> edges = edge_operands(n);
  for (const UInt& a : edges) {
    for (const UInt& b : edges) {
      check_field_pair(f, n, a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (int i = 0; i < randoms; ++i) {
    const UInt a = random_below(rng, n);
    const UInt b = (i % 8 == 0) ? a : random_below(rng, n);
    check_field_pair(f, n, a, b);
    check_field_pair(f, n, a, edges[static_cast<std::size_t>(i) % edges.size()]);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

template <std::size_t... I>
void check_generic_width(std::size_t nw, const UInt& n, std::mt19937_64& rng,
                         int randoms, std::index_sequence<I...>) {
  // Runtime width -> the FieldT<N> instantiation for it.
  ((nw == I + 1 ? check_field<FieldT<I + 1>>(n, rng, randoms) : void()), ...);
}

TEST(FieldKernelTest, GenericKernelsMatchFrozenOracleEveryWidth) {
  constexpr int kRandomPerModulus = 10000;
  std::mt19937_64 rng(0x6665);  // "fe"
  std::size_t widths_seen = 0;
  for (const Modulus& mod_case : all_moduli()) {
    SCOPED_TRACE(mod_case.name);
    const std::size_t nw = mod_case.n.word_count();
    widths_seen |= std::size_t{1} << nw;
    check_generic_width(nw, mod_case.n, rng, kRandomPerModulus,
                        std::make_index_sequence<kMaxWords>{});
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(widths_seen, ((std::size_t{1} << (kMaxWords + 1)) - 2));
}

TEST(FieldKernelTest, ShapedReductionsMatchFrozenOracle) {
  constexpr int kRandom = 100000;
  std::mt19937_64 rng(0x7368);  // "sh"
  {
    SCOPED_TRACE("P-256");
    check_field<FieldP256>(curve_p256().p, rng, kRandom);
  }
  {
    SCOPED_TRACE("P-224");
    check_field<FieldP224>(curve_p224().p, rng, kRandom);
  }
}

TEST(FieldKernelTest, ShapedFieldsRejectOtherModuli) {
  EXPECT_THROW(FieldP256(curve_p224().p), std::invalid_argument);
  EXPECT_THROW(FieldP224(curve_p256().p), std::invalid_argument);
  EXPECT_THROW(FieldP256(curve_p256().n), std::invalid_argument);
  EXPECT_THROW(FieldP384(curve_p256().p), std::invalid_argument);
}

// ---- MULX/ADX kernels -----------------------------------------------------

#if defined(ARGUS_FIELD_ADX)
bool cpu_runs_adx() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
}

// The ADX field against the frozen oracle (check_field), then against the
// portable field of the same prime bit for bit: mul and sqr on the edge
// operands and on random ones, pow with random exponents, and inv.
template <class Adx, class Portable>
void check_adx_field(const UInt& n, std::mt19937_64& rng, int randoms) {
  check_field<Adx>(n, rng, randoms);
  if (::testing::Test::HasFatalFailure()) return;
  const Adx fa(n);
  const Portable fp(n);
  const std::vector<UInt> edges = edge_operands(n);
  const auto agree = [&](const UInt& a, const UInt& b) {
    const Fe<4> x = fe::from_uint<4>(a);
    const Fe<4> y = fe::from_uint<4>(b);
    ASSERT_EQ(fa.mul(x, y), fp.mul(x, y))
        << "mul " << a.to_hex() << " " << b.to_hex();
    ASSERT_EQ(fa.sqr(x), fp.sqr(x)) << "sqr " << a.to_hex();
  };
  for (const UInt& a : edges) {
    for (const UInt& b : edges) {
      agree(a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (int i = 0; i < randoms; ++i) {
    agree(random_below(rng, n), random_below(rng, n));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int i = 0; i < 64; ++i) {
    const Fe<4> x = fe::from_uint<4>(
        i < static_cast<int>(edges.size()) ? edges[static_cast<std::size_t>(i)]
                                           : random_below(rng, n));
    const UInt e = random_below(rng, n);
    ASSERT_EQ(fa.pow(x, e), fp.pow(x, e)) << "pow " << e.to_hex();
    if (fe::is_zero(x)) continue;
    ASSERT_EQ(fa.inv(x), fp.inv(x));
    ASSERT_EQ(fa.mul(fa.inv(x), x), fa.one());
  }
  ASSERT_EQ(fa.one(), fp.one());
}
#endif

TEST(FieldKernelTest, AdxKernelsMatchPortableAndOracle) {
#if defined(ARGUS_FIELD_ADX)
  if (!cpu_runs_adx()) GTEST_SKIP() << "this CPU lacks ADX or BMI2";
  constexpr int kRandom = 100000;
  std::mt19937_64 rng(0x616478);  // "adx"
  {
    SCOPED_TRACE("P-256");
    check_adx_field<FieldP256Adx, FieldP256>(curve_p256().p, rng, kRandom);
  }
  if (HasFatalFailure()) return;
  {
    SCOPED_TRACE("P-224");
    check_adx_field<FieldP224Adx, FieldP224>(curve_p224().p, rng, kRandom);
  }
  EXPECT_THROW(FieldP256Adx(curve_p224().p), std::invalid_argument);
  EXPECT_THROW(FieldP224Adx(curve_p256().p), std::invalid_argument);
#else
  GTEST_SKIP() << "no MULX/ADX kernels in this build (not x86-64)";
#endif
}

TEST(FieldKernelTest, MontgomeryRoundTripAndInverse) {
  // to_mont/from_mont/inv on every curve field, against MontCtx.
  for (const CurveParams* cp : {&curve_p224(), &curve_p256(), &curve_p384(),
                                &curve_p521()}) {
    SCOPED_TRACE(cp->name);
    const MontCtx ctx(cp->p);
    std::mt19937_64 rng(0x696e76);  // "inv"
    const auto run = [&](const auto& f) {
      constexpr std::size_t N = std::decay_t<decltype(f)>::kWords;
      for (int i = 0; i < 64; ++i) {
        UInt a = random_below(rng, cp->p);
        if (a.is_zero()) a = UInt::one();
        const Fe<N> am = f.to_mont(a);
        ASSERT_EQ(fe::to_uint<N>(am), ctx.to_mont(a));
        ASSERT_EQ(f.from_mont(am), a);
        ASSERT_EQ(fe::to_uint<N>(f.inv(am)), ctx.inv(ctx.to_mont(a)));
        ASSERT_EQ(f.mul(f.inv(am), am), f.one());
      }
    };
    if (cp == &curve_p224()) run(FieldP224(cp->p));
    if (cp == &curve_p256()) run(FieldP256(cp->p));
    if (cp == &curve_p384()) run(FieldP384(cp->p));
    if (cp == &curve_p521()) run(FieldP521(cp->p));
  }
}

}  // namespace
}  // namespace argus::crypto
