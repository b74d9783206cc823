#include "crypto/ec.hpp"

#include <stdexcept>

#include "crypto/ec_precomp.hpp"
#include "crypto/ec_typed.hpp"
#include "obs/prof.hpp"

namespace argus::crypto {

namespace {

EcFastPaths g_fast_paths{};

#if defined(ARGUS_FIELD_ADX)
/// Whether this CPU runs the MULX/ADX field kernels: asked once per
/// process, the way the SHA-256 backend is chosen (sha256.cpp).
bool cpu_has_mulx_adx() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
  }();
  return has;
}
#endif

}  // namespace

const EcFastPaths& ec_fast_paths() { return g_fast_paths; }

void set_ec_fast_paths(const EcFastPaths& paths) { g_fast_paths = paths; }

int strength_bits(Strength s) {
  switch (s) {
    case Strength::b112: return 112;
    case Strength::b128: return 128;
    case Strength::b192: return 192;
    case Strength::b256: return 256;
  }
  return 0;
}

namespace {

CurveParams make_params(std::string name, Strength strength,
                        std::string_view p, std::string_view b,
                        std::string_view gx, std::string_view gy,
                        std::string_view n, std::size_t field_bytes) {
  CurveParams cp;
  cp.name = std::move(name);
  cp.strength = strength;
  cp.p = UInt::from_hex(p);
  cp.a = sub(cp.p, UInt::from_u64(3));  // all NIST prime curves use a = -3
  cp.b = UInt::from_hex(b);
  cp.gx = UInt::from_hex(gx);
  cp.gy = UInt::from_hex(gy);
  cp.n = UInt::from_hex(n);
  cp.field_bytes = field_bytes;
  return cp;
}

}  // namespace

const CurveParams& curve_p224() {
  static const CurveParams cp = make_params(
      "P-224", Strength::b112,
      "ffffffffffffffffffffffffffffffff000000000000000000000001",
      "b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4",
      "b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21",
      "bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34",
      "ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d", 28);
  return cp;
}

const CurveParams& curve_p256() {
  static const CurveParams cp = make_params(
      "P-256", Strength::b128,
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
      "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
      "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
      "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551", 32);
  return cp;
}

const CurveParams& curve_p384() {
  static const CurveParams cp = make_params(
      "P-384", Strength::b192,
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
      "ffffffff0000000000000000ffffffff",
      "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875a"
      "c656398d8a2ed19d2a85c8edd3ec2aef",
      "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a38"
      "5502f25dbf55296c3a545e3872760ab7",
      "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c0"
      "0a60b1ce1d7e819d7a431d7c90ea0e5f",
      "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf"
      "581a0db248b0a77aecec196accc52973", 48);
  return cp;
}

const CurveParams& curve_p521() {
  static const CurveParams cp = make_params(
      "P-521", Strength::b256,
      "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
      "ffff",
      "0051953eb9618e1c9a1f929a21a0b68540eea2da725b99b315f3b8b489918ef1"
      "09e156193951ec7e937b1652c0bd3bb1bf073573df883d2c34f1ef451fd46b50"
      "3f00",
      "00c6858e06b70404e9cd9e3ecb662395b4429c648139053fb521f828af606b4d"
      "3dbaa14b5e77efe75928fe1dc127a2ffa8de3348b3c1856a429bf97e7e31c2e5"
      "bd66",
      "011839296a789a3bc0045c8a5fb42c7d1bd998f54449579b446817afbd17273e"
      "662c97ee72995ef42640c550b9013fad0761353c7086a272c24088be94769fd1"
      "6650",
      "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
      "ffa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e913864"
      "09", 66);
  return cp;
}

const CurveParams& curve_for(Strength s) {
  switch (s) {
    case Strength::b112: return curve_p224();
    case Strength::b128: return curve_p256();
    case Strength::b192: return curve_p384();
    case Strength::b256: return curve_p521();
  }
  throw std::invalid_argument("curve_for: bad strength");
}

namespace {

// The frozen pre-pipeline point code behind scalar_mul_reference:
// Jacobian coordinates as full-capacity UInts over the runtime-width
// MontCtx, general-a doubling (dbl-2007-bl) and add-2007-bl. It shares no
// point code with EcGroupT, so the differential tests compare two
// independent implementations.
struct RefJac {
  UInt x, y, z;
};

RefJac ref_identity(const MontCtx& fp) {
  return RefJac{fp.one(), fp.one(), UInt::zero()};
}

RefJac ref_dbl(const MontCtx& fp, const UInt& a_m, const RefJac& p) {
  if (p.z.is_zero() || p.y.is_zero()) return ref_identity(fp);
  const UInt xx = fp.sqr(p.x);
  const UInt yy = fp.sqr(p.y);
  const UInt yyyy = fp.sqr(yy);
  const UInt zz = fp.sqr(p.z);
  UInt s = fp.sqr(fp.add(p.x, yy));
  s = fp.sub(s, xx);
  s = fp.sub(s, yyyy);
  s = fp.add(s, s);
  UInt m = fp.add(fp.add(xx, xx), xx);
  m = fp.add(m, fp.mul(a_m, fp.sqr(zz)));
  UInt t = fp.sqr(m);
  t = fp.sub(t, s);
  t = fp.sub(t, s);
  RefJac r;
  r.x = t;
  UInt y8 = fp.add(yyyy, yyyy);
  y8 = fp.add(y8, y8);
  y8 = fp.add(y8, y8);
  r.y = fp.sub(fp.mul(m, fp.sub(s, t)), y8);
  UInt z3 = fp.sqr(fp.add(p.y, p.z));
  z3 = fp.sub(z3, yy);
  r.z = fp.sub(z3, zz);
  return r;
}

RefJac ref_add(const MontCtx& fp, const UInt& a_m, const RefJac& p,
               const RefJac& q) {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  const UInt z1z1 = fp.sqr(p.z);
  const UInt z2z2 = fp.sqr(q.z);
  const UInt u1 = fp.mul(p.x, z2z2);
  const UInt u2 = fp.mul(q.x, z1z1);
  const UInt s1 = fp.mul(p.y, fp.mul(q.z, z2z2));
  const UInt s2 = fp.mul(q.y, fp.mul(p.z, z1z1));
  if (u1 == u2) {
    if (s1 == s2) return ref_dbl(fp, a_m, p);
    return ref_identity(fp);  // P + (-P)
  }
  const UInt h = fp.sub(u2, u1);
  UInt i = fp.add(h, h);
  i = fp.sqr(i);
  const UInt j = fp.mul(h, i);
  UInt r0 = fp.sub(s2, s1);
  r0 = fp.add(r0, r0);
  const UInt v = fp.mul(u1, i);
  RefJac r;
  r.x = fp.sub(fp.sub(fp.sqr(r0), j), fp.add(v, v));
  UInt s1j = fp.mul(s1, j);
  s1j = fp.add(s1j, s1j);
  r.y = fp.sub(fp.mul(r0, fp.sub(v, r.x)), s1j);
  UInt z3 = fp.sqr(fp.add(p.z, q.z));
  z3 = fp.sub(z3, z1z1);
  z3 = fp.sub(z3, z2z2);
  r.z = fp.mul(z3, h);
  return r;
}

}  // namespace

EcGroup::EcGroup(const CurveParams& params)
    : params_(params), fp_(params.p), fn_(params.n) {
  a_m_ = fp_.to_mont(params_.a);
  // One typed group per field shape: the two 4-word NIST primes get
  // their shift-and-add reductions (inside MULX/ADX kernels when the CPU
  // has them), the others the generic REDC.
  const std::size_t words = params_.p.word_count();
  if (words == 4 && fe::from_uint<4>(params_.p) == fe::kP224) {
#if defined(ARGUS_FIELD_ADX)
    if (cpu_has_mulx_adx()) {
      typed_ = std::make_unique<EcGroupT<FieldP224Adx>>(params_);
      return;
    }
#endif
    typed_ = std::make_unique<EcGroupT<FieldP224>>(params_);
  } else if (words == 4 && fe::from_uint<4>(params_.p) == fe::kP256) {
#if defined(ARGUS_FIELD_ADX)
    if (cpu_has_mulx_adx()) {
      typed_ = std::make_unique<EcGroupT<FieldP256Adx>>(params_);
      return;
    }
#endif
    typed_ = std::make_unique<EcGroupT<FieldP256>>(params_);
  } else if (words == 6) {
    typed_ = std::make_unique<EcGroupT<FieldP384>>(params_);
  } else if (words == 9) {
    typed_ = std::make_unique<EcGroupT<FieldP521>>(params_);
  } else {
    throw std::invalid_argument("EcGroup: no field kernel for " +
                                params_.name);
  }
}

EcGroup::~EcGroup() = default;

const char* EcGroup::field_kernel() const {
  return visit([](const auto& g) {
    return redc_name(std::decay_t<decltype(g.field())>::kRedc);
  });
}

bool EcGroup::on_curve(const EcPoint& pt) const {
  return visit([&](const auto& g) { return g.on_curve(pt); });
}

EcPoint EcGroup::add(const EcPoint& a, const EcPoint& b) const {
  return visit([&](const auto& g) {
    return g.to_affine(g.jadd(g.to_jac(a), g.to_jac(b)));
  });
}

EcPoint EcGroup::dbl(const EcPoint& a) const {
  return visit([&](const auto& g) { return g.to_affine(g.jdbl(g.to_jac(a))); });
}

EcPoint EcGroup::negate(const EcPoint& a) const {
  if (a.infinity) return a;
  return EcPoint{a.x, submod(UInt::zero(), a.y, params_.p), false};
}

EcPoint EcGroup::scalar_mul(const EcPoint& pt, const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul");
  const UInt kr = mod(k, params_.n);
  if (kr.is_zero() || pt.infinity) return EcPoint::identity();
  return visit(
      [&](const auto& g) { return g.to_affine(g.scalar_mul_ct(pt, kr)); });
}

// The frozen pre-pipeline algorithm: a 4-bit window over a per-call
// table, every doubling through the general-a formula. Differential tests
// byte-compare the fast paths against this.
EcPoint EcGroup::scalar_mul_reference(const EcPoint& pt, const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul");
  const UInt kr = mod(k, params_.n);
  if (kr.is_zero() || pt.infinity) return EcPoint::identity();

  const RefJac base{fp_.to_mont(pt.x), fp_.to_mont(pt.y), fp_.one()};
  RefJac table[16];
  table[0] = ref_identity(fp_);
  table[1] = base;
  for (int i = 2; i < 16; ++i) table[i] = ref_add(fp_, a_m_, table[i - 1], base);

  RefJac acc = ref_identity(fp_);
  const std::size_t bits = kr.bit_length();
  const std::size_t nibbles = (bits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      for (int d = 0; d < 4; ++d) acc = ref_dbl(fp_, a_m_, acc);
    }
    std::size_t nib = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t idx = i * 4 + b;
      if (idx < bits && kr.bit(idx)) nib |= 1u << b;
    }
    if (nib != 0) acc = ref_add(fp_, a_m_, acc, table[nib]);
  }
  if (acc.z.is_zero()) return EcPoint::identity();
  const UInt zinv = fp_.inv(acc.z);
  const UInt zinv2 = fp_.sqr(zinv);
  const UInt zinv3 = fp_.mul(zinv2, zinv);
  return EcPoint{fp_.from_mont(fp_.mul(acc.x, zinv2)),
                 fp_.from_mont(fp_.mul(acc.y, zinv3)), false};
}

EcPoint EcGroup::scalar_mul_base(const UInt& k) const {
  if (!g_fast_paths.fixed_base) return scalar_mul(generator(), k);
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul_base");
  return fixed_base_mul(*this, k);
}

UInt EcGroup::random_scalar(HmacDrbg& rng) const {
  const std::size_t nbytes = (params_.n.bit_length() + 7) / 8;
  for (;;) {
    UInt k = mod(UInt::from_bytes_be(rng.generate(nbytes)), params_.n);
    if (!k.is_zero()) return k;
  }
}

Bytes EcGroup::encode_point(const EcPoint& pt) const {
  if (pt.infinity) return Bytes{0x00};
  Bytes out{0x04};
  append(out, pt.x.to_bytes_be(params_.field_bytes));
  append(out, pt.y.to_bytes_be(params_.field_bytes));
  return out;
}

std::optional<EcPoint> EcGroup::decode_point(ByteSpan data) const {
  if (data.size() == 1 && data[0] == 0x00) return EcPoint::identity();
  if (data.size() != 1 + 2 * params_.field_bytes || data[0] != 0x04) {
    return std::nullopt;
  }
  EcPoint pt;
  pt.x = UInt::from_bytes_be(data.subspan(1, params_.field_bytes));
  pt.y = UInt::from_bytes_be(
      data.subspan(1 + params_.field_bytes, params_.field_bytes));
  pt.infinity = false;
  if (!on_curve(pt)) return std::nullopt;
  return pt;
}

const EcGroup& group_for(Strength s) {
  static const EcGroup g224(curve_p224());
  static const EcGroup g256(curve_p256());
  static const EcGroup g384(curve_p384());
  static const EcGroup g521(curve_p521());
  switch (s) {
    case Strength::b112: return g224;
    case Strength::b128: return g256;
    case Strength::b192: return g384;
    case Strength::b256: return g521;
  }
  throw std::invalid_argument("group_for: bad strength");
}

}  // namespace argus::crypto
