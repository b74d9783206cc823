#include "crypto/ec.hpp"

#include <stdexcept>

#include "crypto/ec_precomp.hpp"
#include "obs/prof.hpp"

namespace argus::crypto {

namespace {

EcFastPaths g_fast_paths{};

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

EcGroup::EcGroup(const CurveParams& params)
    : params_(params), fp_(params.p), fn_(params.n) {
  a_m_ = fp_.to_mont(params_.a);
  b_m_ = fp_.to_mont(params_.b);
  a_is_minus3_ = params_.a == crypto::sub(params_.p, UInt::from_u64(3));
}

EcGroup::~EcGroup() = default;

const EcFixedBaseTable& EcGroup::fixed_base_table() const {
  std::call_once(fixed_base_once_, [this] {
    fixed_base_ =
        std::make_unique<EcFixedBaseTable>(build_fixed_base_table(*this));
  });
  return *fixed_base_;
}

bool EcGroup::on_curve(const EcPoint& pt) const {
  if (pt.infinity) return true;
  if (cmp(pt.x, params_.p) >= 0 || cmp(pt.y, params_.p) >= 0) return false;
  const UInt x = fp_.to_mont(pt.x);
  const UInt y = fp_.to_mont(pt.y);
  const UInt lhs = fp_.sqr(y);
  UInt rhs = fp_.mul(fp_.sqr(x), x);
  rhs = fp_.add(rhs, fp_.mul(a_m_, x));
  rhs = fp_.add(rhs, b_m_);
  return lhs == rhs;
}

EcGroup::Jacobian EcGroup::to_jacobian(const EcPoint& pt) const {
  if (pt.infinity) return Jacobian{fp_.one(), fp_.one(), UInt::zero()};
  return Jacobian{fp_.to_mont(pt.x), fp_.to_mont(pt.y), fp_.one()};
}

EcPoint EcGroup::to_affine(const Jacobian& pt) const {
  if (pt.z.is_zero()) return EcPoint::identity();
  const UInt zinv = fp_.inv(pt.z);
  const UInt zinv2 = fp_.sqr(zinv);
  const UInt zinv3 = fp_.mul(zinv2, zinv);
  return EcPoint{fp_.from_mont(fp_.mul(pt.x, zinv2)),
                 fp_.from_mont(fp_.mul(pt.y, zinv3)), false};
}

// Doubling dispatch. The a = -3 specialisation (dbl-2001-b) computes the
// *same Jacobian representative* as the general formula — S = 4XY^2 = 4B,
// M = 3X^2 + aZ^4 = 3(X - Z^2)(X + Z^2) = alpha, and Z3 is the identical
// expression — so switching it on cannot perturb any downstream bytes.
EcGroup::Jacobian EcGroup::jdbl(const Jacobian& p) const {
  if (!a_is_minus3_ || !g_fast_paths.fast_double) return jdbl_generic(p);
  if (p.z.is_zero() || p.y.is_zero()) return jac_identity();
  const UInt delta = fp_.sqr(p.z);
  const UInt gamma = fp_.sqr(p.y);
  const UInt beta = fp_.mul(p.x, gamma);
  // alpha = 3*(X - delta)*(X + delta)
  UInt alpha = fp_.mul(fp_.sub(p.x, delta), fp_.add(p.x, delta));
  alpha = fp_.add(fp_.add(alpha, alpha), alpha);
  const UInt b4 = fp_.add(fp_.add(beta, beta), fp_.add(beta, beta));
  Jacobian r;
  // X3 = alpha^2 - 8*beta
  r.x = fp_.sub(fp_.sqr(alpha), fp_.add(b4, b4));
  // Z3 = (Y + Z)^2 - gamma - delta
  UInt z3 = fp_.sqr(fp_.add(p.y, p.z));
  z3 = fp_.sub(z3, gamma);
  r.z = fp_.sub(z3, delta);
  // Y3 = alpha*(4*beta - X3) - 8*gamma^2
  UInt g8 = fp_.sqr(gamma);
  g8 = fp_.add(g8, g8);
  g8 = fp_.add(g8, g8);
  g8 = fp_.add(g8, g8);
  r.y = fp_.sub(fp_.mul(alpha, fp_.sub(b4, r.x)), g8);
  return r;
}

// dbl-2007-bl (general a), operands in Montgomery form.
EcGroup::Jacobian EcGroup::jdbl_generic(const Jacobian& p) const {
  if (p.z.is_zero() || p.y.is_zero()) {
    return Jacobian{fp_.one(), fp_.one(), UInt::zero()};
  }
  const UInt xx = fp_.sqr(p.x);
  const UInt yy = fp_.sqr(p.y);
  const UInt yyyy = fp_.sqr(yy);
  const UInt zz = fp_.sqr(p.z);
  // S = 2*((X+YY)^2 - XX - YYYY)
  UInt s = fp_.sqr(fp_.add(p.x, yy));
  s = fp_.sub(s, xx);
  s = fp_.sub(s, yyyy);
  s = fp_.add(s, s);
  // M = 3*XX + a*ZZ^2
  UInt m = fp_.add(fp_.add(xx, xx), xx);
  m = fp_.add(m, fp_.mul(a_m_, fp_.sqr(zz)));
  // T = M^2 - 2*S
  UInt t = fp_.sqr(m);
  t = fp_.sub(t, s);
  t = fp_.sub(t, s);
  Jacobian r;
  r.x = t;
  // Y3 = M*(S - T) - 8*YYYY
  UInt y8 = fp_.add(yyyy, yyyy);
  y8 = fp_.add(y8, y8);
  y8 = fp_.add(y8, y8);
  r.y = fp_.sub(fp_.mul(m, fp_.sub(s, t)), y8);
  // Z3 = (Y+Z)^2 - YY - ZZ
  UInt z3 = fp_.sqr(fp_.add(p.y, p.z));
  z3 = fp_.sub(z3, yy);
  r.z = fp_.sub(z3, zz);
  return r;
}

// add-2007-bl, operands in Montgomery form.
EcGroup::Jacobian EcGroup::jadd(const Jacobian& p, const Jacobian& q) const {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  const UInt z1z1 = fp_.sqr(p.z);
  const UInt z2z2 = fp_.sqr(q.z);
  const UInt u1 = fp_.mul(p.x, z2z2);
  const UInt u2 = fp_.mul(q.x, z1z1);
  const UInt s1 = fp_.mul(p.y, fp_.mul(q.z, z2z2));
  const UInt s2 = fp_.mul(q.y, fp_.mul(p.z, z1z1));
  if (u1 == u2) {
    if (s1 == s2) return jdbl(p);
    return Jacobian{fp_.one(), fp_.one(), UInt::zero()};  // P + (-P)
  }
  const UInt h = fp_.sub(u2, u1);
  UInt i = fp_.add(h, h);
  i = fp_.sqr(i);
  const UInt j = fp_.mul(h, i);
  UInt r0 = fp_.sub(s2, s1);
  r0 = fp_.add(r0, r0);
  const UInt v = fp_.mul(u1, i);
  Jacobian r;
  // X3 = r^2 - J - 2*V
  r.x = fp_.sub(fp_.sub(fp_.sqr(r0), j), fp_.add(v, v));
  // Y3 = r*(V - X3) - 2*S1*J
  UInt s1j = fp_.mul(s1, j);
  s1j = fp_.add(s1j, s1j);
  r.y = fp_.sub(fp_.mul(r0, fp_.sub(v, r.x)), s1j);
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
  UInt z3 = fp_.sqr(fp_.add(p.z, q.z));
  z3 = fp_.sub(z3, z1z1);
  z3 = fp_.sub(z3, z2z2);
  r.z = fp_.mul(z3, h);
  return r;
}

// madd (add-2007-bl with Z2 = 1). With Z2 = 1 the general formula's
// Z3 = ((Z1+Z2)^2 - Z1^2 - 1)*H collapses to 2*Z1*H — the same field
// element — and every other intermediate is unchanged, so this produces
// the bit-identical representative jadd would.
EcGroup::Jacobian EcGroup::jadd_mixed(const Jacobian& p, const AffM& q) const {
  if (p.z.is_zero()) return Jacobian{q.x, q.y, fp_.one()};
  const UInt z1z1 = fp_.sqr(p.z);
  const UInt u2 = fp_.mul(q.x, z1z1);
  const UInt s2 = fp_.mul(q.y, fp_.mul(p.z, z1z1));
  if (p.x == u2) {
    if (p.y == s2) return jdbl(p);
    return jac_identity();  // P + (-P)
  }
  const UInt h = fp_.sub(u2, p.x);
  UInt i = fp_.add(h, h);
  i = fp_.sqr(i);
  const UInt j = fp_.mul(h, i);
  UInt r0 = fp_.sub(s2, p.y);
  r0 = fp_.add(r0, r0);
  const UInt v = fp_.mul(p.x, i);
  Jacobian r;
  r.x = fp_.sub(fp_.sub(fp_.sqr(r0), j), fp_.add(v, v));
  UInt s1j = fp_.mul(p.y, j);
  s1j = fp_.add(s1j, s1j);
  r.y = fp_.sub(fp_.mul(r0, fp_.sub(v, r.x)), s1j);
  UInt z3 = fp_.mul(p.z, h);
  r.z = fp_.add(z3, z3);
  return r;
}

EcPoint EcGroup::add(const EcPoint& a, const EcPoint& b) const {
  return to_affine(jadd(to_jacobian(a), to_jacobian(b)));
}

EcPoint EcGroup::dbl(const EcPoint& a) const {
  return to_affine(jdbl(to_jacobian(a)));
}

EcPoint EcGroup::negate(const EcPoint& a) const {
  if (a.infinity) return a;
  return EcPoint{a.x, submod(UInt::zero(), a.y, params_.p), false};
}

EcPoint EcGroup::scalar_mul(const EcPoint& pt, const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul");
  const UInt kr = mod(k, params_.n);
  if (kr.is_zero() || pt.infinity) return EcPoint::identity();

  // 4-bit window; jdbl dispatches to the a = -3 doubling when enabled.
  const Jacobian base = to_jacobian(pt);
  Jacobian table[16];
  table[0] = jac_identity();
  table[1] = base;
  for (int i = 2; i < 16; ++i) table[i] = jadd(table[i - 1], base);

  Jacobian acc = jac_identity();
  const std::size_t bits = kr.bit_length();
  const std::size_t nibbles = (bits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      acc = jdbl(acc);
      acc = jdbl(acc);
      acc = jdbl(acc);
      acc = jdbl(acc);
    }
    std::size_t nib = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t idx = i * 4 + b;
      if (idx < bits && kr.bit(idx)) nib |= 1u << b;
    }
    if (nib != 0) acc = jadd(acc, table[nib]);
  }
  return to_affine(acc);
}

// The frozen pre-pipeline algorithm: identical to scalar_mul except every
// doubling goes through the general-a formula, exactly as before the fast
// paths existed. Differential tests byte-compare the fast paths against
// this, and the throughput bench runs it as the "before" configuration.
EcPoint EcGroup::scalar_mul_reference(const EcPoint& pt, const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul");
  const UInt kr = mod(k, params_.n);
  if (kr.is_zero() || pt.infinity) return EcPoint::identity();

  const Jacobian base = to_jacobian(pt);
  Jacobian table[16];
  table[0] = jac_identity();
  table[1] = base;
  for (int i = 2; i < 16; ++i) table[i] = jadd(table[i - 1], base);

  Jacobian acc = jac_identity();
  const std::size_t bits = kr.bit_length();
  const std::size_t nibbles = (bits + 3) / 4;
  for (std::size_t i = nibbles; i-- > 0;) {
    if (i != nibbles - 1) {
      acc = jdbl_generic(acc);
      acc = jdbl_generic(acc);
      acc = jdbl_generic(acc);
      acc = jdbl_generic(acc);
    }
    std::size_t nib = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      const std::size_t idx = i * 4 + b;
      if (idx < bits && kr.bit(idx)) nib |= 1u << b;
    }
    if (nib != 0) acc = jadd(acc, table[nib]);
  }
  return to_affine(acc);
}

EcPoint EcGroup::scalar_mul_base(const UInt& k) const {
  if (!g_fast_paths.fixed_base) return scalar_mul(generator(), k);
  ARGUS_PROF_SCOPE("crypto.ec.scalar_mul_base");
  return fixed_base_mul(*this, k);
}

std::optional<EcPoint> EcGroup::lift_x(const UInt& x) const {
  if (cmp(x, params_.p) >= 0) return std::nullopt;
  const UInt x_m = fp_.to_mont(x);
  UInt rhs = fp_.mul(fp_.sqr(x_m), x_m);
  rhs = fp_.add(rhs, fp_.mul(a_m_, x_m));
  rhs = fp_.add(rhs, b_m_);
  const auto y_m = fp_.sqrt(rhs);
  if (!y_m) return std::nullopt;
  return EcPoint{x, fp_.from_mont(*y_m), false};
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
