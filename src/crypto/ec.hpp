// Short-Weierstrass elliptic-curve groups over prime fields.
//
// Supplies the four NIST curves the paper's strength sweep uses
// (Fig 6(a)): P-224 (112-bit strength), P-256 (128), P-384 (192),
// P-521 (256). Internally points are Jacobian-projective in Montgomery
// form; the public API exposes affine points and byte encodings
// (uncompressed SEC1: 0x04 || X || Y).
//
// Two scalar-multiplication paths exist. `scalar_mul_reference` is the
// frozen pre-pipeline algorithm (general-a doubling, per-call window
// table) that the differential tests use as the oracle. The production
// paths — comb tables behind `scalar_mul_base`, per-key window tables and
// Shamir's trick in ec_precomp.* — are bit-for-bit drop-ins: affine
// results are unique, and the specialised a = -3 doubling provably yields
// the identical Jacobian representative, so golden digests cannot move.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/mont.hpp"
#include "crypto/wide.hpp"

namespace argus::crypto {

/// Security strength in bits, as the paper sweeps it.
enum class Strength { b112, b128, b192, b256 };

[[nodiscard]] int strength_bits(Strength s);

struct CurveParams {
  std::string name;
  Strength strength;
  UInt p;       // field prime
  UInt a;       // curve coefficient a (NIST curves: p - 3)
  UInt b;       // curve coefficient b
  UInt gx, gy;  // base point
  UInt n;       // group order (prime)
  std::size_t field_bytes;  // serialized coordinate size
};

const CurveParams& curve_p224();
const CurveParams& curve_p256();
const CurveParams& curve_p384();
const CurveParams& curve_p521();
const CurveParams& curve_for(Strength s);

/// Affine point; `infinity` marks the identity element.
struct EcPoint {
  UInt x, y;
  bool infinity = false;

  static EcPoint identity() { return EcPoint{{}, {}, true}; }
  friend bool operator==(const EcPoint&, const EcPoint&) = default;
};

/// Runtime switches for the precomputed fast paths. All default on; every
/// fast path is bit-for-bit equivalent to the reference path, so flipping
/// these changes speed only. Benches flip them off to measure the
/// pre-pipeline baseline. Not thread-safe: set before spawning workers
/// (tests/benches only — production leaves the defaults).
struct EcFastPaths {
  bool fixed_base = true;     // comb tables behind scalar_mul_base
  bool fast_double = true;    // a = -3 specialised Jacobian doubling
  bool shamir_verify = true;  // fused u1*G + u2*Q inside ecdsa_verify
  bool precomp_cache = true;  // per-public-key window tables (LRU)
};
[[nodiscard]] const EcFastPaths& ec_fast_paths();
void set_ec_fast_paths(const EcFastPaths& paths);

struct EcFixedBaseTable;  // ec_precomp.hpp

class EcGroup {
 public:
  explicit EcGroup(const CurveParams& params);
  ~EcGroup();
  EcGroup(const EcGroup&) = delete;
  EcGroup& operator=(const EcGroup&) = delete;

  [[nodiscard]] const CurveParams& params() const { return params_; }
  [[nodiscard]] const MontCtx& field() const { return fp_; }
  [[nodiscard]] const MontCtx& order() const { return fn_; }
  [[nodiscard]] EcPoint generator() const {
    return EcPoint{params_.gx, params_.gy, false};
  }

  [[nodiscard]] bool on_curve(const EcPoint& pt) const;
  [[nodiscard]] EcPoint add(const EcPoint& a, const EcPoint& b) const;
  [[nodiscard]] EcPoint dbl(const EcPoint& a) const;
  [[nodiscard]] EcPoint negate(const EcPoint& a) const;
  [[nodiscard]] EcPoint scalar_mul(const EcPoint& pt, const UInt& k) const;
  [[nodiscard]] EcPoint scalar_mul_base(const UInt& k) const;

  /// The frozen pre-pipeline algorithm (general-a doubling, per-call
  /// window table): the differential-test oracle and the toggled-off
  /// baseline the throughput bench compares against.
  [[nodiscard]] EcPoint scalar_mul_reference(const EcPoint& pt,
                                             const UInt& k) const;

  /// Lift an x coordinate to a curve point (one of the two roots; which
  /// one is unspecified — batch verification handles both signs).
  /// nullopt when x^3 + ax + b is a non-residue.
  [[nodiscard]] std::optional<EcPoint> lift_x(const UInt& x) const;

  /// Uniform scalar in [1, n-1].
  [[nodiscard]] UInt random_scalar(HmacDrbg& rng) const;

  /// SEC1 uncompressed encoding: 0x04 || X || Y (2*field_bytes+1 total).
  [[nodiscard]] Bytes encode_point(const EcPoint& pt) const;
  /// Decode and validate (on-curve check). nullopt on malformed/invalid.
  [[nodiscard]] std::optional<EcPoint> decode_point(ByteSpan data) const;

  // -- Jacobian kernel ------------------------------------------------
  // Exposed for the precomputation/batch pipeline in ec_precomp.*; the
  // affine API above is the stable surface. All coordinates are in
  // Montgomery form; z == 0 marks the identity.

  struct Jacobian {
    UInt x, y, z;
  };
  /// Affine point in Montgomery form — the storage format for precomputed
  /// tables (mixed addition skips all Z2 work). Never the identity.
  struct AffM {
    UInt x, y;
  };

  [[nodiscard]] Jacobian jac_identity() const {
    return Jacobian{fp_.one(), fp_.one(), UInt::zero()};
  }
  [[nodiscard]] Jacobian to_jacobian(const EcPoint& pt) const;
  [[nodiscard]] EcPoint to_affine(const Jacobian& pt) const;
  [[nodiscard]] Jacobian jneg(const Jacobian& p) const {
    return Jacobian{p.x, fp_.neg(p.y), p.z};
  }
  /// Doubling: dispatches to the a = -3 formula when enabled (provably
  /// the same representative as the general formula, so bit-identical).
  [[nodiscard]] Jacobian jdbl(const Jacobian& p) const;
  /// The general-a dbl-2007-bl formula the reference path is frozen on.
  [[nodiscard]] Jacobian jdbl_generic(const Jacobian& p) const;
  [[nodiscard]] Jacobian jadd(const Jacobian& p, const Jacobian& q) const;
  /// Mixed addition P + Q with Q affine (madd, Z2 = 1): same Jacobian
  /// representative as jadd on the Z2 = 1 operand, ~40% cheaper.
  [[nodiscard]] Jacobian jadd_mixed(const Jacobian& p, const AffM& q) const;

  /// Lazily built comb table for the generator (thread-safe, built once
  /// per group on first fixed-base multiplication).
  [[nodiscard]] const EcFixedBaseTable& fixed_base_table() const;

 private:
  CurveParams params_;
  MontCtx fp_;
  MontCtx fn_;
  UInt a_m_;  // curve a in Montgomery form
  UInt b_m_;
  bool a_is_minus3_ = false;
  mutable std::once_flag fixed_base_once_;
  mutable std::unique_ptr<EcFixedBaseTable> fixed_base_;
};

/// Shared per-strength group instances (construction is nontrivial).
const EcGroup& group_for(Strength s);

}  // namespace argus::crypto
