// Short-Weierstrass elliptic-curve groups over prime fields.
//
// Supplies the four NIST curves the paper's strength sweep uses
// (Fig 6(a)): P-224 (112-bit strength), P-256 (128), P-384 (192),
// P-521 (256). The public API exposes affine points and byte encodings
// (uncompressed SEC1: 0x04 || X || Y). Each call dispatches once to the
// curve's width-typed group EcGroupT<F> (ec_typed.hpp), whose points are
// Jacobian/affine-Montgomery over a field element of 4, 6 or 9 words.
//
// Two scalar-multiplication paths exist. `scalar_mul_reference` is the
// frozen pre-pipeline algorithm that the differential tests use as the
// oracle. The production paths — the masked ladder behind `scalar_mul`,
// comb tables behind `scalar_mul_base`, per-key comb tables and
// Shamir's trick — are bit-for-bit drop-ins: affine results are unique,
// so golden digests cannot move.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "crypto/drbg.hpp"
#include "crypto/field.hpp"
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
  bool precomp_cache = true;  // per-public-key comb tables (LRU)
};
[[nodiscard]] const EcFastPaths& ec_fast_paths();
void set_ec_fast_paths(const EcFastPaths& paths);

template <class F>
class EcGroupT;  // ec_typed.hpp

class EcGroup {
 public:
  explicit EcGroup(const CurveParams& params);
  ~EcGroup();
  EcGroup(const EcGroup&) = delete;
  EcGroup& operator=(const EcGroup&) = delete;

  [[nodiscard]] const CurveParams& params() const { return params_; }
  [[nodiscard]] const MontCtx& order() const { return fn_; }
  [[nodiscard]] EcPoint generator() const {
    return EcPoint{params_.gx, params_.gy, false};
  }

  [[nodiscard]] bool on_curve(const EcPoint& pt) const;
  [[nodiscard]] EcPoint add(const EcPoint& a, const EcPoint& b) const;
  [[nodiscard]] EcPoint dbl(const EcPoint& a) const;
  [[nodiscard]] EcPoint negate(const EcPoint& a) const;
  /// k * P by the masked signed-digit ladder (ec_typed.hpp): the route
  /// ECDH's private scalar takes.
  [[nodiscard]] EcPoint scalar_mul(const EcPoint& pt, const UInt& k) const;
  /// k * G by the generator's comb table (direct-indexed, not masked).
  [[nodiscard]] EcPoint scalar_mul_base(const UInt& k) const;

  /// The frozen pre-pipeline algorithm (general-a doubling, per-call
  /// 4-bit window table, runtime-width MontCtx arithmetic): the
  /// differential-test oracle. It shares no point code with the typed
  /// paths.
  [[nodiscard]] EcPoint scalar_mul_reference(const EcPoint& pt,
                                             const UInt& k) const;

  /// Uniform scalar in [1, n-1].
  [[nodiscard]] UInt random_scalar(HmacDrbg& rng) const;

  /// SEC1 uncompressed encoding: 0x04 || X || Y (2*field_bytes+1 total).
  [[nodiscard]] Bytes encode_point(const EcPoint& pt) const;
  /// Decode and validate (on-curve check). nullopt on malformed/invalid.
  [[nodiscard]] std::optional<EcPoint> decode_point(ByteSpan data) const;

  /// The field kernel this group's typed arithmetic runs on (redc_name):
  /// the MULX/ADX one for P-256 and P-224 when the CPU has ADX and BMI2.
  [[nodiscard]] const char* field_kernel() const;

  /// Run `fn` on this curve's width-typed group (EcGroupT<F>&, defined in
  /// ec_typed.hpp, which a caller must include): one dispatch per call.
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit(
        [&fn](const auto& g) -> decltype(auto) { return fn(*g); }, typed_);
  }

 private:
  CurveParams params_;
  MontCtx fp_;
  MontCtx fn_;
  UInt a_m_;  // curve a in Montgomery form (reference path)
  std::variant<std::unique_ptr<EcGroupT<FieldP224>>,
               std::unique_ptr<EcGroupT<FieldP256>>,
#if defined(ARGUS_FIELD_ADX)
               std::unique_ptr<EcGroupT<FieldP224Adx>>,
               std::unique_ptr<EcGroupT<FieldP256Adx>>,
#endif
               std::unique_ptr<EcGroupT<FieldP384>>,
               std::unique_ptr<EcGroupT<FieldP521>>>
      typed_;
};

/// Shared per-strength group instances (construction is nontrivial).
const EcGroup& group_for(Strength s);

}  // namespace argus::crypto
