// Public-key certificates (CERT in the paper).
//
// A simplified X.509-shaped structure: subject identity, entity role,
// public key, validity window, serial — signed by the admin's ECDSA key.
// The encoding is padded so that a 128-bit-strength certificate occupies
// exactly 552 bytes on the wire, the size the paper measured for its
// X.509 ECDSA certificates (§IX-A); DER framing overhead is emulated by
// the pad rather than re-implementing ASN.1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/ecdsa.hpp"
#include "crypto/verified_cache.hpp"

namespace argus::crypto {

enum class EntityRole : std::uint8_t { kSubject = 1, kObject = 2, kAdmin = 3 };

struct Certificate {
  std::string subject_id;
  EntityRole role = EntityRole::kSubject;
  Strength strength = Strength::b128;
  Bytes pubkey;  // SEC1 uncompressed point
  std::uint64_t serial = 0;
  std::uint64_t not_before = 0;  // simulation epoch seconds
  std::uint64_t not_after = 0;
  Bytes signature;  // admin ECDSA over tbs()

  /// To-be-signed serialization (everything except the signature).
  [[nodiscard]] Bytes tbs() const;
  /// Inside the validity window at time `now`.
  [[nodiscard]] bool valid_at(std::uint64_t now) const {
    return now >= not_before && now <= not_after;
  }
  /// Full wire encoding (tbs + signature + X.509-emulation pad).
  [[nodiscard]] Bytes serialize() const;
  static std::optional<Certificate> parse(ByteSpan data);

  /// Wire size of a certificate at the given strength (552 B at 128-bit).
  static std::size_t wire_size(Strength s);
};

/// Sign a certificate with the admin key (fills `signature`).
void sign_certificate(const EcGroup& group, const UInt& admin_priv,
                      Certificate& cert);

/// Verify admin signature and validity window at time `now`.
bool verify_certificate(const EcGroup& group, const EcPoint& admin_pub,
                        const Certificate& cert, std::uint64_t now);

/// The same check through `cache`: the validity window is tested on every
/// call, the admin signature only when this exact certificate has not
/// passed before.
bool verify_certificate(const EcGroup& group, const EcPoint& admin_pub,
                        const Certificate& cert, std::uint64_t now,
                        VerifiedCache& cache);

}  // namespace argus::crypto
