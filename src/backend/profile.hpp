// Attribute profiles (PROF in the paper).
//
// A subject PROF lists her non-sensitive attributes; an object PROF lists
// its non-sensitive attributes plus the provided functions (the service
// information). PROFs are signed by the admin and cannot be forged or
// altered (§IV-A). Serialization pads to a 200-byte minimum, the paper's
// measured average PROF size (§IX-A), so message-size accounting matches.
#pragma once

#include <string>
#include <vector>

#include "backend/attributes.hpp"
#include "crypto/cert.hpp"

namespace argus::backend {

struct Profile {
  std::string entity_id;
  crypto::EntityRole role = crypto::EntityRole::kSubject;
  std::string variant_tag;  // which PROF variant, e.g. "managers", "default"
  AttributeMap attributes;  // non-sensitive only
  std::vector<std::string> services;  // object function list
  Bytes signature;                    // admin ECDSA over tbs()

  static constexpr std::size_t kMinWireSize = 200;  // paper's average

  [[nodiscard]] Bytes tbs() const;
  [[nodiscard]] Bytes serialize() const;
  static std::optional<Profile> parse(ByteSpan data);
};

void sign_profile(const crypto::EcGroup& group, const crypto::UInt& admin_priv,
                  Profile& prof);
bool verify_profile(const crypto::EcGroup& group,
                    const crypto::EcPoint& admin_pub, const Profile& prof);
/// The same check through `cache`: the admin signature runs only when this
/// exact profile has not passed before.
bool verify_profile(const crypto::EcGroup& group,
                    const crypto::EcPoint& admin_pub, const Profile& prof,
                    crypto::VerifiedCache& cache);

}  // namespace argus::backend
