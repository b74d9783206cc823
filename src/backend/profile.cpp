#include "backend/profile.hpp"

#include "common/serde.hpp"
#include "crypto/ecdsa.hpp"

namespace argus::backend {

Bytes Profile::tbs() const {
  ByteWriter w;
  w.str(entity_id);
  w.u8(static_cast<std::uint8_t>(role));
  w.str(variant_tag);
  w.bytes16(attributes.serialize());
  w.u16(static_cast<std::uint16_t>(services.size()));
  for (const auto& s : services) w.str(s);
  return w.take();
}

Bytes Profile::serialize() const {
  ByteWriter w;
  w.bytes16(tbs());
  w.bytes16(signature);
  Bytes out = w.take();
  // Pad up to the minimum wire size (u16 pad length + zeros), mirroring
  // the fixed-size framing real deployments use for profiles.
  const std::size_t body = out.size() + 2;
  const std::size_t pad = body >= kMinWireSize ? 0 : kMinWireSize - body;
  ByteWriter tail;
  tail.u16(static_cast<std::uint16_t>(pad));
  append(out, tail.data());
  out.insert(out.end(), pad, 0);
  return out;
}

std::optional<Profile> Profile::parse(ByteSpan data) {
  try {
    ByteReader r(data);
    const Bytes body = r.bytes16();
    Profile prof;
    prof.signature = r.bytes16();
    const std::size_t pad = r.u16();
    if (r.remaining() != pad) return std::nullopt;

    ByteReader br(body);
    prof.entity_id = br.str();
    prof.role = static_cast<crypto::EntityRole>(br.u8());
    prof.variant_tag = br.str();
    const Bytes attrs = br.bytes16();
    const auto parsed_attrs = AttributeMap::parse(attrs);
    if (!parsed_attrs) return std::nullopt;
    prof.attributes = *parsed_attrs;
    const std::uint16_t nserv = br.u16();
    for (std::uint16_t i = 0; i < nserv; ++i) prof.services.push_back(br.str());
    br.expect_done();
    return prof;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

void sign_profile(const crypto::EcGroup& group, const crypto::UInt& admin_priv,
                  Profile& prof) {
  prof.signature =
      crypto::ecdsa_sign(group, admin_priv, prof.tbs()).to_bytes(group);
}

bool verify_profile(const crypto::EcGroup& group,
                    const crypto::EcPoint& admin_pub, const Profile& prof) {
  const auto sig = crypto::EcdsaSignature::from_bytes(group, prof.signature);
  if (!sig) return false;
  return crypto::ecdsa_verify(group, admin_pub, prof.tbs(), *sig);
}

bool verify_profile(const crypto::EcGroup& group,
                    const crypto::EcPoint& admin_pub, const Profile& prof,
                    crypto::VerifiedCache& cache) {
  return cache.check(
      crypto::VerifiedCache::key(group, admin_pub, prof.tbs(), prof.signature),
      [&] { return verify_profile(group, admin_pub, prof); });
}

}  // namespace argus::backend
