#include "crypto/cert.hpp"

#include <stdexcept>

#include "common/serde.hpp"

namespace argus::crypto {

namespace {

// Baseline wire size at 128-bit strength, from the paper's measurement of
// an X.509 ECDSA certificate. Other strengths scale by the growth of the
// embedded point and signature relative to P-256.
constexpr std::size_t kWireSize128 = 552;

std::size_t point_size(Strength s) {
  return 2 * curve_for(s).field_bytes + 1;
}
std::size_t sig_size(Strength s) {
  return 2 * ((curve_for(s).n.bit_length() + 7) / 8);
}

}  // namespace

std::size_t Certificate::wire_size(Strength s) {
  const std::ptrdiff_t delta =
      static_cast<std::ptrdiff_t>(point_size(s) + sig_size(s)) -
      static_cast<std::ptrdiff_t>(point_size(Strength::b128) +
                                  sig_size(Strength::b128));
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(kWireSize128) +
                                  delta);
}

Bytes Certificate::tbs() const {
  ByteWriter w;
  w.str(subject_id);
  w.u8(static_cast<std::uint8_t>(role));
  w.u8(static_cast<std::uint8_t>(strength));
  w.bytes16(pubkey);
  w.u64(serial);
  w.u64(not_before);
  w.u64(not_after);
  return w.take();
}

Bytes Certificate::serialize() const {
  ByteWriter w;
  const Bytes body = tbs();
  w.bytes16(body);
  w.bytes16(signature);
  Bytes out = w.take();
  const std::size_t target = wire_size(strength);
  if (out.size() + 2 > target) {
    throw std::runtime_error("Certificate: body exceeds emulated X.509 size");
  }
  // Pad marker: u16 pad length + zeros, emulating DER framing overhead.
  const std::size_t pad = target - out.size() - 2;
  ByteWriter tail;
  tail.u16(static_cast<std::uint16_t>(pad));
  append(out, tail.data());
  out.insert(out.end(), pad, 0);
  return out;
}

std::optional<Certificate> Certificate::parse(ByteSpan data) {
  try {
    ByteReader r(data);
    const Bytes body = r.bytes16();
    Certificate cert;
    cert.signature = r.bytes16();
    const std::size_t pad = r.u16();
    if (r.remaining() != pad) return std::nullopt;

    ByteReader br(body);
    cert.subject_id = br.str();
    cert.role = static_cast<EntityRole>(br.u8());
    cert.strength = static_cast<Strength>(br.u8());
    cert.pubkey = br.bytes16();
    cert.serial = br.u64();
    cert.not_before = br.u64();
    cert.not_after = br.u64();
    br.expect_done();
    return cert;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

void sign_certificate(const EcGroup& group, const UInt& admin_priv,
                      Certificate& cert) {
  cert.signature = ecdsa_sign(group, admin_priv, cert.tbs()).to_bytes(group);
}

bool verify_certificate(const EcGroup& group, const EcPoint& admin_pub,
                        const Certificate& cert, std::uint64_t now) {
  if (!cert.valid_at(now)) return false;
  const auto sig = EcdsaSignature::from_bytes(group, cert.signature);
  if (!sig) return false;
  return ecdsa_verify(group, admin_pub, cert.tbs(), *sig);
}

bool verify_certificate(const EcGroup& group, const EcPoint& admin_pub,
                        const Certificate& cert, std::uint64_t now,
                        VerifiedCache& cache) {
  if (!cert.valid_at(now)) return false;
  return cache.check(
      VerifiedCache::key(group, admin_pub, cert.tbs(), cert.signature),
      [&] { return verify_certificate(group, admin_pub, cert, now); });
}

}  // namespace argus::crypto
