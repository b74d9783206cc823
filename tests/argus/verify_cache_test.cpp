// Verified-credential cache: the LRU itself, and differential tests that a
// long-lived engine with a warm cache returns exactly the status an
// uncached oracle returns (a fresh engine, or a direct verify call). The
// inputs are mutated bodies and signatures, a certificate crossing
// not_after, revocation between rounds, a rotated admin key and eviction
// past the bound. Profiler span counts prove that a hit skips ECDSA
// verification.
#include <gtest/gtest.h>

#include <random>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "crypto/verified_cache.hpp"
#include "obs/prof.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;
using crypto::VerifiedCache;

#if defined(NDEBUG)
constexpr int kFuzzCases = 48;
#else
constexpr int kFuzzCases = 12;  // Debug EC is an order of magnitude slower
#endif

const crypto::EcGroup& g() {
  return crypto::group_for(crypto::Strength::b128);
}

VerifiedCache::Key synthetic_key(std::uint64_t i) {
  VerifiedCache::Key k{};
  for (int b = 0; b < 8; ++b) k[b] = static_cast<std::uint8_t>(i >> (8 * b));
  return k;
}

std::uint64_t spans(const obs::prof::Profiler& p, const std::string& label) {
  const auto agg = p.by_label();
  const auto it = agg.find(label);
  return it == agg.end() ? 0 : it->second.count;
}

TEST(VerifiedCache, KeyCoversSignerBodyAndSignature) {
  crypto::HmacDrbg rng(str_bytes("verified-cache-key"));
  const auto a = crypto::ec_generate(g(), rng);
  const auto b = crypto::ec_generate(g(), rng);
  const Bytes body = str_bytes("signed body");
  const Bytes sig = str_bytes("signature");
  const auto k = VerifiedCache::key(g(), a.pub, body, sig);
  EXPECT_EQ(k, VerifiedCache::key(g(), a.pub, body, sig));
  EXPECT_NE(k, VerifiedCache::key(g(), b.pub, body, sig));
  Bytes body2 = body;
  body2.back() ^= 1;
  EXPECT_NE(k, VerifiedCache::key(g(), a.pub, body2, sig));
  Bytes sig2 = sig;
  sig2.front() ^= 1;
  EXPECT_NE(k, VerifiedCache::key(g(), a.pub, body, sig2));
  // Fields are length-prefixed: moving the body/signature boundary is a
  // different key.
  EXPECT_NE(VerifiedCache::key(g(), a.pub, str_bytes("ab"), str_bytes("c")),
            VerifiedCache::key(g(), a.pub, str_bytes("a"), str_bytes("bc")));
}

TEST(VerifiedCache, OnlyPassingChecksAreRemembered) {
  VerifiedCache c;
  int runs = 0;
  const auto k = synthetic_key(1);
  EXPECT_FALSE(c.check(k, [&] {
    ++runs;
    return false;
  }));
  EXPECT_FALSE(c.check(k, [&] {
    ++runs;
    return false;
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.check(k, [&] {
    ++runs;
    return true;
  }));
  // A hit answers without running the check at all.
  EXPECT_TRUE(c.check(k, [&] {
    ++runs;
    return false;
  }));
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 3u);
}

TEST(VerifiedCache, LruEvictsPastTheBound) {
  VerifiedCache c;
  for (std::uint64_t i = 0; i < VerifiedCache::kCapacity; ++i) {
    c.insert(synthetic_key(i));
  }
  EXPECT_EQ(c.size(), VerifiedCache::kCapacity);
  // Touching the oldest entry makes it the most recent, so the next
  // insert evicts the second oldest instead.
  EXPECT_TRUE(c.contains(synthetic_key(0)));
  c.insert(synthetic_key(VerifiedCache::kCapacity));
  EXPECT_EQ(c.size(), VerifiedCache::kCapacity);
  EXPECT_TRUE(c.contains(synthetic_key(0)));
  EXPECT_FALSE(c.contains(synthetic_key(1)));
  EXPECT_TRUE(c.contains(synthetic_key(VerifiedCache::kCapacity)));
  // Re-inserting a present key neither grows the table nor evicts.
  c.insert(synthetic_key(2));
  EXPECT_EQ(c.size(), VerifiedCache::kCapacity);
  EXPECT_TRUE(c.contains(synthetic_key(3)));
}

class VerifyCacheFixture : public ::testing::Test {
 protected:
  VerifyCacheFixture() : be_(crypto::Strength::b128, 9091), rng_(20261017) {
    alice_ = be_.register_subject("alice",
                                  AttributeMap{{"position", "manager"}});
    tv_ = be_.register_object(
        "tv-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"play", "configure"}}});
    lamp_ = be_.register_object("lamp-1", AttributeMap{{"type", "light"}},
                                Level::kL1, {"toggle"});
    crypto::HmacDrbg kex_rng(str_bytes("verify-cache-kex"));
    kex_ = crypto::ecdh_generate(g(), kex_rng);
    now_ = be_.now();
  }

  SubjectEngine make_subject(const backend::SubjectCredentials& creds,
                             const crypto::EcPoint& admin) {
    SubjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = admin;
    cfg.seed = 5;
    return SubjectEngine(std::move(cfg));
  }
  SubjectEngine make_subject() {
    return make_subject(alice_, be_.admin_public_key());
  }

  ObjectEngine make_object(const backend::ObjectCredentials& creds) {
    ObjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 6;
    return ObjectEngine(std::move(cfg));
  }

  /// Statuses of one discovery exchange, up to the first message that
  /// draws no reply.
  static std::vector<HandleStatus> exchange(SubjectEngine& s, ObjectEngine& o,
                                            std::uint64_t now) {
    std::vector<HandleStatus> out;
    const auto res1 = o.handle(s.start_round(), now);
    out.push_back(res1.status);
    if (!res1) return out;
    const auto que2 = s.handle(*res1, now);
    out.push_back(que2.status);
    if (!que2) return out;
    const auto res2 = o.handle(*que2, now);
    out.push_back(res2.status);
    if (!res2) return out;
    out.push_back(s.handle(*res2, now).status);
    return out;
  }

  static std::vector<HandleStatus> all_ok() {
    return std::vector<HandleStatus>(4, HandleStatus::kOk);
  }

  /// One random corruption of a credential: a byte of its signature
  /// (re-encoded, so the body stays intact), or a byte of its wire,
  /// mostly inside the length fields, body and signature rather than the
  /// trailing pad.
  template <class Cred>
  Bytes mutate(const Cred& cred) {
    std::uniform_int_distribution<int> flip(1, 255);
    if (rng_() % 2 == 0) {
      Cred bad = cred;
      bad.signature[rng_() % bad.signature.size()] ^=
          static_cast<std::uint8_t>(flip(rng_));
      return bad.serialize();
    }
    Bytes wire = cred.serialize();
    const std::size_t core = cred.tbs().size() + cred.signature.size() + 6;
    const std::size_t span = rng_() % 4 == 0 ? wire.size() : core;
    wire[rng_() % span] ^= static_cast<std::uint8_t>(flip(rng_));
    return wire;
  }

  /// RES1 for the round `que1` opened, carrying arbitrary certificate
  /// bytes and signed with `priv` the way an honest object signs.
  Bytes forge_res1(const Bytes& que1, const Bytes& cert,
                   const crypto::UInt& priv) const {
    Res1 r1;
    r1.r_s = std::get<Que1>(*decode(que1)).r_s;
    r1.r_o = Bytes(kNonceSize, 0x42);
    r1.cert = cert;
    r1.kexm = g().encode_point(kex_.pub);
    r1.sig = crypto::ecdsa_sign(g(), priv, concat({r1.r_s, r1.r_o, r1.kexm}))
                 .to_bytes(g());
    return encode(Message{r1});
  }

  /// QUE2 answering `res1_wire` with arbitrary credential bytes, signed
  /// and MACed with alice's keys the way an honest subject does.
  Bytes forge_que2(const Bytes& que1, const Bytes& res1_wire,
                   const Bytes& cert, const Bytes& prof) const {
    const Res1 res1 = std::get<Res1>(*decode(res1_wire));
    const Bytes pre_k = crypto::ecdh_shared_secret(
        g(), kex_.priv, *g().decode_point(res1.kexm));
    Que2 q2;
    q2.r_s = res1.r_s;
    q2.prof = prof;
    q2.cert = cert;
    q2.kexm = g().encode_point(kex_.pub);
    Transcript t;
    t.absorb(que1);
    t.absorb(res1_wire);
    t.absorb(q2.prof);
    t.absorb(q2.cert);
    t.absorb(q2.kexm);
    q2.sig =
        crypto::ecdsa_sign(g(), alice_.keys.priv, t.digest()).to_bytes(g());
    t.absorb(q2.sig);
    q2.mac_s2 = subject_mac(derive_k2(pre_k, res1.r_s, res1.r_o), t.digest());
    return encode(Message{q2});
  }

  /// Status of `o` on a QUE2 carrying `cert` and `prof`, in a session
  /// opened with a fresh nonce.
  HandleStatus object_status(ObjectEngine& o, const Bytes& cert,
                             const Bytes& prof, std::uint64_t now) {
    Bytes r_s(kNonceSize, 0);
    const std::uint64_t n = ++nonce_;
    for (int b = 0; b < 8; ++b) {
      r_s[b] = static_cast<std::uint8_t>(n >> (8 * b));
    }
    const Bytes que1 = encode(Message{Que1{r_s}});
    const auto res1 = o.handle(que1, now);
    if (!res1) return res1.status;
    return o.handle(forge_que2(que1, *res1, cert, prof), now).status;
  }

  Backend be_;
  std::mt19937_64 rng_;
  backend::SubjectCredentials alice_;
  backend::ObjectCredentials tv_, lamp_;
  crypto::EcKeyPair kex_;
  std::uint64_t now_ = 0;
  std::uint64_t nonce_ = 0;
};

TEST_F(VerifyCacheFixture, HitSkipsEcdsaVerify) {
  auto s = make_subject();
  auto o = make_object(tv_);
  obs::prof::Profiler profiler;
  const auto traced = [&](auto&& body) {
    obs::prof::Profiler::Attach attach(profiler, 0);
    body();
    return spans(profiler, "crypto.ecdsa.verify");
  };
  // Level 2 first contact: each side verifies the peer's certificate,
  // handshake signature and profile.
  EXPECT_EQ(traced([&] { ASSERT_EQ(exchange(s, o, now_), all_ok()); }), 6u);
  const double s_first = s.take_consumed_ms();
  const double o_first = o.take_consumed_ms();
  // Re-discovery: only the two fresh handshake signatures are verified.
  EXPECT_EQ(traced([&] { ASSERT_EQ(exchange(s, o, now_), all_ok()); }), 8u);
  EXPECT_EQ(s.verified_cache().hits(), 2u);
  EXPECT_EQ(s.verified_cache().misses(), 2u);
  EXPECT_EQ(o.verified_cache().hits(), 2u);
  EXPECT_EQ(o.verified_cache().misses(), 2u);
  // The compute model still charges every verification.
  EXPECT_EQ(s.take_consumed_ms(), s_first);
  EXPECT_EQ(o.take_consumed_ms(), o_first);

  // Level 1: a re-discovered profile costs no verification at all.
  const Bytes l1 = encode(Message{Res1Level1{lamp_.public_prof.serialize()}});
  EXPECT_EQ(traced([&] {
              EXPECT_EQ(s.handle(l1, now_).status, HandleStatus::kOk);
            }),
            9u);
  EXPECT_EQ(traced([&] {
              EXPECT_EQ(s.handle(l1, now_).status, HandleStatus::kOk);
            }),
            9u);
  EXPECT_EQ(s.verified_cache().hits(), 3u);
  EXPECT_EQ(s.verified_cache().size(), 3u);
}

TEST_F(VerifyCacheFixture, SubjectLevel1ProfileFuzzMatchesOracle) {
  auto cached = make_subject();
  const Bytes genuine =
      encode(Message{Res1Level1{lamp_.public_prof.serialize()}});
  ASSERT_EQ(cached.handle(genuine, now_).status, HandleStatus::kOk);
  for (int i = 0; i < kFuzzCases; ++i) {
    const Bytes prof = mutate(lamp_.public_prof);
    const Bytes wire = encode(Message{Res1Level1{prof}});
    auto oracle = make_subject();
    const HandleStatus want = oracle.handle(wire, now_).status;
    const auto parsed = backend::Profile::parse(prof);
    EXPECT_EQ(want == HandleStatus::kOk,
              parsed && verify_profile(g(), be_.admin_public_key(), *parsed))
        << "case " << i;
    // Twice: a rejected credential wrongly remembered would pass the
    // second time.
    EXPECT_EQ(cached.handle(wire, now_).status, want) << "case " << i;
    EXPECT_EQ(cached.handle(wire, now_).status, want) << "case " << i;
    ASSERT_EQ(cached.handle(genuine, now_).status, HandleStatus::kOk);
  }
  EXPECT_GE(cached.verified_cache().hits(),
            static_cast<std::uint64_t>(kFuzzCases));
}

TEST_F(VerifyCacheFixture, SubjectCertificateFuzzMatchesOracle) {
  auto cached = make_subject();
  const Bytes genuine = tv_.cert.serialize();
  const auto status = [&](SubjectEngine& s, const Bytes& cert) {
    return s.handle(forge_res1(s.start_round(), cert, tv_.keys.priv), now_)
        .status;
  };
  ASSERT_EQ(status(cached, genuine), HandleStatus::kOk);
  for (int i = 0; i < kFuzzCases; ++i) {
    const Bytes cert = mutate(tv_.cert);
    auto oracle = make_subject();
    const HandleStatus want = status(oracle, cert);
    EXPECT_EQ(status(cached, cert), want) << "case " << i;
    EXPECT_EQ(status(cached, cert), want) << "case " << i;
    ASSERT_EQ(status(cached, genuine), HandleStatus::kOk);
  }
  EXPECT_GE(cached.verified_cache().hits(),
            static_cast<std::uint64_t>(kFuzzCases));
}

TEST_F(VerifyCacheFixture, SubjectSealedProfileFuzzMatchesOracle) {
  // The object seals a corrupted Level 2 profile; the subject checks it
  // after opening RES2.
  auto cached = make_subject();
  auto genuine = make_object(tv_);
  ASSERT_EQ(exchange(cached, genuine, now_), all_ok());
  int checked = 0;
  for (int i = 0; i < kFuzzCases; ++i) {
    const auto bad = backend::Profile::parse(mutate(tv_.variants2[0].prof));
    if (!bad) continue;  // an engine can only seal a profile it can encode
    auto creds = tv_;
    creds.variants2[0].prof = *bad;
    auto oracle = make_subject();
    auto o_cached = make_object(creds);
    auto o_oracle = make_object(creds);
    EXPECT_EQ(exchange(cached, o_cached, now_),
              exchange(oracle, o_oracle, now_))
        << "case " << i;
    ASSERT_EQ(exchange(cached, genuine, now_), all_ok());
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(VerifyCacheFixture, ObjectCertificateAndProfileFuzzMatchesOracle) {
  auto cached = make_object(tv_);
  const Bytes cert = alice_.cert.serialize();
  const Bytes prof = alice_.prof.serialize();
  ASSERT_EQ(object_status(cached, cert, prof, now_), HandleStatus::kOk);
  for (int i = 0; i < kFuzzCases; ++i) {
    const bool on_cert = i % 2 == 0;
    const Bytes c = on_cert ? mutate(alice_.cert) : cert;
    const Bytes p = on_cert ? prof : mutate(alice_.prof);
    auto oracle = make_object(tv_);
    const HandleStatus want = object_status(oracle, c, p, now_);
    EXPECT_EQ(object_status(cached, c, p, now_), want) << "case " << i;
    EXPECT_EQ(object_status(cached, c, p, now_), want) << "case " << i;
    ASSERT_EQ(object_status(cached, cert, prof, now_), HandleStatus::kOk);
  }
  EXPECT_GE(cached.verified_cache().hits(),
            static_cast<std::uint64_t>(2 * kFuzzCases));
}

TEST_F(VerifyCacheFixture, MutatedSignatureOnACachedBodyIsRejected) {
  // The body is exactly the cached one; only the signature differs.
  auto s = make_subject();
  auto o = make_object(tv_);
  ASSERT_EQ(exchange(s, o, now_), all_ok());
  auto bad_cert = tv_.cert;
  bad_cert.signature[5] ^= 0x01;
  EXPECT_EQ(s.handle(forge_res1(s.start_round(), bad_cert.serialize(),
                                tv_.keys.priv),
                     now_)
                .status,
            HandleStatus::kBadCert);
  auto bad_l1 = lamp_.public_prof;
  ASSERT_EQ(s.handle(encode(Message{Res1Level1{bad_l1.serialize()}}), now_)
                .status,
            HandleStatus::kOk);
  bad_l1.signature[7] ^= 0x80;
  EXPECT_EQ(s.handle(encode(Message{Res1Level1{bad_l1.serialize()}}), now_)
                .status,
            HandleStatus::kBadProfile);

  auto bad_subject_cert = alice_.cert;
  bad_subject_cert.signature[9] ^= 0x10;
  auto bad_subject_prof = alice_.prof;
  bad_subject_prof.signature[11] ^= 0x04;
  EXPECT_EQ(object_status(o, bad_subject_cert.serialize(),
                          alice_.prof.serialize(), now_),
            HandleStatus::kBadCert);
  EXPECT_EQ(object_status(o, alice_.cert.serialize(),
                          bad_subject_prof.serialize(), now_),
            HandleStatus::kBadProfile);
  EXPECT_EQ(object_status(o, alice_.cert.serialize(), alice_.prof.serialize(),
                          now_),
            HandleStatus::kOk);
}

TEST_F(VerifyCacheFixture, CertificateCrossingNotAfterIsRejectedOnAHit) {
  auto s = make_subject();
  auto o = make_object(tv_);
  // Both certificates were issued at the same backend time.
  const std::uint64_t last_valid = tv_.cert.not_after;
  ASSERT_EQ(alice_.cert.not_after, last_valid);
  ASSERT_EQ(exchange(s, o, last_valid), all_ok());

  // One second later both have expired: the subject meets the object's
  // first, exactly as a fresh pair of engines does.
  auto fresh_s = make_subject();
  auto fresh_o = make_object(tv_);
  const auto want = exchange(fresh_s, fresh_o, last_valid + 1);
  ASSERT_EQ(want.back(), HandleStatus::kBadCert);
  EXPECT_EQ(exchange(s, o, last_valid + 1), want);
  // Object side: a QUE2 carrying the expired subject certificate.
  const Bytes cert = alice_.cert.serialize();
  const Bytes prof = alice_.prof.serialize();
  auto oracle = make_object(tv_);
  EXPECT_EQ(object_status(o, cert, prof, last_valid + 1),
            HandleStatus::kBadCert);
  EXPECT_EQ(object_status(oracle, cert, prof, last_valid + 1),
            HandleStatus::kBadCert);

  // Back inside the window the cached entries serve again.
  const std::uint64_t s_hits = s.verified_cache().hits();
  const std::uint64_t o_hits = o.verified_cache().hits();
  EXPECT_EQ(exchange(s, o, last_valid), all_ok());
  EXPECT_EQ(s.verified_cache().hits(), s_hits + 2);
  EXPECT_EQ(o.verified_cache().hits(), o_hits + 2);
}

TEST_F(VerifyCacheFixture, RevocationBetweenRoundsRejectsACachedSubject) {
  auto s = make_subject();
  auto o = make_object(tv_);
  ASSERT_EQ(exchange(s, o, now_), all_ok());
  const auto rev = be_.issue_revocation("alice");
  ASSERT_TRUE(o.apply_signed_revocation(rev));

  auto fresh_s = make_subject();
  auto fresh_o = make_object(tv_);
  ASSERT_TRUE(fresh_o.apply_signed_revocation(rev));
  const auto want = exchange(fresh_s, fresh_o, now_);
  ASSERT_EQ(want.back(), HandleStatus::kRevoked);

  const std::uint64_t hits = o.verified_cache().hits();
  EXPECT_EQ(exchange(s, o, now_), want);
  // Certificate and profile were cache hits; the revocation check still ran.
  EXPECT_EQ(o.verified_cache().hits(), hits + 2);
}

TEST_F(VerifyCacheFixture, RotatedAdminKeyNeverReusesAnEntry) {
  Backend rotated(crypto::Strength::b128, 9092);
  const crypto::EcPoint& old_admin = be_.admin_public_key();
  const crypto::EcPoint& new_admin = rotated.admin_public_key();
  // One cache that passed credentials under the old key must not pass
  // them under the new one: the signer is part of the key.
  VerifiedCache cache;
  ASSERT_TRUE(
      backend::verify_profile(g(), old_admin, lamp_.public_prof, cache));
  ASSERT_TRUE(
      crypto::verify_certificate(g(), old_admin, tv_.cert, now_, cache));
  EXPECT_FALSE(
      backend::verify_profile(g(), new_admin, lamp_.public_prof, cache));
  EXPECT_FALSE(
      crypto::verify_certificate(g(), new_admin, tv_.cert, now_, cache));
  EXPECT_EQ(cache.hits(), 0u);

  // An engine provisioned with the rotated key rejects old-admin
  // credentials exactly as a direct uncached check does, and accepts the
  // re-issued ones.
  const auto alice2 = rotated.register_subject(
      "alice", AttributeMap{{"position", "manager"}});
  const auto lamp2 = rotated.register_object(
      "lamp-1", AttributeMap{{"type", "light"}}, Level::kL1, {"toggle"});
  auto s = make_subject(alice2, new_admin);
  const Bytes old_wire =
      encode(Message{Res1Level1{lamp_.public_prof.serialize()}});
  const Bytes new_wire =
      encode(Message{Res1Level1{lamp2.public_prof.serialize()}});
  ASSERT_FALSE(backend::verify_profile(g(), new_admin, lamp_.public_prof));
  EXPECT_EQ(s.handle(old_wire, now_).status, HandleStatus::kBadProfile);
  EXPECT_EQ(s.handle(new_wire, now_).status, HandleStatus::kOk);
  EXPECT_EQ(s.handle(new_wire, now_).status, HandleStatus::kOk);
  EXPECT_EQ(s.handle(old_wire, now_).status, HandleStatus::kBadProfile);
  EXPECT_EQ(s.verified_cache().hits(), 1u);
}

TEST_F(VerifyCacheFixture, EvictedCredentialIsVerifiedAgain) {
  VerifiedCache cache;
  const crypto::EcPoint& admin = be_.admin_public_key();
  obs::prof::Profiler profiler;
  obs::prof::Profiler::Attach attach(profiler, 0);
  ASSERT_TRUE(backend::verify_profile(g(), admin, lamp_.public_prof, cache));
  ASSERT_TRUE(backend::verify_profile(g(), admin, lamp_.public_prof, cache));
  EXPECT_EQ(spans(profiler, "crypto.ecdsa.verify"), 1u);
  // Push the profile's entry out past the bound.
  for (std::uint64_t i = 0; i < VerifiedCache::kCapacity; ++i) {
    cache.insert(synthetic_key(i));
  }
  EXPECT_EQ(cache.size(), VerifiedCache::kCapacity);
  EXPECT_TRUE(backend::verify_profile(g(), admin, lamp_.public_prof, cache));
  EXPECT_EQ(spans(profiler, "crypto.ecdsa.verify"), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  // The churn changes no verdict.
  auto bad = lamp_.public_prof;
  bad.signature[0] ^= 0x01;
  EXPECT_FALSE(backend::verify_profile(g(), admin, bad, cache));
  EXPECT_EQ(cache.size(), VerifiedCache::kCapacity);
}

}  // namespace
}  // namespace argus::core
