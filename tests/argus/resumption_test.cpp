// Crypto-pipeline engine tests: ECDH session resumption (hit/miss/expiry/
// eviction/rotation/reboot semantics, proven via profiler span counts)
// and the degenerate-KEXM regression (reject status, never a throw).
#include <gtest/gtest.h>

#include <stdexcept>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "crypto/ecdh.hpp"
#include "obs/prof.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;

class ResumptionFixture : public ::testing::Test {
 protected:
  ResumptionFixture() : be_(crypto::Strength::b128, 7071) {
    alice_ = be_.register_subject(
        "alice", AttributeMap{{"position", "manager"}, {"department", "X"}},
        {"counseling"});
    bob_ = be_.register_subject("bob",
                                AttributeMap{{"position", "manager"}});
    carol_ = be_.register_subject("carol",
                                  AttributeMap{{"position", "manager"}});
    tv_ = be_.register_object(
        "tv-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"play", "configure"}}});
    radio_ = be_.register_object(
        "radio-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"listen"}}});
  }

  SubjectEngine make_subject(const backend::SubjectCredentials& creds,
                             const ResumptionParams& res = {},
                             std::uint64_t seed = 5) {
    SubjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = seed;
    cfg.resumption = res;
    return SubjectEngine(std::move(cfg));
  }

  ObjectEngine make_object(const backend::ObjectCredentials& creds,
                           const ResumptionParams& res = {},
                           std::uint64_t seed = 6) {
    ObjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = seed;
    cfg.resumption = res;
    return ObjectEngine(std::move(cfg));
  }

  /// One full discovery exchange. Returns true on a completed RES2.
  bool exchange(SubjectEngine& s, ObjectEngine& o, std::uint64_t now) {
    const Bytes que1 = s.start_round();
    const auto res1 = o.handle(que1, now);
    if (!res1) return false;
    const auto que2 = s.handle(*res1, now);
    if (!que2) return false;
    const auto res2 = o.handle(*que2, now);
    if (!res2) return false;
    return s.handle(*res2, now).status == HandleStatus::kOk;
  }

  static ResumptionParams enabled_resumption() {
    ResumptionParams r;
    r.enabled = true;
    return r;
  }

  /// Count of `label` spans recorded so far.
  static std::uint64_t spans(const obs::prof::Profiler& p,
                             const std::string& label) {
    const auto agg = p.by_label();
    const auto it = agg.find(label);
    return it == agg.end() ? 0 : it->second.count;
  }

  Backend be_;
  backend::SubjectCredentials alice_, bob_, carol_;
  backend::ObjectCredentials tv_, radio_;
};

TEST_F(ResumptionFixture, HitSkipsEveryScalarMultiplication) {
  // With resumption on both sides, a re-discovery between the same
  // certified pair runs zero ECDH scalar multiplications: the subject
  // reuses its cached ephemeral + premaster, the object reuses the cached
  // premaster against its semi-static epoch key. "crypto.ec.scalar_mul"
  // spans are emitted exactly by the ECDH shared-secret multiplications
  // (signature work routes through the comb / Shamir spans), so the span
  // count is a direct proof the multiplications were skipped.
  auto s = make_subject(alice_, enabled_resumption());
  auto o = make_object(tv_, enabled_resumption());
  obs::prof::Profiler profiler;
  {
    obs::prof::Profiler::Attach attach(profiler, 0);
    ASSERT_TRUE(exchange(s, o, be_.now()));
  }
  const std::uint64_t first = spans(profiler, "crypto.ec.scalar_mul");
  EXPECT_EQ(first, 2u);  // subject + object shared-secret multiplications
  EXPECT_EQ(o.stats().resumption_misses, 1u);
  EXPECT_EQ(s.stats().resumption_misses, 1u);
  {
    obs::prof::Profiler::Attach attach(profiler, 0);
    ASSERT_TRUE(exchange(s, o, be_.now()));
  }
  EXPECT_EQ(spans(profiler, "crypto.ec.scalar_mul"), first);  // no new ones
  EXPECT_EQ(o.stats().resumption_hits, 1u);
  EXPECT_EQ(s.stats().resumption_hits, 1u);
  // Session keys still work end-to-end: the discovery was recorded again
  // (same object+variant dedupes, so check the round completed via res2).
  EXPECT_EQ(s.stats().res2, 2u);
}

TEST_F(ResumptionFixture, DisabledByDefaultKeepsFullEcdh) {
  auto s = make_subject(alice_);
  auto o = make_object(tv_);
  ASSERT_TRUE(exchange(s, o, be_.now()));
  ASSERT_TRUE(exchange(s, o, be_.now()));
  EXPECT_EQ(o.stats().resumption_hits + o.stats().resumption_misses, 0u);
  EXPECT_EQ(s.stats().resumption_hits + s.stats().resumption_misses, 0u);
}

TEST_F(ResumptionFixture, ObjectTtlExpiryRerunsFullEcdh) {
  ResumptionParams res = enabled_resumption();
  res.ttl_ms = 1000;
  res.rotate_ms = 0;  // isolate TTL from epoch rotation
  auto s = make_subject(alice_, enabled_resumption());
  auto o = make_object(tv_, res);
  ASSERT_TRUE(exchange(s, o, be_.now()));
  o.advance_clock(5000);  // sweeps the premaster cache (entry born at 0)
  ASSERT_TRUE(exchange(s, o, be_.now()));
  EXPECT_EQ(o.stats().resumption_misses, 2u);
  EXPECT_EQ(o.stats().resumption_hits, 0u);
}

TEST_F(ResumptionFixture, SubjectTtlExpiryRerunsFullEcdh) {
  ResumptionParams res = enabled_resumption();
  res.ttl_ms = 1;  // measured in units of handle()'s `now`
  auto s = make_subject(alice_, res);
  auto o = make_object(tv_, enabled_resumption());
  ASSERT_TRUE(exchange(s, o, be_.now()));
  ASSERT_TRUE(exchange(s, o, be_.now() + 10));
  EXPECT_EQ(s.stats().resumption_misses, 2u);
  EXPECT_EQ(s.stats().resumption_hits, 0u);
}

TEST_F(ResumptionFixture, SubjectLruEvictionRerunsFullEcdh) {
  ResumptionParams res = enabled_resumption();
  res.capacity = 1;
  auto s = make_subject(alice_, res);
  auto tv = make_object(tv_, enabled_resumption());
  auto radio = make_object(radio_, enabled_resumption(), 9);
  ASSERT_TRUE(exchange(s, tv, be_.now()));     // caches tv
  ASSERT_TRUE(exchange(s, radio, be_.now()));  // evicts tv (capacity 1)
  ASSERT_TRUE(exchange(s, tv, be_.now()));     // must re-run full ECDH
  EXPECT_EQ(s.stats().resumption_misses, 3u);
  EXPECT_EQ(s.stats().resumption_hits, 0u);
}

TEST_F(ResumptionFixture, EpochRotationForcesFreshAgreement) {
  ResumptionParams res = enabled_resumption();
  res.rotate_ms = 1000;
  auto s = make_subject(alice_, enabled_resumption());
  auto o = make_object(tv_, res);
  ASSERT_TRUE(exchange(s, o, be_.now()));
  o.advance_clock(2000);  // epoch key retired; cached premasters orphaned
  ASSERT_TRUE(exchange(s, o, be_.now()));
  // The object presents a fresh KEXM, so the subject's entry mismatches
  // too — both sides fall back to full key agreement.
  EXPECT_EQ(o.stats().resumption_hits, 0u);
  EXPECT_EQ(o.stats().resumption_misses, 2u);
  EXPECT_EQ(s.stats().resumption_hits, 0u);
  EXPECT_EQ(s.stats().resumption_misses, 2u);
}

TEST_F(ResumptionFixture, RebootInvalidatesCachedSessions) {
  auto s = make_subject(alice_, enabled_resumption());
  auto o = make_object(tv_, enabled_resumption());
  ASSERT_TRUE(exchange(s, o, be_.now()));
  // Reboot: a fresh engine with fresh randomness. Its premaster cache
  // starts empty and its epoch key differs, so neither side resumes.
  auto rebooted = make_object(tv_, enabled_resumption(), 77);
  ASSERT_TRUE(exchange(s, rebooted, be_.now()));
  EXPECT_EQ(rebooted.stats().resumption_hits, 0u);
  EXPECT_EQ(rebooted.stats().resumption_misses, 1u);
  EXPECT_EQ(s.stats().resumption_hits, 0u);
  EXPECT_EQ(s.stats().resumption_misses, 2u);
}

TEST_F(ResumptionFixture, CachedSessionsNeverCrossCertificates) {
  // The cache key is the peer certificate hash: a different subject (and
  // so a different cert) can never ride an existing entry, even from the
  // same network identity.
  auto o = make_object(tv_, enabled_resumption());
  auto s1 = make_subject(alice_, enabled_resumption());
  auto s2 = make_subject(bob_, enabled_resumption(), 11);
  ASSERT_TRUE(exchange(s1, o, be_.now()));
  ASSERT_TRUE(exchange(s2, o, be_.now()));
  EXPECT_EQ(o.stats().resumption_hits, 0u);
  EXPECT_EQ(o.stats().resumption_misses, 2u);
  // And the original pair still hits — the entries are independent.
  ASSERT_TRUE(exchange(s1, o, be_.now()));
  EXPECT_EQ(o.stats().resumption_hits, 1u);
}

// ---------------------------------------------------------------------------
// Degenerate-KEXM regression: a hostile key-exchange point must land in
// the reject taxonomy (kBadKex), never escape a handler as an exception.

class BadKexFixture : public ResumptionFixture {};

TEST_F(BadKexFixture, CheckedEcdhRejectsDegenerateInputs) {
  const auto& g = crypto::group_for(crypto::Strength::b128);
  crypto::HmacDrbg rng(str_bytes("bad-kex"));
  const auto kp = crypto::ecdh_generate(g, rng);
  // Identity peer point: checked variant declines, throwing variant throws.
  EXPECT_FALSE(crypto::ecdh_shared_secret_checked(
                   g, kp.priv, crypto::EcPoint::identity())
                   .has_value());
  EXPECT_THROW(crypto::ecdh_shared_secret(g, kp.priv,
                                          crypto::EcPoint::identity()),
               std::invalid_argument);
  // Off-curve point: same.
  crypto::EcPoint off = kp.pub;
  off.x = addmod(off.x, crypto::UInt::from_u64(1), g.params().p);
  EXPECT_FALSE(
      crypto::ecdh_shared_secret_checked(g, kp.priv, off).has_value());
  EXPECT_THROW(crypto::ecdh_shared_secret(g, kp.priv, off),
               std::invalid_argument);
}

TEST_F(BadKexFixture, ObjectRejectsDegenerateKexmWithStatus) {
  // A certified-but-malicious subject signs a QUE2 whose KEXM is garbage.
  // The signature verifies (it covers the garbage), so the engine reaches
  // the key agreement — which must answer kBadKex, not throw.
  const auto& g = crypto::group_for(crypto::Strength::b128);
  auto o = make_object(tv_);
  const Bytes r_s(kNonceSize, 0x21);
  const Bytes que1_wire = encode(Message{Que1{r_s}});
  const auto res1 = o.handle(que1_wire, be_.now());
  ASSERT_TRUE(res1);

  Que2 q2;
  q2.r_s = r_s;
  q2.prof = alice_.prof.serialize();
  q2.cert = alice_.cert.serialize();
  q2.kexm = Bytes{0x00};  // not a decodable SEC1 point
  Transcript t;
  t.absorb(que1_wire);
  t.absorb(*res1);
  t.absorb(q2.prof);
  t.absorb(q2.cert);
  t.absorb(q2.kexm);
  q2.sig = crypto::ecdsa_sign(g, alice_.keys.priv, t.digest()).to_bytes(g);
  q2.mac_s2 = Bytes(32, 0);  // never reached: kex check precedes the MAC

  const std::uint64_t rejects_before = o.stats().rejects;
  const auto res = o.handle(encode(Message{q2}), be_.now());
  EXPECT_EQ(res.status, HandleStatus::kBadKex);
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(o.stats().rejects, rejects_before + 1);
}

TEST_F(BadKexFixture, SubjectRejectsDegenerateKexmWithStatus) {
  // Mirror on the subject side: an object RES1 whose signature covers a
  // garbage KEXM must answer kBadKex.
  const auto& g = crypto::group_for(crypto::Strength::b128);
  auto s = make_subject(alice_);
  const Bytes que1 = s.start_round();
  const auto decoded = decode(que1);
  ASSERT_TRUE(decoded.has_value());
  const Bytes r_s = std::get<Que1>(*decoded).r_s;

  Res1 r1;
  r1.r_s = r_s;
  r1.r_o = Bytes(kNonceSize, 0x42);
  r1.cert = tv_.cert.serialize();
  r1.kexm = Bytes{0x04, 0x00, 0x01};  // not a decodable SEC1 point
  r1.sig = crypto::ecdsa_sign(g, tv_.keys.priv,
                              concat({r1.r_s, r1.r_o, r1.kexm}))
               .to_bytes(g);
  const auto res = s.handle(encode(Message{r1}), be_.now());
  EXPECT_EQ(res.status, HandleStatus::kBadKex);
  EXPECT_EQ(s.stats().rejects, 1u);
}

}  // namespace
}  // namespace argus::core
