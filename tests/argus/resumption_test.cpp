// Crypto-pipeline engine tests: ECDH session resumption (hit/miss/expiry/
// eviction/rotation/reboot semantics, proven via profiler span counts),
// batched QUE2 handling (exact sequential equivalence), and the
// degenerate-KEXM regression (reject status, never a throw).
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
// handle_batch: the batch path must produce exactly the sequential results.

class BatchFixture : public ResumptionFixture {
 protected:
  /// Two engines configured identically (same seed -> same DRBG stream),
  /// so any divergence between sequential and batched processing is the
  /// batch path's fault.
  struct Pair {
    ObjectEngine seq;
    ObjectEngine bat;
  };

  Pair make_pair(const ResumptionParams& res = {}) {
    return Pair{make_object(tv_, res), make_object(tv_, res)};
  }

  /// Feed one wire to both engines (sequential handle), asserting they
  /// stay lockstep-identical.
  void feed_both(Pair& p, const Bytes& wire, std::uint64_t now) {
    const auto a = p.seq.handle(wire, now);
    const auto b = p.bat.handle(wire, now);
    ASSERT_EQ(a.status, b.status);
    ASSERT_EQ(a.reply, b.reply);
  }

  void expect_equal_results(const std::vector<HandleResult>& seq,
                            const std::vector<HandleResult>& bat) {
    ASSERT_EQ(seq.size(), bat.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].status, bat[i].status) << "item " << i;
      EXPECT_EQ(seq[i].reply, bat[i].reply) << "item " << i;
    }
  }

  void expect_equal_stats(const ObjectEngine& a, const ObjectEngine& b) {
    EXPECT_EQ(a.stats().que2_handled, b.stats().que2_handled);
    EXPECT_EQ(a.stats().replies_sent, b.stats().replies_sent);
    EXPECT_EQ(a.stats().drops, b.stats().drops);
    EXPECT_EQ(a.stats().rejects, b.stats().rejects);
    EXPECT_EQ(a.stats().replays_detected, b.stats().replays_detected);
    EXPECT_EQ(a.stats().retransmissions, b.stats().retransmissions);
    EXPECT_EQ(a.stats().resumption_hits, b.stats().resumption_hits);
    EXPECT_EQ(a.open_sessions(), b.open_sessions());
    EXPECT_EQ(a.cached_replies(), b.cached_replies());
  }
};

TEST_F(BatchFixture, BenignBatchMatchesSequential) {
  auto p = make_pair();
  std::vector<SubjectEngine> subjects;
  subjects.push_back(make_subject(alice_, {}, 21));
  subjects.push_back(make_subject(bob_, {}, 22));
  subjects.push_back(make_subject(carol_, {}, 23));
  std::vector<ObjectEngine::BatchInput> batch;
  for (auto& s : subjects) {
    const Bytes que1 = s.start_round();
    const auto res1a = p.seq.handle(que1, be_.now());
    const auto res1b = p.bat.handle(que1, be_.now());
    ASSERT_TRUE(res1a);
    ASSERT_EQ(*res1a, *res1b);
    const auto que2 = s.handle(*res1a, be_.now());
    ASSERT_TRUE(que2);
    batch.push_back({*que2, be_.now(), 0});
  }
  std::vector<HandleResult> seq;
  for (const auto& item : batch) {
    seq.push_back(p.seq.handle(item.wire, item.now, item.peer));
  }
  const auto bat = p.bat.handle_batch(batch);
  expect_equal_results(seq, bat);
  expect_equal_stats(p.seq, p.bat);
  // All nine signatures (cert, transcript, profile per QUE2) settled by
  // batch equations.
  EXPECT_EQ(p.bat.stats().batch_verified_sigs, 9u);
  EXPECT_EQ(p.bat.stats().batch_fallback_sigs, 0u);
  EXPECT_EQ(p.seq.stats().batch_verified_sigs, 0u);
}

TEST_F(BatchFixture, CorruptAndHostileItemsMatchSequential) {
  auto p = make_pair();
  std::vector<SubjectEngine> subjects;
  subjects.push_back(make_subject(alice_, {}, 31));
  subjects.push_back(make_subject(bob_, {}, 32));
  subjects.push_back(make_subject(carol_, {}, 33));
  std::vector<Bytes> que2s;
  for (auto& s : subjects) {
    const Bytes que1 = s.start_round();
    const auto res1a = p.seq.handle(que1, be_.now());
    const auto res1b = p.bat.handle(que1, be_.now());
    ASSERT_TRUE(res1a);
    ASSERT_EQ(*res1a, *res1b);
    const auto que2 = s.handle(*res1a, be_.now());
    ASSERT_TRUE(que2);
    que2s.push_back(*que2);
  }
  // A stale QUE2: built against a third engine whose session this pair
  // never opened.
  auto stranger = make_object(radio_, {}, 40);
  auto s4 = make_subject(alice_, {}, 34);
  const Bytes que1_s4 = s4.start_round();
  const auto res1_s4 = stranger.handle(que1_s4, be_.now());
  ASSERT_TRUE(res1_s4);
  const auto stale_que2 = s4.handle(*res1_s4, be_.now());
  ASSERT_TRUE(stale_que2);
  // Tampered copy: flip one byte inside the transcript signature (the two
  // 32-byte MACs plus length prefixes occupy the last 68 bytes; the
  // signature sits just before them), forcing a kBadSignature that the
  // batch path must settle via its per-item fallback.
  Bytes tampered = que2s[1];
  tampered[tampered.size() - 70] ^= 0xff;

  std::vector<ObjectEngine::BatchInput> batch;
  batch.push_back({que2s[0], be_.now(), 0});
  batch.push_back({tampered, be_.now(), 0});
  batch.push_back({Bytes{0x99, 0x01, 0x02}, be_.now(), 0});  // malformed
  batch.push_back({*stale_que2, be_.now(), 0});
  batch.push_back({que2s[1], be_.now(), 0});
  batch.push_back({que2s[2], be_.now(), 0});
  batch.push_back({que2s[2], be_.now(), 0});  // duplicate R_S -> resend

  std::vector<HandleResult> seq;
  for (const auto& item : batch) {
    seq.push_back(p.seq.handle(item.wire, item.now, item.peer));
  }
  const auto bat = p.bat.handle_batch(batch);
  expect_equal_results(seq, bat);
  expect_equal_stats(p.seq, p.bat);
}

TEST_F(BatchFixture, InterleavedQue1FlushesAndMatches) {
  auto p = make_pair();
  auto s1 = make_subject(alice_, {}, 41);
  auto s2 = make_subject(bob_, {}, 42);
  auto s3 = make_subject(carol_, {}, 43);
  HandleResult que2_a, que2_b;
  for (auto pair : {std::make_pair(&s1, &que2_a),
                    std::make_pair(&s2, &que2_b)}) {
    const Bytes que1 = pair.first->start_round();
    const auto ra = p.seq.handle(que1, be_.now());
    const auto rb = p.bat.handle(que1, be_.now());
    ASSERT_TRUE(ra);
    ASSERT_EQ(*ra, *rb);
    *pair.second = pair.first->handle(*ra, be_.now());
  }
  ASSERT_TRUE(que2_a);
  ASSERT_TRUE(que2_b);
  // Batch: QUE2, then a brand-new QUE1 (flush barrier), then QUE2.
  const Bytes q1_c = s3.start_round();
  std::vector<ObjectEngine::BatchInput> items;
  items.push_back({*que2_a, be_.now(), 0});
  items.push_back({q1_c, be_.now(), 0});
  items.push_back({*que2_b, be_.now(), 0});
  std::vector<HandleResult> seq;
  for (const auto& item : items) {
    seq.push_back(p.seq.handle(item.wire, item.now, item.peer));
  }
  const auto bat = p.bat.handle_batch(items);
  expect_equal_results(seq, bat);
  expect_equal_stats(p.seq, p.bat);
}

TEST_F(BatchFixture, ResumptionInsideBatchMatchesSequential) {
  auto p = make_pair(enabled_resumption());
  auto s1 = make_subject(alice_, enabled_resumption(), 51);
  auto s2 = make_subject(bob_, enabled_resumption(), 52);
  for (int round = 0; round < 2; ++round) {
    std::vector<ObjectEngine::BatchInput> batch;
    for (auto* s : {&s1, &s2}) {
      const Bytes que1 = s->start_round();
      const auto res1a = p.seq.handle(que1, be_.now());
      const auto res1b = p.bat.handle(que1, be_.now());
      ASSERT_TRUE(res1a);
      ASSERT_EQ(*res1a, *res1b);
      const auto que2 = s->handle(*res1a, be_.now());
      ASSERT_TRUE(que2);
      batch.push_back({*que2, be_.now(), 0});
    }
    std::vector<HandleResult> seq;
    for (const auto& item : batch) {
      seq.push_back(p.seq.handle(item.wire, item.now, item.peer));
    }
    const auto bat = p.bat.handle_batch(batch);
    expect_equal_results(seq, bat);
    expect_equal_stats(p.seq, p.bat);
  }
  // Round 2 resumed both subjects on both engines.
  EXPECT_EQ(p.seq.stats().resumption_hits, 2u);
  EXPECT_EQ(p.bat.stats().resumption_hits, 2u);
}

TEST_F(BatchFixture, WarmVerifiedCacheBatchMatchesSequential) {
  // Once the admin-signed certificates and profiles sit in the verified
  // cache, a batch window queues only the transcript signatures, and its
  // results still equal message-by-message handling.
  auto p = make_pair();
  std::vector<SubjectEngine> subjects;
  subjects.push_back(make_subject(alice_, {}, 61));
  subjects.push_back(make_subject(bob_, {}, 62));
  subjects.push_back(make_subject(carol_, {}, 63));
  const auto round = [&](const auto& edit) {
    std::vector<ObjectEngine::BatchInput> batch;
    for (auto& s : subjects) {
      const Bytes que1 = s.start_round();
      const auto res1a = p.seq.handle(que1, be_.now());
      const auto res1b = p.bat.handle(que1, be_.now());
      EXPECT_TRUE(res1a);
      EXPECT_EQ(*res1a, *res1b);
      const auto que2 = s.handle(*res1a, be_.now());
      EXPECT_TRUE(que2);
      batch.push_back({*que2, be_.now(), 0});
    }
    edit(batch);
    std::vector<HandleResult> seq;
    for (const auto& item : batch) {
      seq.push_back(p.seq.handle(item.wire, item.now, item.peer));
    }
    expect_equal_results(seq, p.bat.handle_batch(batch));
    expect_equal_stats(p.seq, p.bat);
    return seq;
  };
  const auto unchanged = [](std::vector<ObjectEngine::BatchInput>&) {};

  round(unchanged);  // cold: every signature reaches the batch
  EXPECT_EQ(p.bat.stats().batch_verified_sigs, 9u);
  EXPECT_EQ(p.bat.verified_cache().size(), 6u);

  round(unchanged);  // warm: only the three transcript signatures
  EXPECT_EQ(p.bat.stats().batch_verified_sigs, 12u);
  EXPECT_EQ(p.bat.verified_cache().hits(), 6u);
  EXPECT_EQ(p.seq.verified_cache().hits(), 6u);

  // Warm and hostile: bob's cached certificate body with one signature
  // byte flipped must not ride on the cached entry.
  const auto hostile = round([&](std::vector<ObjectEngine::BatchInput>& batch) {
    auto msg = decode(batch[1].wire);
    ASSERT_TRUE(msg);
    auto& que2 = std::get<Que2>(*msg);
    auto cert = crypto::Certificate::parse(que2.cert);
    ASSERT_TRUE(cert);
    cert->signature[3] ^= 0x01;
    que2.cert = cert->serialize();
    batch.insert(batch.begin() + 1,
                 ObjectEngine::BatchInput{encode(*msg), be_.now(), 0});
  });
  ASSERT_EQ(hostile.size(), 4u);
  EXPECT_EQ(hostile[1].status, HandleStatus::kBadCert);
  EXPECT_EQ(hostile[2].status, HandleStatus::kOk);
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
