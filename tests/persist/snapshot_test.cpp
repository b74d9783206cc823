// Snapshot envelope semantics and engine/backend restore contracts:
// every RestoreError path is reachable and total (no throws, no partial
// application), restores are blank-or-exact, and a successful engine
// restore rotates the resumption epoch and drops every cached premaster.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "backend/registry.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"
#include "persist/snapshot.hpp"

namespace argus::persist {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;
using core::ObjectEngine;
using core::ObjectEngineConfig;
using core::ResumptionParams;
using core::SubjectEngine;
using core::SubjectEngineConfig;

Bytes payload_bytes() { return Bytes{1, 2, 3, 4, 5}; }

TEST(SnapshotEnvelope, RoundTrip) {
  const Bytes sealed =
      seal_snapshot(SnapshotKind::kObjectEngine, payload_bytes());
  const OpenResult open = open_snapshot(sealed, SnapshotKind::kObjectEngine);
  ASSERT_TRUE(open);
  EXPECT_EQ(open.payload, payload_bytes());
}

TEST(SnapshotEnvelope, EmptyAndShortBuffersAreTruncated) {
  EXPECT_EQ(open_snapshot({}, SnapshotKind::kBackend).error,
            RestoreError::kTruncated);
  const Bytes sealed = seal_snapshot(SnapshotKind::kBackend, payload_bytes());
  const Bytes header_only(sealed.begin(), sealed.begin() + 8);
  EXPECT_EQ(open_snapshot(header_only, SnapshotKind::kBackend).error,
            RestoreError::kTruncated);
}

TEST(SnapshotEnvelope, WrongMagic) {
  Bytes sealed = seal_snapshot(SnapshotKind::kBackend, payload_bytes());
  sealed[0] = 'X';
  EXPECT_EQ(open_snapshot(sealed, SnapshotKind::kBackend).error,
            RestoreError::kBadMagic);
}

/// Hand-seal an envelope with an arbitrary version/kind byte and a valid
/// checksum, so version/kind rejection is tested independently of the
/// checksum gate (in-place mutation would trip kBadChecksum first).
Bytes craft(std::uint32_t version, std::uint8_t kind, ByteSpan payload) {
  ByteWriter w;
  const std::uint8_t magic[4] = {'A', 'R', 'G', 'S'};
  w.raw(ByteSpan(magic, 4));
  w.u32(version);
  w.u8(kind);
  w.bytes32(payload);
  Bytes out = w.take();
  const Bytes sum = crypto::Sha256::hash(out);
  out.insert(out.end(), sum.begin(), sum.end());
  return out;
}

TEST(SnapshotEnvelope, UnknownVersionRejected) {
  const Bytes sealed = craft(
      kSnapshotVersion + 1,
      static_cast<std::uint8_t>(SnapshotKind::kBackend), payload_bytes());
  EXPECT_EQ(open_snapshot(sealed, SnapshotKind::kBackend).error,
            RestoreError::kBadVersion);
}

TEST(SnapshotEnvelope, WrongAndUnknownKindRejected) {
  const Bytes subject =
      seal_snapshot(SnapshotKind::kSubjectEngine, payload_bytes());
  EXPECT_EQ(open_snapshot(subject, SnapshotKind::kObjectEngine).error,
            RestoreError::kBadKind);
  const Bytes unknown = craft(kSnapshotVersion, 0x7f, payload_bytes());
  EXPECT_EQ(open_snapshot(unknown, SnapshotKind::kBackend).error,
            RestoreError::kBadKind);
}

TEST(SnapshotEnvelope, BitFlipAndExtensionAreChecksumFailures) {
  const Bytes sealed = seal_snapshot(SnapshotKind::kFleet, payload_bytes());
  for (const std::size_t i : {std::size_t{5}, sealed.size() / 2,
                              sealed.size() - 1}) {
    Bytes flipped = sealed;
    flipped[i] ^= 0x01;
    EXPECT_EQ(open_snapshot(flipped, SnapshotKind::kFleet).error,
              RestoreError::kBadChecksum)
        << "flip at byte " << i;
  }
  Bytes extended = sealed;
  extended.push_back(0xee);
  EXPECT_EQ(open_snapshot(extended, SnapshotKind::kFleet).error,
            RestoreError::kBadChecksum);
}

TEST(SnapshotEnvelope, BundleRoundTripAndSectionIsolation) {
  const Bytes a{1, 2};
  const Bytes b{3};
  const BundleEntries entries = {
      {"subject", seal_snapshot(SnapshotKind::kSubjectEngine, a)},
      {"object:tv", seal_snapshot(SnapshotKind::kObjectEngine, b)},
  };
  const Bytes sealed = seal_bundle(entries);
  const BundleResult opened = open_bundle(sealed);
  ASSERT_TRUE(opened);
  ASSERT_EQ(opened.entries.size(), 2u);
  EXPECT_EQ(opened.entries[0].first, "subject");
  EXPECT_EQ(opened.entries[1].first, "object:tv");
  // One corrupt section must not invalidate the bundle or its neighbours:
  // sections are opaque here, and each one carries its own envelope.
  BundleEntries damaged = entries;
  damaged[1].second[10] ^= 0x40;
  const BundleResult part = open_bundle(seal_bundle(damaged));
  ASSERT_TRUE(part);
  EXPECT_TRUE(open_snapshot(part.entries[0].second,
                            SnapshotKind::kSubjectEngine));
  EXPECT_EQ(open_snapshot(part.entries[1].second,
                          SnapshotKind::kObjectEngine)
                .error,
            RestoreError::kBadChecksum);
}

TEST(SnapshotEnvelope, FileHelpers) {
  const std::string path = ::testing::TempDir() + "persist_file_test.snap";
  const Bytes sealed = seal_snapshot(SnapshotKind::kBackend, payload_bytes());
  ASSERT_TRUE(write_snapshot_file(path, sealed));
  const ReadResult read = read_snapshot_file(path);
  ASSERT_TRUE(read);
  EXPECT_EQ(read.data, sealed);
  std::remove(path.c_str());
  EXPECT_EQ(read_snapshot_file(path).error, RestoreError::kIoError);
}

// ---------------------------------------------------------------------------
// Engine and backend contracts.

class EnginePersistFixture : public ::testing::Test {
 protected:
  EnginePersistFixture() : be_(crypto::Strength::b128, 7171) {
    alice_ = be_.register_subject(
        "alice", AttributeMap{{"position", "manager"}}, {"support"});
    tv_ = be_.register_object(
        "tv-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"play"}}});
    radio_ = be_.register_object(
        "radio-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"listen"}}});
  }

  SubjectEngine make_subject(const ResumptionParams& res = {}) {
    SubjectEngineConfig cfg;
    cfg.creds = alice_;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 5;
    cfg.resumption = res;
    return SubjectEngine(std::move(cfg));
  }

  ObjectEngine make_object(const backend::ObjectCredentials& creds,
                           const ResumptionParams& res = {}) {
    ObjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 6;
    cfg.resumption = res;
    return ObjectEngine(std::move(cfg));
  }

  /// One full discovery exchange; returns the QUE1 used.
  Bytes exchange(SubjectEngine& s, ObjectEngine& o) {
    const Bytes que1 = s.start_round();
    const auto res1 = o.handle(que1, be_.now());
    EXPECT_TRUE(res1);
    const auto que2 = s.handle(*res1, be_.now());
    EXPECT_TRUE(que2);
    const auto res2 = o.handle(*que2, be_.now());
    EXPECT_TRUE(res2);
    EXPECT_EQ(s.handle(*res2, be_.now()).status, core::HandleStatus::kOk);
    return que1;
  }

  static ResumptionParams enabled_resumption() {
    ResumptionParams r;
    r.enabled = true;
    return r;
  }

  Backend be_;
  backend::SubjectCredentials alice_;
  backend::ObjectCredentials tv_, radio_;
};

TEST_F(EnginePersistFixture, ObjectRestoreIsExactAndIdempotent) {
  auto s = make_subject();
  auto o = make_object(tv_);
  const Bytes que1 = exchange(s, o);
  ASSERT_GT(o.open_sessions() + o.cached_replies(), 0u);
  const Bytes blob = o.snapshot();

  ASSERT_EQ(o.restore(blob), RestoreError::kOk);
  const Bytes digest_once = o.state_digest();
  const std::size_t sessions = o.open_sessions();
  const std::size_t replies = o.cached_replies();
  const std::size_t replays = o.replay_entries();

  // Restoring the same blob again lands on the identical state: the
  // restore is a pure function of (config, blob), no residue.
  ASSERT_EQ(o.restore(blob), RestoreError::kOk);
  EXPECT_EQ(o.state_digest(), digest_once);
  EXPECT_EQ(o.open_sessions(), sessions);
  EXPECT_EQ(o.cached_replies(), replies);
  EXPECT_EQ(o.replay_entries(), replays);

  // Behavioral exactness: the restored replay window still recognizes
  // the original round's nonce — a completed exchange replays as a
  // cached resend or stale-silence, never as fresh work.
  const std::uint64_t seen_replays = o.stats().replays_detected;
  const auto dup = o.handle(que1, be_.now());
  EXPECT_TRUE(dup.status == core::HandleStatus::kDuplicate ||
              dup.status == core::HandleStatus::kStale)
      << static_cast<int>(dup.status);
  EXPECT_EQ(o.stats().replays_detected, seen_replays + 1);
}

TEST_F(EnginePersistFixture, SubjectRestorePreservesDiscoveries) {
  auto s = make_subject();
  auto o = make_object(tv_);
  exchange(s, o);
  ASSERT_EQ(s.discovered().size(), 1u);
  const Bytes blob = s.snapshot();

  ASSERT_EQ(s.restore(blob), RestoreError::kOk);
  const Bytes digest_once = s.state_digest();
  ASSERT_EQ(s.discovered().size(), 1u);
  EXPECT_EQ(s.discovered()[0].object_id, "tv-1");

  ASSERT_EQ(s.restore(blob), RestoreError::kOk);
  EXPECT_EQ(s.state_digest(), digest_once);
}

TEST_F(EnginePersistFixture, VerifiedCacheIsNotInSnapshotsOrDigests) {
  // Two engines take the same message. One checks the certificate and
  // caches it before a bad handshake signature stops it; the other
  // meets the certificate outside its validity window and never consults
  // the cache. Both count one reject and keep their sessions, so once the
  // modelled compute (one more verify charged to the first) is drained,
  // their state is identical while only one cache is warm.
  const std::uint64_t expired = alice_.cert.not_after + 1;
  auto s = make_subject();
  auto o_warm = make_object(tv_);
  auto o_cold = make_object(tv_);
  const Bytes que1 = s.start_round();
  const auto res1 = o_warm.handle(que1, be_.now());
  ASSERT_TRUE(res1);
  ASSERT_EQ(*o_cold.handle(que1, be_.now()), *res1);
  const auto que2 = s.handle(*res1, be_.now());
  ASSERT_TRUE(que2);
  auto msg = core::decode(*que2);
  ASSERT_TRUE(msg);
  std::get<core::Que2>(*msg).sig[4] ^= 0x01;
  const Bytes bad_que2 = core::encode(*msg);
  EXPECT_EQ(o_warm.handle(bad_que2, be_.now()).status,
            core::HandleStatus::kBadSignature);
  EXPECT_EQ(o_cold.handle(bad_que2, expired).status,
            core::HandleStatus::kBadCert);
  ASSERT_EQ(o_warm.verified_cache().size(), 1u);
  ASSERT_EQ(o_cold.verified_cache().size(), 0u);
  o_warm.take_consumed_ms();
  o_cold.take_consumed_ms();
  EXPECT_EQ(o_warm.snapshot(), o_cold.snapshot());
  EXPECT_EQ(o_warm.state_digest(), o_cold.state_digest());

  // The same on the subject side, with a RES1 whose signature is bad.
  auto s_warm = make_subject();
  auto s_cold = make_subject();
  auto o = make_object(tv_);
  const Bytes q1 = s_warm.start_round();
  ASSERT_EQ(s_cold.start_round(), q1);
  const auto r1 = o.handle(q1, be_.now());
  ASSERT_TRUE(r1);
  auto r1_msg = core::decode(*r1);
  ASSERT_TRUE(r1_msg);
  std::get<core::Res1>(*r1_msg).sig[4] ^= 0x01;
  const Bytes bad_res1 = core::encode(*r1_msg);
  EXPECT_EQ(s_warm.handle(bad_res1, be_.now()).status,
            core::HandleStatus::kBadSignature);
  EXPECT_EQ(s_cold.handle(bad_res1, tv_.cert.not_after + 1).status,
            core::HandleStatus::kBadCert);
  ASSERT_EQ(s_warm.verified_cache().size(), 1u);
  ASSERT_EQ(s_cold.verified_cache().size(), 0u);
  s_warm.take_consumed_ms();
  s_cold.take_consumed_ms();
  EXPECT_EQ(s_warm.snapshot(), s_cold.snapshot());
  EXPECT_EQ(s_warm.state_digest(), s_cold.state_digest());
}

TEST_F(EnginePersistFixture, RestoredEngineStartsWithAColdVerifiedCache) {
  auto s = make_subject();
  auto o = make_object(tv_);
  exchange(s, o);
  exchange(s, o);
  ASSERT_EQ(s.verified_cache().hits(), 2u);  // object cert + profile
  ASSERT_EQ(o.verified_cache().hits(), 2u);  // subject cert + profile
  ASSERT_EQ(s.restore(s.snapshot()), RestoreError::kOk);
  ASSERT_EQ(o.restore(o.snapshot()), RestoreError::kOk);
  EXPECT_EQ(s.verified_cache().size(), 0u);
  EXPECT_EQ(o.verified_cache().size(), 0u);
  // The first checks after the restore are misses, and the round still
  // completes.
  exchange(s, o);
  EXPECT_EQ(s.verified_cache().hits(), 0u);
  EXPECT_EQ(s.verified_cache().misses(), 2u);
  EXPECT_EQ(o.verified_cache().hits(), 0u);
  EXPECT_EQ(o.verified_cache().misses(), 2u);
}

TEST_F(EnginePersistFixture, IdentityMismatchLeavesEngineBlank) {
  auto s = make_subject();
  auto tv = make_object(tv_);
  auto radio = make_object(radio_);
  exchange(s, tv);
  exchange(s, radio);
  const Bytes tv_blob = tv.snapshot();

  // tv's state must never restore into radio: intact envelope, wrong
  // identity — and the failed restore leaves radio blank, not half-tv.
  EXPECT_EQ(radio.restore(tv_blob), RestoreError::kIdentityMismatch);
  EXPECT_EQ(radio.open_sessions(), 0u);
  EXPECT_EQ(radio.cached_replies(), 0u);
  EXPECT_EQ(radio.replay_entries(), 0u);

  // Wrong state machine entirely: a subject blob into an object engine.
  EXPECT_EQ(tv.restore(s.snapshot()), RestoreError::kBadKind);
  EXPECT_EQ(tv.open_sessions(), 0u);
}

TEST_F(EnginePersistFixture, FailedRestoreMatchesFreshEngine) {
  auto o = make_object(tv_);
  const Bytes blank = o.state_digest();
  auto s = make_subject();
  exchange(s, o);
  ASSERT_NE(o.state_digest(), blank);

  EXPECT_EQ(o.restore(Bytes{0xde, 0xad}), RestoreError::kTruncated);
  EXPECT_EQ(o.state_digest(), blank);
}

TEST_F(EnginePersistFixture, RestoreRotatesEpochAndDropsPremasters) {
  auto s = make_subject(enabled_resumption());
  auto o = make_object(tv_, enabled_resumption());
  exchange(s, o);
  ASSERT_EQ(o.resume_entries(), 1u);
  ASSERT_EQ(s.resume_entries(), 1u);

  // Object side: the premaster cache is parsed but never revived, and
  // the semi-static epoch is rotated past the snapshot's.
  ASSERT_EQ(o.restore(o.snapshot()), RestoreError::kOk);
  EXPECT_EQ(o.resume_entries(), 0u);
  EXPECT_EQ(o.stats().resumption_dropped, 1u);

  // Subject side keeps the same invariant.
  ASSERT_EQ(s.restore(s.snapshot()), RestoreError::kOk);
  EXPECT_EQ(s.resume_entries(), 0u);
  EXPECT_EQ(s.stats().resumption_dropped, 1u);

  // The next exchange cannot be a resumption hit — stale premaster
  // material must never survive a reboot.
  exchange(s, o);
  EXPECT_EQ(o.stats().resumption_hits, 0u);
  EXPECT_EQ(s.stats().resumption_hits, 0u);
  EXPECT_EQ(o.stats().resumption_misses, 2u);
}

TEST_F(EnginePersistFixture, BackendRoundTripIsExact) {
  const Bytes digest_before = be_.state_digest();
  const Bytes blob = be_.snapshot();

  // Mutate past the snapshot point, then restore: exact rewind.
  (void)be_.register_subject("bob", AttributeMap{{"position", "intern"}});
  (void)be_.register_object("lamp", AttributeMap{{"type", "light"}},
                            Level::kL1, {"read"});
  ASSERT_NE(be_.state_digest(), digest_before);
  ASSERT_EQ(be_.restore(blob), RestoreError::kOk);
  EXPECT_EQ(be_.state_digest(), digest_before);

  // Determinism after restore: the rewound RNG and counters replay the
  // same registration into byte-identical state.
  (void)be_.register_subject("bob", AttributeMap{{"position", "intern"}});
  const Bytes after_once = be_.state_digest();
  ASSERT_EQ(be_.restore(blob), RestoreError::kOk);
  (void)be_.register_subject("bob", AttributeMap{{"position", "intern"}});
  EXPECT_EQ(be_.state_digest(), after_once);
}

TEST_F(EnginePersistFixture, BackendRejectsForeignAndCorruptSnapshots) {
  const Bytes digest_before = be_.state_digest();
  // A backend with another seed: intact snapshot, different identity.
  Backend other(crypto::Strength::b128, 9999);
  EXPECT_EQ(be_.restore(other.snapshot()), RestoreError::kIdentityMismatch);
  // The failed restore left a blank backend (admin key regenerated from
  // the seed), so rebuilding the original registrations is still possible
  // — but the pre-failure state is gone, proving no partial application.
  EXPECT_NE(be_.state_digest(), digest_before);

  Bytes corrupt = other.snapshot();
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_EQ(be_.restore(corrupt), RestoreError::kBadChecksum);
}

}  // namespace
}  // namespace argus::persist
