// Pins the snapshot byte format of all three snapshotters. Part (a)
// hashes the sealed snapshot of one rich state per snapshotter, so any
// change to a field, its width or its order moves a constant. Part (b)
// mutates the payload *inside* the envelope and re-seals it, so every
// mutant passes the checksum and reaches the field parser; the
// (RestoreError, state_digest) outcome of each of 300 mutants folds into
// one pinned hash. That pins what the parser accepts, what it rejects
// and with which error, not only the bytes the writer produces.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "backend/registry.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "persist/snapshot.hpp"

namespace argus::persist {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;
using core::ObjectEngine;
using core::ObjectEngineConfig;
using core::SubjectEngine;
using core::SubjectEngineConfig;

constexpr int kMutants = 300;

/// One seeded payload mutation: truncate, flip 1..4 bits, extend with
/// garbage, or overwrite a window with garbage.
Bytes mutate(const Bytes& payload, crypto::HmacDrbg& rng) {
  Bytes out = payload;
  switch (rng.uniform(4)) {
    case 0:
      out.resize(static_cast<std::size_t>(rng.uniform(out.size())));
      break;
    case 1:
      for (std::uint64_t i = 0, n = 1 + rng.uniform(4); i < n; ++i) {
        const std::size_t bit =
            static_cast<std::size_t>(rng.uniform(out.size() * 8));
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    case 2: {
      const Bytes extra = rng.generate(1 + rng.uniform(64));
      out.insert(out.end(), extra.begin(), extra.end());
      break;
    }
    default: {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform(out.size()));
      const Bytes junk = rng.generate(1 + rng.uniform(32));
      for (std::size_t i = 0; i < junk.size() && at + i < out.size(); ++i) {
        out[at + i] = junk[i];
      }
      break;
    }
  }
  return out;
}

/// Restore every mutant of `sealed`'s payload, re-sealed as `kind`, and
/// fold each outcome into one hash. No restore may throw.
std::string mutant_outcomes(
    const Bytes& sealed, SnapshotKind kind, std::uint64_t seed,
    const std::function<RestoreError(const Bytes&)>& restore,
    const std::function<Bytes()>& digest) {
  const OpenResult open = open_snapshot(sealed, kind);
  EXPECT_TRUE(open);
  crypto::HmacDrbg rng = crypto::make_rng(seed, "format-pin");
  crypto::Sha256 fold;
  for (int i = 0; i < kMutants; ++i) {
    const Bytes mutant = seal_snapshot(kind, mutate(open.payload, rng));
    RestoreError err = RestoreError::kOk;
    EXPECT_NO_THROW(err = restore(mutant)) << "mutant " << i;
    const std::uint8_t code = static_cast<std::uint8_t>(err);
    fold.update(ByteSpan(&code, 1));
    fold.update(digest());
  }
  return to_hex(fold.finish());
}

std::string sha256_hex(const Bytes& data) {
  return to_hex(crypto::Sha256::hash(data));
}

class SnapshotFormatPin : public ::testing::Test {
 protected:
  SnapshotFormatPin() : be_(crypto::Strength::b128, 8080) {
    ann_ = be_.register_subject(
        "ann", AttributeMap{{"position", "manager"}}, {"counseling"});
    cal_ = be_.register_subject(
        "cal", AttributeMap{{"position", "employee"}});
    (void)be_.register_subject("dan", AttributeMap{{"position", "intern"}},
                               {"counseling"});
    lamp_ = be_.register_object("lamp-1", AttributeMap{{"type", "light"}},
                                Level::kL1, {"on", "off"});
    tv_ = be_.register_object(
        "tv-1", AttributeMap{{"type", "multimedia"}, {"room", "r1"}},
        Level::kL2, {},
        {{"position=='manager'", "managers", {"play"}},
         {"position=='employee'", "staff", {"watch"}}});
    kiosk_ = be_.register_object(
        "kiosk-1", AttributeMap{{"type", "vending"}}, Level::kL3, {},
        {{"position!='visitor'", "regular", {"sell"}}},
        {{"counseling", "support", {"flyers"}}});
    be_.add_policy("position=='manager'", "type=='multimedia'", {"play"});
    be_.add_policy("position!='visitor'", "type=='vending'", {"buy", "pay"});
    (void)be_.revoke_subject("dan");
  }

  SubjectEngine make_subject(const backend::SubjectCredentials& creds,
                             std::uint64_t seed) {
    SubjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = seed;
    cfg.resumption.enabled = true;
    return SubjectEngine(std::move(cfg));
  }

  ObjectEngine make_object(const backend::ObjectCredentials& creds,
                           std::uint64_t seed) {
    ObjectEngineConfig cfg;
    cfg.creds = creds;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = seed;
    cfg.resumption.enabled = true;
    cfg.admission.enabled = true;
    return ObjectEngine(std::move(cfg));
  }

  /// A Level-3 object with every persisted table non-empty: one full
  /// exchange (RES2 cache, premaster cache, replay window), one open
  /// session, two admission peers and a revoked subject.
  ObjectEngine rich_object() {
    ObjectEngine o = make_object(kiosk_, 17);
    SubjectEngine ann = make_subject(ann_, 18);
    SubjectEngine cal = make_subject(cal_, 19);
    const std::uint64_t now = be_.now();
    o.advance_clock(1000.0);
    const auto res1 = o.handle(ann.start_round(), now, 1);
    EXPECT_TRUE(res1);
    const auto que2 = ann.handle(*res1, now);
    EXPECT_TRUE(que2);
    const auto res2 = o.handle(*que2, now, 1);
    EXPECT_TRUE(res2);
    EXPECT_EQ(ann.handle(*res2, now).status, core::HandleStatus::kOk);
    o.advance_clock(2500.0);
    EXPECT_TRUE(o.handle(cal.start_round(), now, 2));
    o.revoke_subject("mallory");

    EXPECT_GT(o.open_sessions(), 0u);
    EXPECT_GT(o.cached_replies(), 0u);
    EXPECT_GT(o.resume_entries(), 0u);
    EXPECT_GT(o.replay_entries(), 0u);
    EXPECT_GT(o.peer_bucket_count(), 0u);
    EXPECT_TRUE(o.is_revoked("mallory"));
    return o;
  }

  /// A subject mid-round: a Level-1 and a Level-2 discovery (completed
  /// exchange, premaster cached) and a Level-3 handshake still open.
  SubjectEngine rich_subject() {
    SubjectEngine s = make_subject(ann_, 21);
    ObjectEngine lamp = make_object(lamp_, 22);
    ObjectEngine tv = make_object(tv_, 23);
    ObjectEngine kiosk = make_object(kiosk_, 24);
    const std::uint64_t now = be_.now();
    const Bytes que1 = s.start_round();
    const auto lamp_res1 = lamp.handle(que1, now);
    EXPECT_TRUE(lamp_res1);
    EXPECT_EQ(s.handle(*lamp_res1, now).status, core::HandleStatus::kOk);
    const auto tv_res1 = tv.handle(que1, now);
    EXPECT_TRUE(tv_res1);
    const auto tv_que2 = s.handle(*tv_res1, now);
    EXPECT_TRUE(tv_que2);
    const auto tv_res2 = tv.handle(*tv_que2, now);
    EXPECT_TRUE(tv_res2);
    EXPECT_EQ(s.handle(*tv_res2, now).status, core::HandleStatus::kOk);
    const auto kiosk_res1 = kiosk.handle(que1, now);
    EXPECT_TRUE(kiosk_res1);
    EXPECT_TRUE(s.handle(*kiosk_res1, now));

    EXPECT_GT(s.open_sessions(), 0u);
    EXPECT_GT(s.resume_entries(), 0u);
    EXPECT_GE(s.discovered().size(), 2u);
    return s;
  }

  Backend be_;
  backend::SubjectCredentials ann_, cal_;
  backend::ObjectCredentials lamp_, tv_, kiosk_;
};

TEST_F(SnapshotFormatPin, SealedBytes) {
  EXPECT_EQ(sha256_hex(be_.snapshot()),
            "95d6a7ad2f5396312e6897282f7400d0498c782f54ca9301c1b827816b78dbc5");
  EXPECT_EQ(sha256_hex(rich_object().snapshot()),
            "4d534ca92795d03211bfac5f80ac029da378b788a7b5856618a38fce6d378dc9");
  EXPECT_EQ(sha256_hex(rich_subject().snapshot()),
            "f3917cf17d6cf78287f5ce4e3670a0d0da25e4403b16a76e022b652889af6c32");
}

TEST_F(SnapshotFormatPin, BackendPayloadMutants) {
  Backend target(crypto::Strength::b128, 8080);
  EXPECT_EQ(
      mutant_outcomes(
          be_.snapshot(), SnapshotKind::kBackend, 31,
          [&](const Bytes& b) { return target.restore(b); },
          [&] { return target.state_digest(); }),
      "1e0fa62b6644dc596515d350c37d2f933a5d85380c5517cb930bb640ff597b55");
}

TEST_F(SnapshotFormatPin, ObjectEnginePayloadMutants) {
  ObjectEngine o = rich_object();
  const Bytes sealed = o.snapshot();
  EXPECT_EQ(
      mutant_outcomes(
          sealed, SnapshotKind::kObjectEngine, 32,
          [&](const Bytes& b) { return o.restore(b); },
          [&] { return o.state_digest(); }),
      "8a6a0cc5b9c6bd948bf6440cacbf65edbe64888dfc15661c8c0e4c308c2a5c8d");
}

TEST_F(SnapshotFormatPin, SubjectEnginePayloadMutants) {
  SubjectEngine s = rich_subject();
  const Bytes sealed = s.snapshot();
  EXPECT_EQ(
      mutant_outcomes(
          sealed, SnapshotKind::kSubjectEngine, 33,
          [&](const Bytes& b) { return s.restore(b); },
          [&] { return s.state_digest(); }),
      "8e3252e9a1ca1d4d3984a39fd6bf5b75c30d2433a8f94a76beaa42523aad3355");
}

}  // namespace
}  // namespace argus::persist
