// The object core's one step, case by case. One Level-3 object core
// answers a non-fellow, a fellow, a duplicate QUE2, then runs Byzantine
// and, after a reboot, as a zombie. A twin ObjectEngine with the same
// config is fed the same payloads at the same times, so each step's reply
// bytes, status and modeled cost are checked against the honest engine's,
// and its reply level against the rule the timing auditor reads.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "argus/object_core.hpp"
#include "argus/subject_engine.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Level;

constexpr std::uint64_t kPeer = 7;

class ObjectCoreTest : public ::testing::Test {
 protected:
  /// What the twin engine did with a payload.
  struct Honest {
    HandleResult result;
    double ms = 0;
  };

  ObjectCoreTest() : be_(crypto::Strength::b128, 2024) {
    magazine_ = be_.register_object(
        "magazine-1", AttributeMap{{"type", "vending"}}, Level::kL3, {},
        {{"position!='visitor'", "regular", {"sell magazines"}}},
        {{"counseling", "support", {"dispense support flyers"}}});
    core_.emplace(config(), be_.now());
    twin_.emplace(config());
  }

  [[nodiscard]] ObjectEngineConfig config() const {
    ObjectEngineConfig cfg;
    cfg.creds = magazine_;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 6;
    return cfg;
  }

  SubjectEngine subject(const std::string& id, const std::string& position,
                        std::vector<std::string> groups = {}) {
    SubjectEngineConfig cfg;
    cfg.creds = be_.register_subject(id, AttributeMap{{"position", position}},
                                     std::move(groups));
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 5;
    return SubjectEngine(std::move(cfg));
  }

  /// Step the core on `payload`, and the twin on the same payload at the
  /// same time.
  std::pair<ObjectCore::Step, Honest> step(ByteSpan payload) {
    now_ms_ += 10;
    twin_->advance_clock(now_ms_);
    Honest honest{twin_->handle(payload, be_.now(), kPeer), 0};
    honest.ms = twin_->take_consumed_ms();
    return {core_->step(payload, kPeer, now_ms_), std::move(honest)};
  }

  backend::Backend be_;
  backend::ObjectCredentials magazine_;
  std::optional<ObjectCore> core_;
  std::optional<ObjectEngine> twin_;
  double now_ms_ = 0;
};

TEST_F(ObjectCoreTest, StepReportsReplyStatusLevelAndCost) {
  // 1. A non-fellow gets the cover face: a Level-2 RES2.
  SubjectEngine bob = subject("bob", "employee");
  const auto [res1, res1_honest] = step(bob.start_round());
  ASSERT_TRUE(res1.result);
  EXPECT_EQ(res1.result.reply, res1_honest.result.reply);
  EXPECT_EQ(res1.result.status, HandleStatus::kOk);
  EXPECT_EQ(res1.reply_level, 0u);  // a RES1 is no face
  EXPECT_GT(res1.consumed_ms, 0);
  EXPECT_EQ(res1.consumed_ms, res1_honest.ms);
  EXPECT_FALSE(res1.zombie_suppressed);
  const auto bob_que2 = bob.handle(*res1.result, be_.now());
  ASSERT_TRUE(bob_que2);
  const auto [cover, cover_honest] = step(*bob_que2);
  ASSERT_TRUE(cover.result);
  EXPECT_EQ(cover.result.reply, cover_honest.result.reply);
  EXPECT_EQ(cover.result.status, HandleStatus::kOk);
  EXPECT_EQ(cover.reply_level, 2u);
  EXPECT_GT(cover.consumed_ms, 0);
  EXPECT_EQ(cover.consumed_ms, cover_honest.ms);

  // 2. A fellow gets the covert face: a Level-3 RES2, padded to the
  // cover face's length.
  SubjectEngine alice = subject("alice", "manager", {"counseling"});
  const auto [alice_res1, alice_res1_honest] = step(alice.start_round());
  ASSERT_TRUE(alice_res1.result);
  const auto alice_que2 = alice.handle(*alice_res1.result, be_.now());
  ASSERT_TRUE(alice_que2);
  const auto [covert, covert_honest] = step(*alice_que2);
  ASSERT_TRUE(covert.result);
  EXPECT_EQ(covert.result.reply, covert_honest.result.reply);
  EXPECT_EQ(covert.result.status, HandleStatus::kOk);
  EXPECT_EQ(covert.reply_level, 3u);
  EXPECT_EQ(covert.result->size(), cover.result->size());
  EXPECT_GT(covert.consumed_ms, 0);
  EXPECT_EQ(covert.consumed_ms, covert_honest.ms);

  // 3. The fellow's QUE2 again: the cached Level-3 RES2 is resent as a
  // duplicate. No fellow is confirmed by it, so the rule labels it
  // level 2, a cover face; the timing auditor reads such resends so.
  const auto [dup, dup_honest] = step(*alice_que2);
  ASSERT_TRUE(dup.result);
  EXPECT_EQ(dup.result.reply, covert.result.reply);
  EXPECT_EQ(dup.result.status, HandleStatus::kDuplicate);
  EXPECT_EQ(dup.reply_level, 2u);
  EXPECT_EQ(dup.consumed_ms, dup_honest.ms);

  // 4. Byzantine: every reply leaves truncated to a strict prefix, drawn
  // from the DRBG stream a mutator armed with the same seed draws. A cut
  // RES2 keeps its type byte, so it still reads as a face.
  core_->arm_byzantine(fault::ByzantineMode::kTruncate, 99);
  fault::ByzantineMutator mutator;
  mutator.arm(fault::ByzantineMode::kTruncate, 99);
  const auto [cut_res1, cut_res1_honest] = step(bob.start_round());
  ASSERT_TRUE(cut_res1.result);
  EXPECT_EQ(*cut_res1.result, mutator.mutate(*cut_res1_honest.result));
  EXPECT_LT(cut_res1.result->size(), cut_res1_honest.result->size());
  EXPECT_EQ(cut_res1.result.status, HandleStatus::kOk);
  EXPECT_EQ(cut_res1.consumed_ms, cut_res1_honest.ms);
  const auto bob_que2_again = bob.handle(*cut_res1_honest.result, be_.now());
  ASSERT_TRUE(bob_que2_again);
  const auto [cut_res2, cut_res2_honest] = step(*bob_que2_again);
  ASSERT_TRUE(cut_res2.result);
  const Bytes want = mutator.mutate(*cut_res2_honest.result);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(*cut_res2.result, want);
  EXPECT_LT(want.size(), cut_res2_honest.result->size());
  EXPECT_EQ(cut_res2.result.status, HandleStatus::kOk);
  EXPECT_EQ(cut_res2.reply_level, 2u);
  EXPECT_EQ(cut_res2.consumed_ms, cut_res2_honest.ms);

  // 5. A reboot rebuilds the engine and disarms the Byzantine mutator; a
  // zombie then does the work and no reply leaves, so no face does.
  core_->reboot();
  twin_.emplace(config());
  core_->make_zombie();
  const auto [eaten_res1, eaten_res1_honest] = step(bob.start_round());
  EXPECT_FALSE(eaten_res1.result);
  EXPECT_EQ(eaten_res1.result.status, HandleStatus::kOk);
  EXPECT_EQ(eaten_res1.zombie_suppressed, eaten_res1_honest.result->size());
  EXPECT_EQ(eaten_res1.consumed_ms, eaten_res1_honest.ms);
  const auto bob_que2_zombie =
      bob.handle(*eaten_res1_honest.result, be_.now());
  ASSERT_TRUE(bob_que2_zombie);
  const auto [eaten_res2, eaten_res2_honest] = step(*bob_que2_zombie);
  ASSERT_TRUE(eaten_res2_honest.result);
  EXPECT_FALSE(eaten_res2.result);
  EXPECT_EQ(eaten_res2.result.status, HandleStatus::kOk);
  EXPECT_EQ(eaten_res2.reply_level, 0u);
  EXPECT_EQ(eaten_res2.zombie_suppressed, eaten_res2_honest.result->size());
  EXPECT_GT(eaten_res2.consumed_ms, 0);
  EXPECT_EQ(eaten_res2.consumed_ms, eaten_res2_honest.ms);
}

}  // namespace
}  // namespace argus::core
