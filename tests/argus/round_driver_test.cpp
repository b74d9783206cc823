// Subject round driver, hand-stepped: real engines on both sides, no
// network. A tiny owner keeps the driver's timers in a deadline table
// (the way the daemon client does) and logs every send with the virtual
// time it went out, so each retry schedule is asserted to the millisecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "argus/object_engine.hpp"
#include "argus/round_driver.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Backend;
using backend::Level;
using Kind = RoundDriver::Effect::Kind;
using Phase = RoundDriver::Phase;

constexpr double kIdle = std::numeric_limits<double>::infinity();

struct Sent {
  double at = 0;
  std::size_t slot = 0;
  Bytes wire;
};

/// Owner of one driver on a virtual clock.
struct Stepper {
  RoundDriver driver;
  double now = 0;
  std::vector<double> due;  // per timer id
  Bytes que1;
  std::vector<double> broadcasts;  // QUE1 send times
  std::vector<Sent> sends;
  std::size_t arms = 0;

  Stepper(SubjectEngineConfig cfg, std::size_t slots, std::uint64_t epoch,
          const RetryPolicy& policy)
      : driver(std::move(cfg), slots, epoch, policy), due(slots + 1, kIdle) {}

  void apply(RoundDriver::Effects effects) {
    for (const RoundDriver::Effect& e : effects) {
      switch (e.kind) {
        case Kind::kBroadcast:
          que1.assign(e.wire.begin(), e.wire.end());
          broadcasts.push_back(now);
          break;
        case Kind::kSend:
          sends.push_back({now, e.slot, Bytes(e.wire.begin(), e.wire.end())});
          break;
        case Kind::kArm:
          due[e.slot] = now + e.delay_ms;
          ++arms;
          break;
        case Kind::kCancel:
          due[e.slot] = kIdle;
          break;
      }
    }
  }

  void begin(double t) {
    now = t;
    apply(driver.begin_round(0));
  }

  HandleStatus feed(std::size_t slot, const Bytes& frame) {
    const RoundDriver::Handled h = driver.on_frame(slot, frame);
    apply(h.effects);
    return h.status;
  }

  /// Fire every timer due up to `t`, earliest first.
  void run_until(double t) {
    for (;;) {
      const auto it = std::min_element(due.begin(), due.end());
      if (*it > t) break;
      now = *it;
      *it = kIdle;
      apply(driver.on_timer(static_cast<std::size_t>(it - due.begin())));
    }
    now = t;
  }

  [[nodiscard]] std::vector<double> send_times() const {
    std::vector<double> out;
    for (const Sent& s : sends) out.push_back(s.at);
    return out;
  }
  [[nodiscard]] bool idle() const {
    return std::all_of(due.begin(), due.end(),
                       [](double d) { return d == kIdle; });
  }
};

class RoundDriverTest : public ::testing::Test {
 protected:
  RoundDriverTest() : be_(crypto::Strength::b128, 31) {
    subject_ = be_.register_subject(
        "alice", AttributeMap{{"position", "employee"}});
    for (int i = 0; i < 2; ++i) {
      objects_.push_back(be_.register_object(
          "tv-" + std::to_string(i), AttributeMap{{"type", "multimedia"}},
          Level::kL2, {}, {{"position=='employee'", "staff", {"play"}}}));
    }
  }

  Stepper make(std::size_t slots, RetryMode mode = RetryMode::kOn) {
    SubjectEngineConfig cfg;
    cfg.creds = subject_;
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 7;
    RetryPolicy policy;
    policy.mode = mode;
    return Stepper(std::move(cfg), slots, be_.now(), policy);
  }

  ObjectEngine object(std::size_t i) {
    ObjectEngineConfig cfg;
    cfg.creds = objects_[i];
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 100 + i;
    return ObjectEngine(std::move(cfg));
  }

  /// The object's answer to `frame` (RES1 to QUE1, RES2 to QUE2).
  Bytes answer(ObjectEngine& obj, const Bytes& frame) {
    auto reply = obj.handle(frame, be_.now());
    EXPECT_TRUE(reply.has_value());
    return reply ? *reply : Bytes{};
  }

  Backend be_;
  backend::SubjectCredentials subject_;
  std::vector<backend::ObjectCredentials> objects_;
};

TEST_F(RoundDriverTest, Que1RebroadcastsBackOffThenStop) {
  Stepper s = make(1);  // the one object never answers
  s.begin(0);
  s.run_until(20000);
  EXPECT_EQ(s.broadcasts, (std::vector<double>{0, 600, 1800, 4200}));
  EXPECT_EQ(s.driver.counts().que1_retransmits, 3u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kAwaitRes1);
}

TEST_F(RoundDriverTest, Que2ResendsBackOffThenTimeOut) {
  Stepper s = make(1);
  ObjectEngine obj = object(0);
  s.begin(0);
  s.run_until(10);
  EXPECT_EQ(s.feed(0, answer(obj, s.que1)), HandleStatus::kOk);
  ASSERT_EQ(s.sends.size(), 1u);
  const Bytes que2 = s.sends[0].wire;

  s.run_until(6009);  // the QUE2 is never answered
  EXPECT_EQ(s.send_times(), (std::vector<double>{10, 410, 1210, 2810}));
  for (const Sent& sent : s.sends) {
    EXPECT_EQ(sent.slot, 0u);
    EXPECT_EQ(sent.wire, que2);
  }
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kAwaitRes2);
  s.run_until(6010);
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kTimedOut);
  EXPECT_EQ(s.driver.exchange(0).retransmits, 3u);
  EXPECT_EQ(s.driver.counts().que2_retransmits, 3u);
  EXPECT_EQ(s.driver.counts().que1_retransmits, 0u);  // RES1 came in time
  EXPECT_TRUE(s.driver.settled());
  EXPECT_TRUE(s.idle());
  s.run_until(20000);
  EXPECT_EQ(s.sends.size(), 4u);
}

TEST_F(RoundDriverTest, DuplicateRes1ResendsQue2WithoutMovingTimer) {
  Stepper s = make(1);
  ObjectEngine obj = object(0);
  s.begin(0);
  s.run_until(10);
  const Bytes res1 = answer(obj, s.que1);
  s.feed(0, res1);
  const Bytes que2 = s.sends[0].wire;

  s.run_until(200);
  const RoundDriver::Handled dup = s.driver.on_frame(0, res1);
  EXPECT_EQ(dup.status, HandleStatus::kDuplicate);
  ASSERT_EQ(dup.effects.size(), 1u);
  EXPECT_EQ(dup.effects[0].kind, Kind::kSend);
  EXPECT_EQ(Bytes(dup.effects[0].wire.begin(), dup.effects[0].wire.end()),
            que2);
  s.apply(dup.effects);

  s.run_until(1210);  // first resend still at RES1 + 400, budget untouched
  EXPECT_EQ(s.send_times(), (std::vector<double>{10, 200, 410, 1210}));
  EXPECT_EQ(s.driver.exchange(0).que2_attempts, 2u);
}

TEST_F(RoundDriverTest, RoundDeadlineParksPendingExchanges) {
  Stepper s = make(2);
  ObjectEngine answering = object(0);  // object 1 stays silent
  s.begin(100);
  EXPECT_EQ(s.driver.deadline_after(100), 8100);
  s.run_until(150);
  s.feed(0, answer(answering, s.que1));
  s.run_until(200);
  EXPECT_EQ(s.feed(0, answer(answering, s.sends.back().wire)),
            HandleStatus::kOk);
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kDone);
  EXPECT_FALSE(s.driver.settled());

  s.run_until(1000);  // QUE1 timer still live (next at 1900)
  ASSERT_FALSE(s.idle());
  const RoundDriver::Effects closing = s.driver.end_round();
  ASSERT_EQ(closing.size(), 1u);
  EXPECT_EQ(closing[0].kind, Kind::kCancel);
  EXPECT_EQ(closing[0].slot, s.driver.que1_timer());
  s.apply(closing);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kDone);
  EXPECT_EQ(s.driver.exchange(1).phase, Phase::kTimedOut);
  EXPECT_TRUE(s.driver.settled());
}

TEST_F(RoundDriverTest, LateRes2AfterTimeoutStillResolves) {
  Stepper s = make(1);
  ObjectEngine obj = object(0);
  s.begin(0);
  s.feed(0, answer(obj, s.que1));
  const Bytes res2 = answer(obj, s.sends[0].wire);  // held back
  s.run_until(6000);
  ASSERT_EQ(s.driver.exchange(0).phase, Phase::kTimedOut);
  EXPECT_EQ(s.feed(0, res2), HandleStatus::kOk);
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kDone);
  EXPECT_EQ(s.driver.engine().discovered().size(), 1u);
}

TEST_F(RoundDriverTest, LosslessModeNeverArmsATimer) {
  Stepper s = make(2, RetryMode::kOff);
  ObjectEngine obj = object(0);  // object 1 stays silent
  s.begin(0);
  s.feed(0, answer(obj, s.que1));
  s.feed(0, answer(obj, s.sends.back().wire));
  s.run_until(20000);
  EXPECT_EQ(s.arms, 0u);
  EXPECT_EQ(s.broadcasts.size(), 1u);
  EXPECT_EQ(s.sends.size(), 1u);
  EXPECT_EQ(s.driver.exchange(0).phase, Phase::kDone);
  EXPECT_EQ(s.driver.exchange(1).phase, Phase::kAwaitRes1);
  EXPECT_TRUE(s.driver.end_round().empty());
  EXPECT_EQ(s.driver.exchange(1).phase, Phase::kTimedOut);
}

TEST_F(RoundDriverTest, RediscoveryInALaterRoundResolves) {
  // The engine dedupes a service found in an earlier round; the exchange
  // must settle anyway, or every later lossy round would run its whole
  // retry budget.
  Stepper s = make(1);
  ObjectEngine obj = object(0);
  for (int round = 0; round < 2; ++round) {
    s.begin(round * 10000.0);
    s.feed(0, answer(obj, s.que1));
    EXPECT_EQ(s.feed(0, answer(obj, s.sends.back().wire)), HandleStatus::kOk);
    EXPECT_EQ(s.driver.exchange(0).phase, Phase::kDone) << "round " << round;
    EXPECT_TRUE(s.driver.settled());
    EXPECT_TRUE(s.idle());
  }
  EXPECT_EQ(s.driver.engine().discovered().size(), 1u);
}

}  // namespace
}  // namespace argus::core
