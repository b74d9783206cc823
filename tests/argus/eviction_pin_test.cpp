// Pins which entry every bounded engine table evicts. Small capacities
// force constant eviction in the object's sessions, RES2 cache, replay
// window, premaster cache and admission buckets, and in the subject's
// premaster cache, while a seeded mix of fresh and duplicate QUE1/QUE2
// from several peers, clock advances and snapshot reboots drives them.
// The state digest after every step folds into one hash, so a different
// victim anywhere changes the pinned constant.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <random>

#include "argus/object_engine.hpp"
#include "argus/subject_engine.hpp"
#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Level;

constexpr std::size_t kSubjects = 3;
constexpr std::size_t kObjects = 3;

struct Bounds {
  std::size_t session_capacity;
  std::size_t replay_window;
  std::size_t resume_capacity;
  std::size_t peer_capacity;
};

struct Outcome {
  std::string digest_hex;
  std::uint64_t object_evictions = 0;
  std::uint64_t peer_evictions = 0;
  std::uint64_t subject_evictions = 0;
};

class EvictionPinTest : public ::testing::Test {
 protected:
  EvictionPinTest() : be_(crypto::Strength::b128, 2020) {
    subjects_[0] = be_.register_subject(
        "ann", AttributeMap{{"position", "manager"}}, {"counseling"});
    subjects_[1] = be_.register_subject(
        "ben", AttributeMap{{"position", "employee"}});
    subjects_[2] = be_.register_subject(
        "cal", AttributeMap{{"position", "manager"}}, {"counseling"});
    objects_[0] = be_.register_object(
        "tv-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position=='manager'", "managers", {"play"}},
         {"position=='employee'", "staff", {"watch"}}});
    objects_[1] = be_.register_object(
        "kiosk-1", AttributeMap{{"type", "vending"}}, Level::kL3, {},
        {{"position!='visitor'", "regular", {"sell"}}},
        {{"counseling", "support", {"flyers"}}});
    objects_[2] = be_.register_object(
        "radio-1", AttributeMap{{"type", "multimedia"}}, Level::kL2, {},
        {{"position!='visitor'", "all", {"listen"}}});
  }

  ObjectEngineConfig object_config(std::size_t o, const Bounds& b) {
    ObjectEngineConfig cfg;
    cfg.creds = objects_[o];
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 31 + o;
    cfg.session_capacity = b.session_capacity;
    cfg.replay_window = b.replay_window;
    cfg.resumption.enabled = true;
    cfg.resumption.capacity = b.resume_capacity;
    cfg.admission.enabled = true;
    cfg.admission.peer_capacity = b.peer_capacity;
    cfg.admission.peer_rate_per_s = 2.0;
    cfg.admission.peer_burst = 3.0;
    cfg.admission.global_rate_per_s = 1000.0;
    cfg.admission.global_burst = 1000.0;
    cfg.metrics = metrics_.get();
    return cfg;
  }

  SubjectEngineConfig subject_config(std::size_t s, const Bounds& b) {
    SubjectEngineConfig cfg;
    cfg.creds = subjects_[s];
    cfg.admin_pub = be_.admin_public_key();
    cfg.seed = 51 + s;
    cfg.resumption.enabled = true;
    cfg.resumption.capacity = b.resume_capacity;
    cfg.metrics = metrics_.get();
    return cfg;
  }

  std::uint64_t counter(const std::string& name) const {
    const obs::Counter* c = metrics_->find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  Outcome drive(const Bounds& b, std::uint64_t seed, int steps) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    std::array<std::unique_ptr<ObjectEngine>, kObjects> objects;
    std::array<std::unique_ptr<SubjectEngine>, kSubjects> subjects;
    for (std::size_t o = 0; o < kObjects; ++o) {
      objects[o] = std::make_unique<ObjectEngine>(object_config(o, b));
    }
    for (std::size_t s = 0; s < kSubjects; ++s) {
      subjects[s] = std::make_unique<SubjectEngine>(subject_config(s, b));
    }
    // The last message each side of a (subject, object) pair sent; a
    // delivery either advances the exchange or repeats it verbatim.
    std::array<std::array<Bytes, kObjects>, kSubjects> to_object{};
    std::array<std::array<Bytes, kObjects>, kSubjects> to_subject{};
    std::mt19937_64 rng(seed);
    double clock_ms = 0;
    const std::uint64_t now = be_.now();
    crypto::Sha256 fold;
    for (int step = 0; step < steps; ++step) {
      const std::size_t s = rng() % kSubjects;
      const std::size_t o = rng() % kObjects;
      const std::uint64_t action = rng() % 20;
      if (action < 3) {
        const Bytes que1 = subjects[s]->start_round();
        for (std::size_t k = 0; k < kObjects; ++k) {
          to_object[s][k] = que1;
          to_subject[s][k].clear();
        }
      } else if (action < 10) {
        // Peer ids beyond the subjects stand for spoofed senders, so
        // the admission table sees more peers than it may keep.
        const std::uint64_t peer = rng() % (kSubjects + 2);
        if (!to_object[s][o].empty()) {
          const HandleResult r =
              objects[o]->handle(to_object[s][o], now, peer);
          if (r) to_subject[s][o] = *r;
        }
      } else if (action < 17) {
        if (!to_subject[s][o].empty()) {
          const HandleResult r = subjects[s]->handle(to_subject[s][o], now);
          if (r) to_object[s][o] = *r;
        }
      } else if (action < 19) {
        clock_ms += static_cast<double>(rng() % 9000);
        objects[o]->advance_clock(clock_ms);
      } else {
        // Reboot from a snapshot: the tables are rebuilt from stamps.
        auto rebooted = std::make_unique<ObjectEngine>(object_config(o, b));
        EXPECT_EQ(rebooted->restore(objects[o]->snapshot()),
                  persist::RestoreError::kOk);
        objects[o] = std::move(rebooted);
        auto reborn = std::make_unique<SubjectEngine>(subject_config(s, b));
        EXPECT_EQ(reborn->restore(subjects[s]->snapshot()),
                  persist::RestoreError::kOk);
        subjects[s] = std::move(reborn);
      }
      for (const auto& obj : objects) fold.update(obj->state_digest());
      for (const auto& sub : subjects) fold.update(sub->state_digest());
    }
    Outcome out;
    out.digest_hex = to_hex(fold.finish());
    for (const auto& obj : objects) {
      out.object_evictions += obj->stats().evictions;
    }
    out.peer_evictions = counter("object.admission.peer_evicted");
    out.subject_evictions = counter("subject.resumption.evict");
    EXPECT_EQ(out.object_evictions, counter("object.evict"));
    return out;
  }

  backend::Backend be_;
  std::array<backend::SubjectCredentials, kSubjects> subjects_;
  std::array<backend::ObjectCredentials, kObjects> objects_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

struct Pinned {
  Bounds bounds;
  const char* digest_hex;
  std::uint64_t object_evictions;
  std::uint64_t peer_evictions;
  std::uint64_t subject_evictions;
};

// Every pair of session capacity 1-3 and replay window 1-4 appears
// once; premaster capacity 1-2 and admission peer capacity 1-3 cycle.
constexpr Pinned kPinned[] = {
    {{1, 1, 1, 1},
     "ea78fe015887f39476d7b3432d4b7b94df351a70648e14c37979705a6bb9431c",
     119, 47, 11},
    {{2, 2, 2, 1},
     "974d3433391463f14bac79ccc10f5b35ba2f37d1cf79c4ad713b4fbca0a8a4d5",
     97, 48, 2},
    {{3, 3, 1, 1},
     "b9d53d4aae8687cd8f7366243e5d5bfd05c7db001e3ebe615230824f7243beb3",
     83, 47, 7},
    {{1, 4, 2, 1},
     "cef281a1e1889840e320fc9e575e116e64691581a534b3cf7d88feb17c14082b",
     101, 48, 5},
    {{2, 1, 1, 2},
     "cef6bca0aa496b5f6cbeb3766b5302659ab53e402967e2db64c428106f23e295",
     121, 49, 15},
    {{3, 2, 2, 2},
     "59135e66bc173accdc3e3fedb7a30f705725f5adcc103dbe35045e7e7d1a7f6b",
     111, 31, 5},
    {{1, 3, 1, 2},
     "b33e63ef6caead61e70124f69f669035b9269e635ae54e12f90b371bfa5d5555",
     98, 26, 17},
    {{2, 4, 2, 2},
     "6e61620e17714ec222e6a2068e8747c37b4b4da72f8855421dbf3329e3596cf3",
     91, 38, 4},
    {{3, 1, 1, 3},
     "d601e1749feb660d369dbf3b2981656460eed6a011bf34c1a87e824e5691aee9",
     114, 22, 10},
    {{1, 2, 2, 3},
     "0fe13316a97e15ee062a0c12f905dbbcd717cf47b03940d2409f467102f1b800",
     108, 18, 5},
    {{2, 3, 1, 3},
     "d4baf26ddcec8eae82673c70118dfbd5cde2e0310bb6db81994f1d82fce348e9",
     87, 22, 14},
    {{3, 4, 2, 3},
     "47b4bb4a8e2f708006abf082afd622bcc02f59fed3b51d991255e8f825cf43b3",
     92, 22, 5},
};

TEST_F(EvictionPinTest, VictimsMatchPinnedDigests) {
  std::uint64_t seed = 7000;
  for (const Pinned& pin : kPinned) {
    const Bounds& b = pin.bounds;
    const Outcome got = drive(b, seed++, 300);
    SCOPED_TRACE(testing::Message()
                 << "sessions " << b.session_capacity << " replay "
                 << b.replay_window << " resume " << b.resume_capacity
                 << " peers " << b.peer_capacity);
    EXPECT_EQ(got.digest_hex, pin.digest_hex);
    EXPECT_EQ(got.object_evictions, pin.object_evictions);
    EXPECT_EQ(got.peer_evictions, pin.peer_evictions);
    EXPECT_EQ(got.subject_evictions, pin.subject_evictions);
  }
}

}  // namespace
}  // namespace argus::core
