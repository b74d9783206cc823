// Replay window: the object's never-touched LruMap of seen nonces against
// a frozen copy of the min-stamp scan it replaced, at the table level and
// through a Level-1 ObjectEngine, across snapshot/restore, reset and
// copies.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <variant>

#include "argus/object_engine.hpp"
#include "common/lru_table.hpp"
#include "common/serde.hpp"

namespace argus::core {
namespace {

using backend::AttributeMap;
using backend::Level;

// Frozen reference: the seen-R_S map as it was, evicting by a full scan
// for the smallest stamp.
struct MinScanWindow {
  std::map<Bytes, std::uint64_t> seen;

  Bytes evict_oldest() {
    auto victim = seen.begin();
    for (auto it = seen.begin(); it != seen.end(); ++it) {
      if (it->second < victim->second) victim = it;
    }
    Bytes r_s = victim->first;
    seen.erase(victim);
    return r_s;
  }
};

/// A nonce from a small pool, so duplicates and re-inserts after
/// eviction both happen often.
Bytes pooled_nonce(std::mt19937_64& rng, std::size_t pool) {
  Bytes r_s(kNonceSize, 0);
  const auto pick = static_cast<std::uint16_t>(rng() % pool);
  r_s[0] = static_cast<std::uint8_t>(pick >> 8);
  r_s[kNonceSize - 1] = static_cast<std::uint8_t>(pick);
  return r_s;
}

using Window = LruMap<Bytes, std::monostate>;

std::map<Bytes, std::uint64_t> stamps_of(const Window& window) {
  std::map<Bytes, std::uint64_t> out;
  for (const auto& [r_s, entry] : window) out.emplace(r_s, entry.stamp);
  return out;
}

TEST(ReplayWindowTest, MatchesMinScanReference) {
  for (std::size_t bound = 1; bound <= 8; ++bound) {
    std::mt19937_64 rng(900 + bound);
    Window window;
    MinScanWindow ref;
    std::uint64_t stamp = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t action = rng() % 100;
      if (action == 0) {  // snapshot/restore: rebuild order from stamps
        Window::Index parsed;
        for (const auto& [r_s, s] : stamps_of(window)) {
          parsed.emplace(r_s, Window::Entry{{}, s});
        }
        Window restored;
        restored.assign(std::move(parsed));
        window = std::move(restored);
      } else if (action == 1) {  // copy, then keep going on the copy
        const Window copy(window);
        window = copy;
      } else if (action == 2) {  // reset to blank
        window.clear();
        ref.seen.clear();
        stamp = 0;
      }
      const Bytes r_s = pooled_nonce(rng, 3 * bound);
      const bool replay = ref.seen.contains(r_s);
      ASSERT_EQ(window.contains(r_s), replay) << "bound " << bound;
      if (replay) continue;
      window.put(r_s, {}, stamp);
      ref.seen.emplace(r_s, stamp);
      ++stamp;
      while (window.size() > bound) {
        ASSERT_EQ(window.oldest(), ref.evict_oldest())
            << "bound " << bound << " step " << step;
        window.evict_oldest();
      }
      ASSERT_EQ(stamps_of(window), ref.seen);
    }
  }
}

class ReplayEngineTest : public ::testing::Test {
 protected:
  ReplayEngineTest() : be_(crypto::Strength::b128, 77) {
    creds_ = be_.register_object("lamp-1", AttributeMap{{"type", "lamp"}},
                                 Level::kL1, {"switch"});
  }

  ObjectEngine make_object(std::size_t window) const {
    ObjectEngineConfig cfg;
    cfg.creds = creds_;
    cfg.admin_pub = be_.admin_public_key();
    cfg.replay_window = window;
    return ObjectEngine(std::move(cfg));
  }

  backend::Backend be_;
  backend::ObjectCredentials creds_;
};

/// The seen-R_S section of an object snapshot, as the reference holds it.
Bytes window_section(const MinScanWindow& ref) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(ref.seen.size()));
  for (const auto& [r_s, stamp] : ref.seen) {
    w.bytes16(r_s);
    w.u64(stamp);
  }
  return w.take();
}

bool contains_section(ByteSpan sealed, const Bytes& section) {
  const persist::OpenResult open =
      persist::open_snapshot(sealed, persist::SnapshotKind::kObjectEngine);
  return open && std::search(open.payload.begin(), open.payload.end(),
                             section.begin(),
                             section.end()) != open.payload.end();
}

// Drive a Level-1 object with fresh and duplicate QUE1s. A Level-1 QUE1
// consumes exactly one stamp when fresh and none when replayed, so the
// reference predicts every verdict, the counters and the window section
// of every snapshot. A restored engine (order rebuilt from stamps) and a
// restore of the live one must end in the same state digest.
TEST_F(ReplayEngineTest, EngineMatchesMinScanReference) {
  for (std::size_t bound = 1; bound <= 8; ++bound) {
    std::mt19937_64 rng(40 + bound);
    ObjectEngine live = make_object(bound);
    std::optional<ObjectEngine> restored;
    MinScanWindow ref;
    std::uint64_t stamp = 0, replays = 0, evictions = 0;
    for (int step = 0; step < 1500; ++step) {
      if (step == 200) {
        // reset_to_blank: a failed restore leaves the engine blank.
        ASSERT_NE(live.restore(Bytes{1, 2, 3}), persist::RestoreError::kOk);
        ref.seen.clear();
        stamp = replays = evictions = 0;
      }
      if (step == 700) {
        restored.emplace(make_object(bound));
        ASSERT_EQ(restored->restore(live.snapshot()),
                  persist::RestoreError::kOk);
      }
      const Bytes r_s = pooled_nonce(rng, 3 * bound);
      const Bytes que1 = encode(Que1{r_s});
      const bool replay = ref.seen.contains(r_s);
      const HandleResult got = live.handle(que1, 0);
      ASSERT_EQ(got.status,
                replay ? HandleStatus::kDuplicate : HandleStatus::kOk)
          << "bound " << bound << " step " << step;
      if (restored) {
        ASSERT_EQ(restored->handle(que1, 0).status, got.status);
      }
      if (replay) {
        ++replays;
      } else {
        ref.seen.emplace(r_s, stamp++);
        while (ref.seen.size() > bound) {
          (void)ref.evict_oldest();
          ++evictions;
        }
      }
      ASSERT_EQ(live.stats().replays_detected, replays);
      ASSERT_EQ(live.stats().evictions, evictions);
      ASSERT_EQ(live.replay_entries(), ref.seen.size());
      if (step % 97 == 0) {
        ASSERT_TRUE(contains_section(live.snapshot(), window_section(ref)))
            << "bound " << bound << " step " << step;
      }
    }
    ASSERT_TRUE(contains_section(live.snapshot(), window_section(ref)));
    ObjectEngine settled = make_object(bound);
    ASSERT_EQ(settled.restore(live.snapshot()), persist::RestoreError::kOk);
    EXPECT_EQ(settled.state_digest(), restored->state_digest())
        << "bound " << bound;
  }
}

// A snapshot whose replay stamps could not have come from the engine's
// counter (repeated, or not below it) restores blank.
TEST_F(ReplayEngineTest, RestoreRejectsImpossibleStamps) {
  ObjectEngine donor = make_object(4);
  for (std::uint8_t i = 0; i < 3; ++i) {
    Bytes r_s(kNonceSize, i);
    ASSERT_EQ(donor.handle(encode(Que1{r_s}), 0).status, HandleStatus::kOk);
  }
  const persist::OpenResult open = persist::open_snapshot(
      donor.snapshot(), persist::SnapshotKind::kObjectEngine);
  ASSERT_TRUE(open);
  // Stamps 0, 1, 2 follow each 28-byte nonce's bytes16 encoding.
  const auto stamp_at = [&](std::uint8_t fill) {
    Bytes pattern = {0, static_cast<std::uint8_t>(kNonceSize)};
    pattern.insert(pattern.end(), kNonceSize, fill);
    const auto it = std::search(open.payload.begin(), open.payload.end(),
                                pattern.begin(), pattern.end());
    EXPECT_NE(it, open.payload.end());
    return static_cast<std::size_t>(it - open.payload.begin()) +
           pattern.size();
  };
  const auto with_stamp = [&](std::uint8_t fill, std::uint8_t stamp) {
    Bytes payload = open.payload;
    payload[stamp_at(fill) + 7] = stamp;  // low byte of the big-endian u64
    return persist::seal_snapshot(persist::SnapshotKind::kObjectEngine,
                                  payload);
  };
  ObjectEngine target = make_object(4);
  EXPECT_EQ(target.restore(with_stamp(2, 2)), persist::RestoreError::kOk);
  EXPECT_NE(target.restore(with_stamp(2, 0)), persist::RestoreError::kOk);
  EXPECT_EQ(target.replay_entries(), 0u);
  EXPECT_NE(target.restore(with_stamp(2, 3)), persist::RestoreError::kOk);
  EXPECT_EQ(target.replay_entries(), 0u);
}

// Every table stamp comes from the one counter. A restored bucket stamped
// at or above it would make a fresh peer's bucket the next victim while
// admit() still holds it, so such a snapshot restores blank too.
TEST_F(ReplayEngineTest, RestoreRejectsBucketStampsFromTheFuture) {
  const auto make = [&] {
    ObjectEngineConfig cfg;
    cfg.creds = creds_;
    cfg.admin_pub = be_.admin_public_key();
    cfg.admission.enabled = true;
    cfg.admission.peer_capacity = 1;
    return ObjectEngine(std::move(cfg));
  };
  ObjectEngine donor = make();
  ASSERT_EQ(donor.handle(encode(Que1{Bytes(kNonceSize, 1)}), 0, 7).status,
            HandleStatus::kOk);  // bucket stamp 0, replay stamp 1
  const persist::OpenResult open = persist::open_snapshot(
      donor.snapshot(), persist::SnapshotKind::kObjectEngine);
  ASSERT_TRUE(open);
  // The payload ends with the bucket's u64 stamp, an empty revocation list
  // (u32) and the DRBG's two length-prefixed 32-byte fields.
  const std::size_t stamp_at = open.payload.size() - 8 - 4 - 2 * (2 + 32);
  const auto with_stamp = [&](std::uint8_t high, std::uint8_t low) {
    Bytes payload = open.payload;
    payload[stamp_at] = high;
    payload[stamp_at + 7] = low;
    return persist::seal_snapshot(persist::SnapshotKind::kObjectEngine,
                                  payload);
  };
  ObjectEngine target = make();
  EXPECT_EQ(target.restore(with_stamp(0, 1)), persist::RestoreError::kOk);
  EXPECT_EQ(target.peer_bucket_count(), 1u);
  EXPECT_NE(target.restore(with_stamp(0, 2)), persist::RestoreError::kOk);
  EXPECT_EQ(target.peer_bucket_count(), 0u);
  EXPECT_NE(target.restore(with_stamp(0x7f, 0)), persist::RestoreError::kOk);
  EXPECT_EQ(target.peer_bucket_count(), 0u);
  // A blank engine admits the next peer as usual.
  EXPECT_EQ(target.handle(encode(Que1{Bytes(kNonceSize, 2)}), 0, 8).status,
            HandleStatus::kOk);
  EXPECT_EQ(target.peer_bucket_count(), 1u);
}

}  // namespace
}  // namespace argus::core
