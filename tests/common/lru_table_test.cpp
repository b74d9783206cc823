// LruTable against a frozen min-stamp scan: the reference every bounded
// table used before, a plain map whose victim is the smallest stamp,
// first in key order among equals. Both index kinds run the same seeded
// mix of puts, touches, erases (by key and mid-iteration), evictions,
// trims, rebuilds from stamps (with and without ties), copies, moves and
// clears.
#include "common/lru_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <string>
#include <variant>
#include <vector>

namespace argus {
namespace {

struct MinScanModel {
  std::map<int, std::pair<int, std::uint64_t>> entries;  // value, stamp

  int victim() const {
    auto best = entries.begin();
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->second.second < best->second.second) best = it;
    }
    return best->first;
  }
};

using Ordered = LruMap<int, int>;
using Flat = LruFlatMap<int, int>;

/// Same contents, and eviction drains a copy in the model's scan order.
template <class Table>
void expect_matches(const Table& table, const MinScanModel& model) {
  ASSERT_EQ(table.size(), model.entries.size());
  for (const auto& [k, vs] : model.entries) {
    const auto it = table.find(k);
    ASSERT_NE(it, table.end()) << "key " << k;
    EXPECT_EQ(it->second.value, vs.first);
    EXPECT_EQ(it->second.stamp, vs.second);
  }
  Table drain = table;
  MinScanModel ref = model;
  while (!ref.entries.empty()) {
    const int want = ref.victim();
    ASSERT_EQ(drain.oldest(), want);
    drain.evict_oldest();
    ref.entries.erase(want);
  }
  EXPECT_TRUE(drain.empty());
}

/// Stamps come from a counter, as every owner's do. `ties`: rebuilds
/// merge neighbouring stamps, as a snapshot may hold equal stamps; both
/// kinds then order equals by key.
template <class Table>
void fuzz(std::uint64_t seed, bool ties) {
  std::mt19937_64 rng(seed);
  Table table;
  MinScanModel model;
  std::uint64_t clock = 100;
  for (int step = 0; step < 4000; ++step) {
    const int key = static_cast<int>(rng() % 24);
    const std::uint64_t op = rng() % 100;
    if (op < 30) {
      const int value = static_cast<int>(rng() % 1000);
      const std::uint64_t stamp = clock++;
      table.put(key, value, stamp);
      model.entries[key] = {value, stamp};
    } else if (op < 45) {
      const std::uint64_t stamp = clock++;
      const auto [it, fresh] = table.try_emplace(key, stamp);
      EXPECT_EQ(fresh, !model.entries.contains(key));
      auto& m = model.entries[key];
      m.second = stamp;
      EXPECT_EQ(it->second.value, m.first);
    } else if (op < 60) {
      const auto it = table.find(key);
      ASSERT_EQ(it != table.end(), model.entries.contains(key));
      if (it != table.end()) {
        const std::uint64_t stamp = clock++;
        table.touch(it, stamp);
        model.entries[key].second = stamp;
      }
    } else if (op < 70) {
      EXPECT_EQ(table.erase(key), model.entries.erase(key));
    } else if (op < 80) {
      while (!model.entries.empty() && table.size() > 6) {
        const int want = model.victim();
        ASSERT_EQ(table.oldest(), want) << "step " << step;
        table.evict_oldest();
        model.entries.erase(want);
      }
    } else if (op < 85) {
      const std::size_t bound = rng() % 8;
      std::size_t want = 0;
      for (; model.entries.size() > bound; ++want) {
        model.entries.erase(model.victim());
      }
      EXPECT_EQ(table.trim(bound), want);
    } else if (op < 88) {
      // Erase during iteration, like a TTL sweep.
      const int cut = static_cast<int>(rng() % 1000);
      for (auto it = table.begin(); it != table.end();) {
        if (it->second.value < cut / 3) {
          model.entries.erase(it->first);
          it = table.erase(it);
        } else {
          ++it;
        }
      }
    } else if (op < 91) {
      // Rebuild from stamps, as a snapshot restore does.
      typename Table::Parsed parsed;
      for (auto& [k, vs] : model.entries) {
        if (ties) vs.second &= ~std::uint64_t{3};
        parsed[k] = {vs.first, vs.second};
      }
      Table rebuilt;
      rebuilt.put(-1, 0, 0);  // assign discards what was there
      rebuilt.assign(std::move(parsed));
      table = std::move(rebuilt);
    } else if (op < 94) {
      const Table copy(table);
      Table assigned;
      assigned.put(-2, 0, 0);
      assigned = copy;
      table.put(-3, 0, clock++);  // the source diverges; the copy must not
      table = assigned;
    } else if (op < 97) {
      Table moved(std::move(table));
      EXPECT_TRUE(table.empty());  // NOLINT(bugprone-use-after-move)
      table = std::move(moved);
    } else if (op < 98) {
      table.clear();
      model.entries.clear();
    } else {
      ASSERT_NO_FATAL_FAILURE(expect_matches(table, model))
          << "step " << step;
    }
    ASSERT_EQ(table.size(), model.entries.size()) << "step " << step;
  }
  expect_matches(table, model);
}

TEST(LruTable, OrderedIndexMatchesMinScan) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) fuzz<Ordered>(seed, false);
}

TEST(LruTable, OrderedIndexMatchesMinScanAfterRebuildsWithTies) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) fuzz<Ordered>(seed, true);
}

// The flat index: open-addressed over pool slots.
TEST(LruTable, HashIndexMatchesMinScan) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) fuzz<Flat>(seed, false);
}

TEST(LruTable, HashIndexMatchesMinScanAfterRebuildsWithTies) {
  for (std::uint64_t seed = 31; seed <= 36; ++seed) fuzz<Flat>(seed, true);
}

template <class Table>
std::vector<int> assigned_order() {
  typename Table::Parsed parsed;
  parsed[5] = {50, 7};
  parsed[2] = {20, 7};
  parsed[9] = {90, 3};
  parsed[1] = {10, 8};
  Table table;
  table.assign(std::move(parsed));
  std::vector<int> order;
  while (!table.empty()) {
    order.push_back(table.oldest());
    table.evict_oldest();
  }
  return order;
}

TEST(LruTable, AssignBreaksStampTiesByKeyOrder) {
  EXPECT_EQ(assigned_order<Ordered>(), (std::vector<int>{9, 2, 5, 1}));
  EXPECT_EQ(assigned_order<Flat>(), (std::vector<int>{9, 2, 5, 1}));
}

TEST(LruTable, NeverTouchedIsFifo) {
  LruMap<std::string, std::monostate> window;
  for (const char* k : {"m", "c", "x", "a"}) {
    window.put(k, {}, window.size());
  }
  std::string order;
  while (!window.empty()) {
    order += window.oldest();
    window.evict_oldest();
  }
  EXPECT_EQ(order, "mcxa");
}

// A full replay window of nonces that share 27 of their 28 bytes, for
// each position of the byte that differs: every member is found, every
// near miss is not, and the window forgets them oldest first.
TEST(LruTable, FlatWindowOfNearIdenticalNonces) {
  using Nonce = std::array<std::uint8_t, 28>;
  using Window = LruFlatMap<Nonce, std::monostate>;
  constexpr std::size_t kBound = 256;
  for (const std::size_t pos : {std::size_t{0}, std::size_t{13},
                                std::size_t{27}}) {
    Nonce base;
    base.fill(0xa5);
    const auto nonce = [&](std::size_t i, std::uint8_t other = 0xa5) {
      Nonce n = base;
      n[pos] = static_cast<std::uint8_t>(i);
      n[(pos + 1) % n.size()] = other;
      return n;
    };
    Window window;
    std::uint64_t stamp = 0;
    for (std::size_t i = 0; i < kBound; ++i) {
      // Shuffled insert order, so FIFO order is not byte order.
      const std::size_t v = (i * 167) % kBound;
      if (window.size() == kBound) window.evict_oldest();
      window.put(nonce(v), {}, stamp++);
    }
    ASSERT_EQ(window.size(), kBound);
    for (std::size_t v = 0; v < kBound; ++v) {
      EXPECT_TRUE(window.contains(nonce(v))) << pos << " " << v;
      EXPECT_FALSE(window.contains(nonce(v, 0x5a))) << pos << " " << v;
    }
    // Full: each insert forgets the oldest nonce, first in, first out.
    for (std::size_t i = 0; i < kBound; ++i) {
      const std::size_t v = (i * 167) % kBound;
      ASSERT_EQ(window.oldest(), nonce(v)) << pos << " " << i;
      window.evict_oldest();
      window.put(nonce(v, 0x5a), {}, stamp++);
      ASSERT_EQ(window.size(), kBound);
      EXPECT_FALSE(window.contains(nonce(v)));
    }
    // Storage never overshot the bound: the pool holds kBound slots and
    // the index twice as many.
    EXPECT_EQ(window.index().storage_bytes(),
              kBound * sizeof(Window::Index::Slot) +
                  2 * kBound * sizeof(std::uint32_t));
  }
}

}  // namespace
}  // namespace argus
