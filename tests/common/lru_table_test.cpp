// LruTable against a frozen min-stamp scan: the reference every bounded
// table used before, a plain map whose victim is the smallest stamp,
// first in key order among equals. Both index kinds run the same seeded
// mix of puts, touches, erases (by key and mid-iteration), evictions,
// rebuilds from stamps, copies and moves.
#include "common/lru_table.hpp"

#include <gtest/gtest.h>

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

struct IntHash {
  std::size_t operator()(int k) const {
    return static_cast<std::size_t>(k) * 0x9E3779B97F4A7C15ull;
  }
};

using Ordered = LruMap<int, int>;
using Hashed = LruHashMap<int, int, IntHash>;

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
/// merge neighbouring stamps, as a snapshot may hold equal stamps. Only an
/// ordered index defines a scan order among equals, so the hash index
/// rebuilds from distinct stamps.
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
    } else if (op < 85) {
      while (!model.entries.empty() && table.size() > 6) {
        const int want = model.victim();
        ASSERT_EQ(table.oldest(), want) << "step " << step;
        table.evict_oldest();
        model.entries.erase(want);
      }
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
      typename Table::Index parsed;
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

TEST(LruTable, HashIndexMatchesMinScan) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) fuzz<Hashed>(seed, false);
}

TEST(LruTable, AssignBreaksStampTiesByKeyOrder) {
  Ordered::Index parsed;
  parsed[5] = {50, 7};
  parsed[2] = {20, 7};
  parsed[9] = {90, 3};
  parsed[1] = {10, 8};
  Ordered table;
  table.assign(std::move(parsed));
  std::vector<int> order;
  while (!table.empty()) {
    order.push_back(table.oldest());
    table.evict_oldest();
  }
  EXPECT_EQ(order, (std::vector<int>{9, 2, 5, 1}));
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

}  // namespace
}  // namespace argus
