// Differential test of EcPrecompCache's recency-list eviction against a
// frozen copy of the tick-scan LRU it replaced: the same seeded key
// sequences must produce the same hit/miss verdict at every step, the
// same hits/misses/evictions counters, and the same resident set. Plus
// the concurrency cases the tsan lane runs: shared lookups, promotions
// raced against holders of the tables they replace, builds that run
// outside the lock, and a cold start of every curve's lazy tables from
// four threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "crypto/ec.hpp"
#include "crypto/ec_precomp.hpp"
#include "crypto/ecdsa.hpp"
#include "obs/prof.hpp"

namespace argus::crypto {
namespace {

// The scan LRU, frozen: every entry carries the tick of its last use and a
// miss at capacity walks the whole map for the smallest tick.
class ScanLru {
 public:
  explicit ScanLru(std::size_t capacity) : capacity_(capacity) {}

  bool get(int key) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second = ++tick_;
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    if (map_.size() >= capacity_) {
      auto victim = map_.begin();
      for (auto jt = map_.begin(); jt != map_.end(); ++jt) {
        if (jt->second < victim->second) victim = jt;
      }
      map_.erase(victim);
      ++stats_.evictions;
    }
    map_.emplace(key, ++tick_);
    return false;
  }

  [[nodiscard]] const EcPrecompCache::Stats& stats() const { return stats_; }
  [[nodiscard]] std::vector<int> resident() const {
    std::vector<int> keys;
    for (const auto& [k, tick] : map_) keys.push_back(k);
    return keys;
  }

 private:
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  EcPrecompCache::Stats stats_;
  std::map<int, std::uint64_t> map_;
};

TEST(EcPrecompCacheTest, EvictsExactlyLikeTheFrozenScan) {
  const EcGroup& g = group_for(Strength::b112);
  std::vector<EcPoint> pool;
  for (std::uint64_t k = 1; k <= 12; ++k) {
    pool.push_back(g.scalar_mul_base(UInt::from_u64(k)));
  }

  for (std::size_t cap = 1; cap <= 8; ++cap) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + " seed " +
                   std::to_string(seed));
      std::mt19937_64 rng(seed * 1000 + cap);
      // Keys drawn from a pool a little larger than the capacity, with a
      // bias towards recently used keys so both hits and misses are common.
      const std::size_t span = std::min(pool.size(), cap + 3);
      EcPrecompCache cache(cap);
      ScanLru model(cap);
      std::vector<int> recent;
      for (int step = 0; step < 400; ++step) {
        int key = static_cast<int>(rng() % span);
        if (!recent.empty() && rng() % 3 == 0) {
          key = recent[rng() % recent.size()];
        }
        recent.push_back(key);
        if (recent.size() > 4) recent.erase(recent.begin());

        const auto before = cache.stats().hits;
        const auto tab = cache.get(g, pool[static_cast<std::size_t>(key)]);
        const bool model_hit = model.get(key);
        ASSERT_EQ(cache.stats().hits != before, model_hit) << "step " << step;
        ASSERT_EQ(tab->point(), pool[static_cast<std::size_t>(key)]);
        ASSERT_EQ(cache.stats().misses, model.stats().misses);
        ASSERT_EQ(cache.stats().evictions, model.stats().evictions);
        ASSERT_EQ(cache.size(), model.resident().size());
      }
      // Same resident set: every key the model holds is a hit (a hit never
      // evicts), and the sizes already agree.
      const auto hits = cache.stats().hits;
      const std::vector<int> resident = model.resident();
      for (int key : resident) {
        (void)cache.get(g, pool[static_cast<std::size_t>(key)]);
      }
      EXPECT_EQ(cache.stats().hits, hits + resident.size());
      EXPECT_EQ(cache.stats().evictions, model.stats().evictions);
    }
  }
}

TEST(EcPrecompCacheTest, ClearResetsRecency) {
  const EcGroup& g = group_for(Strength::b112);
  const EcPoint a = g.scalar_mul_base(UInt::from_u64(2));
  const EcPoint b = g.scalar_mul_base(UInt::from_u64(3));
  const EcPoint c = g.scalar_mul_base(UInt::from_u64(5));
  EcPrecompCache cache(2);
  (void)cache.get(g, a);
  (void)cache.get(g, b);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.get(g, c);
  (void)cache.get(g, a);
  (void)cache.get(g, c);  // a is now the LRU entry
  (void)cache.get(g, b);  // evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.get(g, c);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(EcPrecompCacheTest, ConcurrentLookupsKeepTablesAndCounts) {
  const EcGroup& g = group_for(Strength::b112);
  std::vector<EcPoint> pool;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    pool.push_back(g.scalar_mul_base(UInt::from_u64(k)));
  }
  constexpr std::size_t kThreads = 4;
  constexpr int kLookups = 300;
  EcPrecompCache cache(4);
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t + 1);
      for (int i = 0; i < kLookups; ++i) {
        const EcPoint& p = pool[rng() % pool.size()];
        if (!(cache.get(g, p)->point() == p)) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int w : wrong) EXPECT_EQ(w, 0);
  const EcPrecompCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, kThreads * kLookups);
  EXPECT_LE(cache.size(), 4u);
  // Every miss inserts one table; every insert into a full cache evicts.
  EXPECT_EQ(st.evictions, st.misses - cache.size());
}

// Four threads multiply through the cache while every key crosses the
// promotion threshold, and two more keep multiplying against the
// one-block tables handed out before any promotion: the swap must leave
// the old tables intact, promote each key exactly once, and change no
// hit or miss count.
TEST(EcPrecompCacheTest, ConcurrentPromotionKeepsTablesValid) {
  const EcGroup& g = group_for(Strength::b112);
  constexpr std::size_t kKeys = 6;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kHolders = 2;
  constexpr int kRounds = 3;
  std::vector<EcPoint> pool;
  std::vector<UInt> ks;
  std::vector<EcPoint> want;
  for (std::uint64_t i = 1; i <= kKeys; ++i) {
    pool.push_back(g.scalar_mul_base(UInt::from_u64(1000 + i)));
    ks.push_back(sub(g.params().n, UInt::from_u64(7 * i)));
    want.push_back(g.scalar_mul_reference(pool.back(), ks.back()));
  }
  EcPrecompCache cache(kKeys);
  std::vector<std::shared_ptr<const EcPrecomp>> before;
  for (const EcPoint& p : pool) before.push_back(cache.get(g, p));

  std::atomic<std::size_t> ready{0};
  std::vector<int> wrong(kThreads + kHolders, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads + kHolders; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads + kHolders) std::this_thread::yield();
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < kKeys; ++i) {
          const std::size_t k = (i + t) % kKeys;
          const auto tab = t < kThreads ? cache.get(g, pool[k]) : before[k];
          if (!(tab->mul(ks[k]) == want[k])) ++wrong[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int w : wrong) EXPECT_EQ(w, 0);
  const EcPrecompCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, kKeys);
  EXPECT_EQ(st.hits, kThreads * kRounds * kKeys);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.promotions, kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(before[k]->blocks(), 1u);
    EXPECT_EQ(before[k]->mul(ks[k]), want[k]);
    EXPECT_EQ(cache.get(g, pool[k])->blocks(), kPromotedBlocks);
  }
}

// Tables are built outside the cache's lock. Four threads race on each
// fresh P-521 key, so a hit on a slot whose first table is still being
// built waits for that build and a promotion (a four-block P-521 build,
// 0.7-1.6 ms in Release) runs while others use the one-block table; two
// more threads keep verifying through resident P-256 keys meanwhile.
// Every table must multiply correctly, and every key must miss and be
// promoted exactly once: nothing is built twice.
TEST(EcPrecompCacheTest, BuildsOutsideTheLockNeverTwice) {
  const EcGroup& big = group_for(Strength::b256);
  const EcGroup& small = group_for(Strength::b128);
  constexpr std::size_t kBigKeys = 3;
  constexpr std::size_t kSmallKeys = 4;
  constexpr std::size_t kRacers = 4;
  constexpr std::size_t kVerifiers = 2;
  struct Key {
    EcPoint pub;
    UInt k;
    EcPoint want;
  };
  const auto make_keys = [](const EcGroup& g, std::size_t n,
                            std::uint64_t base) {
    std::vector<Key> keys;
    for (std::uint64_t i = 1; i <= n; ++i) {
      Key key;
      key.pub = g.scalar_mul_base(UInt::from_u64(base + i));
      key.k = sub(g.params().n, UInt::from_u64(11 * i));
      key.want = g.scalar_mul_reference(key.pub, key.k);
      keys.push_back(key);
    }
    return keys;
  };
  const std::vector<Key> bigs = make_keys(big, kBigKeys, 5000);
  const std::vector<Key> smalls = make_keys(small, kSmallKeys, 7000);

  EcPrecompCache cache(64);
  for (const Key& key : smalls) {
    for (std::uint32_t i = 0; i <= EcPrecompCache::kPromoteOnHit; ++i) {
      (void)cache.get(small, key.pub);
    }
  }
  const EcPrecompCache::Stats warm = cache.stats();
  ASSERT_EQ(warm.promotions, kSmallKeys);

  // Every build is a crypto.ec.precomp_build span; each thread records
  // on its own lane.
  obs::prof::Profiler prof;
  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> racing{kRacers};
  std::vector<int> wrong(kRacers + kVerifiers, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kRacers + kVerifiers; ++t) {
    threads.emplace_back([&, t] {
      obs::prof::Profiler::Attach attach(prof, t);
      ready.fetch_add(1);
      while (ready.load() < kRacers + kVerifiers) std::this_thread::yield();
      if (t < kRacers) {
        for (const Key& key : bigs) {
          if (!(cache.get(big, key.pub)->mul(key.k) == key.want)) ++wrong[t];
        }
        racing.fetch_sub(1);
        return;
      }
      do {
        for (const Key& key : smalls) {
          if (!(cache.get(small, key.pub)->mul(key.k) == key.want)) ++wrong[t];
        }
      } while (racing.load() > 0);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int w : wrong) EXPECT_EQ(w, 0);
  const EcPrecompCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses - warm.misses, kBigKeys);
  EXPECT_EQ(st.promotions - warm.promotions, kBigKeys);
  EXPECT_EQ(st.evictions, 0u);
  // One first build and one promotion per P-521 key, none for the
  // resident P-256 keys.
  EXPECT_EQ(prof.by_label()["crypto.ec.precomp_build"].count, 2 * kBigKeys);
  for (const Key& key : bigs) {
    EXPECT_EQ(cache.get(big, key.pub)->blocks(), kPromotedBlocks);
  }
}

// Cold start: four threads race through the first group_for, the first
// scalar_mul_base (the typed group's lazy comb build), the first sign and
// two verifies (EcPrecompCache misses, then hits) on every curve, each
// thread in its own curve order. Run alone in its process (as ctest and
// the tsan lane do), every lazy structure is built under contention,
// including the process-wide MULX/ADX check and, on a CPU with ADX and
// BMI2, the MULX/ADX P-224 and P-256 groups.
TEST(EcColdStartTest, FourThreadsFirstUseOfEveryCurve) {
  constexpr std::size_t kThreads = 4;
  const Strength strengths[] = {Strength::b112, Strength::b128,
                                Strength::b192, Strength::b256};
  const Bytes msg = str_bytes("cold-start");
  struct Result {
    EcPoint pub;
    bool verified = false;
  };
  std::vector<std::vector<Result>> results(kThreads, std::vector<Result>(4));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t c = (i + t) % 4;
        const EcGroup& g = group_for(strengths[c]);
        const UInt priv = UInt::from_u64(1000 * (t + 1) + c);
        Result& r = results[t][c];
        r.pub = g.scalar_mul_base(priv);
        const EcdsaSignature sig = ecdsa_sign(g, priv, msg);
        r.verified = ecdsa_verify(g, r.pub, msg, sig) &&
                     ecdsa_verify(g, r.pub, msg, sig);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t c = 0; c < 4; ++c) {
      const EcGroup& g = group_for(strengths[c]);
      const UInt priv = UInt::from_u64(1000 * (t + 1) + c);
      EXPECT_EQ(results[t][c].pub,
                g.scalar_mul_reference(g.generator(), priv))
          << "thread " << t << " curve " << c;
      EXPECT_TRUE(results[t][c].verified) << "thread " << t << " curve " << c;
    }
  }
  // 16 distinct keys, each verified twice: at least a miss and a hit each.
  const EcPrecompCache::Stats st = EcPrecompCache::global().stats();
  EXPECT_GE(st.misses, kThreads * 4);
  EXPECT_GE(st.hits, kThreads * 4);
}

}  // namespace
}  // namespace argus::crypto
