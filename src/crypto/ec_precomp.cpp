#include "crypto/ec_precomp.hpp"

#include <optional>
#include <type_traits>

#include "obs/prof.hpp"

namespace argus::crypto {

EcPoint fixed_base_mul(const EcGroup& g, const UInt& k) {
  const UInt kr = mod(k, g.params().n);
  if (kr.is_zero()) return EcPoint::identity();
  return g.visit([&](const auto& tg) {
    auto acc = tg.identity();
    tg.fold_comb(acc, kr);
    return tg.to_affine(acc);
  });
}

EcPrecomp::EcPrecomp(const EcGroup& g, const EcPoint& p, std::size_t blocks)
    : g_(&g), p_(p), blocks_(blocks) {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_build");
  g.visit([&](const auto& tg) { tab_ = tg.key_table(p_, blocks_); });
}

EcPoint EcPrecomp::mul(const UInt& k) const {
  ARGUS_PROF_SCOPE("crypto.ec.precomp_mul");
  const UInt kr = mod(k, g_->params().n);
  if (kr.is_zero() || p_.infinity) return EcPoint::identity();
  return g_->visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    return tg.to_affine(tg.key_mul(comb<N>(), kr));
  });
}

EcPrecompCache::EcPrecompCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const EcPrecomp> EcPrecompCache::get(const EcGroup& g,
                                                     const EcPoint& p) {
  Coord cx{}, cy{};
  for (std::size_t i = 0; i < kMaxWords; ++i) {
    cx[i] = p.x.w[i];
    cy[i] = p.y.w[i];
  }
  const Key key{&g, cx, cy};

  // The hit/miss/eviction decision and the slot claim happen under the
  // lock; every table is built after it is released.
  std::shared_future<Table> first;              // another thread's build
  std::optional<std::promise<Table>> building;  // this thread's first build
  bool promote = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      map_.touch(it, clock_++);
      ++stats_.hits;
      Slot& slot = it->second.value;
      if (slot.hits < kPromoteOnHit && ++slot.hits == kPromoteOnHit) {
        ++stats_.promotions;
        promote = true;
      } else if (slot.tab) {
        return slot.tab;
      } else {
        first = slot.first;
      }
    } else {
      ++stats_.misses;
      stats_.evictions += map_.trim(capacity_ - 1);
      building.emplace();
      map_.put(key, Slot{nullptr, building->get_future().share(), 0},
               clock_++);
    }
  }
  if (first.valid()) return first.get();

  Table tab;
  try {
    tab = std::make_shared<const EcPrecomp>(g, p,
                                            promote ? kPromotedBlocks : 1);
  } catch (...) {
    if (building) {
      // Drop the claim so the next lookup misses and builds afresh.
      std::lock_guard<std::mutex> lk(mu_);
      if (const auto it = map_.find(key);
          it != map_.end() && !it->second.value.tab) {
        map_.erase(it);
      }
      building->set_exception(std::current_exception());
    }
    throw;
  }
  {
    // A promoted table lands only in the residency that promoted it (an
    // evicted and re-inserted key counts its hits afresh); a first table
    // only where no table has landed yet. Once a slot holds a table its
    // future goes, so it keeps no replaced table alive.
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      Slot& slot = it->second.value;
      if (promote ? slot.hits == kPromoteOnHit : !slot.tab) slot.tab = tab;
      if (slot.tab) slot.first = {};
    }
  }
  if (building) building->set_value(tab);
  return tab;
}

EcPrecompCache::Stats EcPrecompCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t EcPrecompCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void EcPrecompCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  map_.clear();
  stats_ = Stats{};
}

EcPrecompCache& EcPrecompCache::global() {
  static EcPrecompCache cache(256);
  return cache;
}

bool shamir_verify_x(const EcGroup& g, const EcPrecomp& qtab, const UInt& u1,
                     const UInt& u2, const UInt& r) {
  ARGUS_PROF_SCOPE("crypto.ec.shamir_verify");
  const UInt& n = g.params().n;
  return g.visit([&](const auto& tg) {
    constexpr std::size_t N = std::decay_t<decltype(tg)>::N;
    return tg.shamir_verify_x(qtab.comb<N>(), mod(u1, n), mod(u2, n), r);
  });
}

}  // namespace argus::crypto
