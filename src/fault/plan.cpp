#include "fault/plan.hpp"

#include <algorithm>
#include <string>

#include "crypto/drbg.hpp"

namespace argus::fault {
namespace {

// Bernoulli draw with fixed granularity: rate is quantized to 1e-6 so the
// comparison is exact and platform-independent.
bool chance(crypto::HmacDrbg& rng, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const auto threshold = static_cast<std::uint64_t>(rate * 1e6);
  return rng.uniform(1'000'000) < threshold;
}

// Onset time in [0, horizon_ms), quantized to whole virtual milliseconds
// so event times compare exactly across platforms.
double onset(crypto::HmacDrbg& rng, double horizon_ms) {
  if (horizon_ms <= 1.0) return 0.0;
  return static_cast<double>(
      rng.uniform(static_cast<std::uint64_t>(horizon_ms)));
}

}  // namespace

const char* byzantine_mode_name(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kNone:
      return "none";
    case ByzantineMode::kTruncate:
      return "truncate";
    case ByzantineMode::kBitFlip:
      return "bitflip";
    case ByzantineMode::kReplay:
      return "replay";
    case ByzantineMode::kMixed:
      return "mixed";
  }
  return "?";
}

bool FaultPlan::armed() const {
  return !scripted.empty() || crash_rate > 0.0 || straggle_rate > 0.0 ||
         zombie_rate > 0.0 || byzantine_rate > 0.0;
}

std::vector<FaultEvent> expand_plan(const FaultPlan& plan,
                                    std::size_t objects) {
  std::vector<FaultEvent> out;
  if (!plan.armed() || objects == 0) return out;

  for (const FaultEvent& ev : plan.scripted) {
    if (ev.object < objects) out.push_back(ev);
  }

  // Each object draws from its own stream in a fixed order (crash,
  // straggle, zombie, byzantine), so adding objects or editing one rate
  // never shifts another object's draws.
  for (std::size_t i = 0; i < objects; ++i) {
    crypto::HmacDrbg rng =
        crypto::make_rng(plan.seed, "fault:" + std::to_string(i));
    if (chance(rng, plan.crash_rate)) {
      FaultEvent ev;
      ev.object = i;
      ev.kind = FaultKind::kCrash;
      ev.at_ms = onset(rng, plan.horizon_ms);
      ev.duration_ms = plan.reboot_after_ms;
      out.push_back(ev);
    }
    if (chance(rng, plan.straggle_rate)) {
      FaultEvent ev;
      ev.object = i;
      ev.kind = FaultKind::kStraggle;
      ev.at_ms = onset(rng, plan.horizon_ms);
      ev.duration_ms = plan.straggle_ms;
      ev.factor = plan.straggle_factor;
      out.push_back(ev);
    }
    if (chance(rng, plan.zombie_rate)) {
      FaultEvent ev;
      ev.object = i;
      ev.kind = FaultKind::kZombie;
      ev.at_ms = onset(rng, plan.horizon_ms);
      out.push_back(ev);
    }
    if (chance(rng, plan.byzantine_rate)) {
      FaultEvent ev;
      ev.object = i;
      ev.kind = FaultKind::kByzantine;
      ev.at_ms = onset(rng, plan.horizon_ms);
      ev.mode = plan.byzantine_mode;
      ev.seed = plan.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      out.push_back(ev);
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     if (a.object != b.object) return a.object < b.object;
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return out;
}

}  // namespace argus::fault
