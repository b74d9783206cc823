// Declarative fault plans for the chaos layer.
//
// A FaultPlan names node-level faults against a fleet of scenario objects
// (indexed 0..n-1, matching DiscoveryScenario::objects): crashes with an
// optional reboot, compute stragglers, silent-drop zombies, and Byzantine
// peers. Faults are either scripted (exact object + time) or drawn from
// per-object DRBG streams seeded by the plan, so a plan is a pure value:
// expand_plan(plan, n) always yields the same concrete timeline, on any
// thread, in any process. A default-constructed plan is unarmed and must
// leave every consumer bit-identical to a build without the fault layer.
#pragma once

#include <cstdint>
#include <vector>

namespace argus::fault {

enum class FaultKind : std::uint8_t {
  kCrash,      // node drops off the air; engine state is lost
  kReboot,     // crashed node returns with an empty session table
  kStraggle,   // compute cost multiplied by `factor` for `duration_ms`
  kZombie,     // node keeps receiving but never replies again
  kByzantine,  // node's replies are mutated (see ByzantineMode)
};

/// How a Byzantine peer corrupts its replies (fault/byzantine.hpp).
enum class ByzantineMode : std::uint8_t {
  kNone = 0,  // honest passthrough
  kTruncate,  // reply cut at a random offset
  kBitFlip,   // one random bit flipped
  kReplay,    // previous reply re-sent in place of the current one
  kMixed,     // one of the three above, drawn per reply
};

const char* byzantine_mode_name(ByzantineMode mode);

/// What state a rebooted object comes back with (§ fault/chaos reboot
/// hook). kBlank is the historical behaviour — the engine is rebuilt
/// from its config with empty tables. kFromSnapshot restores the sealed
/// snapshot the driver captured at crash time; if the snapshot is
/// missing or fails its integrity/identity checks, the reboot falls
/// back to blank (traced as persist.restore_failed, never a crash).
enum class RebootPolicy : std::uint8_t {
  kBlank = 0,
  kFromSnapshot = 1,
};

/// One concrete fault transition, in virtual milliseconds.
struct FaultEvent {
  std::size_t object = 0;  // scenario object index
  FaultKind kind = FaultKind::kCrash;
  double at_ms = 0;
  /// kCrash: reboot delay (< 0 = stays down). kStraggle: window length.
  double duration_ms = -1;
  double factor = 1.0;  // kStraggle compute multiplier
  ByzantineMode mode = ByzantineMode::kNone;  // kByzantine only
  std::uint64_t seed = 0;                     // kByzantine mutator stream
};

struct FaultPlan {
  /// Exact faults; entries whose object index is out of range are ignored.
  std::vector<FaultEvent> scripted;

  /// DRBG-seeded churn: each object independently suffers each fault kind
  /// with the given probability; onset times are drawn in [0, horizon_ms).
  double crash_rate = 0.0;
  double straggle_rate = 0.0;
  double zombie_rate = 0.0;
  double byzantine_rate = 0.0;

  double horizon_ms = 2000.0;     // random onsets land in [0, horizon_ms)
  double reboot_after_ms = -1.0;  // random crashes: reboot delay (< 0 = never)
  double straggle_factor = 8.0;
  double straggle_ms = 1500.0;
  ByzantineMode byzantine_mode = ByzantineMode::kMixed;
  std::uint64_t seed = 1;

  /// Reboot semantics for every crash in this plan (scripted or drawn).
  /// Does not affect armed(): the policy only matters once a crash with
  /// a reboot actually fires.
  RebootPolicy reboot_policy = RebootPolicy::kBlank;

  /// True iff the plan can produce any fault at all. Unarmed plans are
  /// never expanded, so arming an empty plan is byte-identical to no plan.
  [[nodiscard]] bool armed() const;
};

/// Expand a plan against a fleet of `objects` scenario objects into the
/// concrete, (time, object, kind)-sorted fault timeline. Pure function of
/// (plan, objects): per-object draws come from independent DRBG streams
/// keyed by (plan.seed, object index), so the timeline never depends on
/// scheduling, threads, or evaluation order.
std::vector<FaultEvent> expand_plan(const FaultPlan& plan,
                                    std::size_t objects);

}  // namespace argus::fault
