// Subject side of one discovery round, shared by the simulator and the
// daemon.
//
// One round (paper §IV): broadcast QUE1, answer each RES1 with a QUE2,
// collect RES1-L1/RES2. RoundDriver owns the SubjectEngine and every rule
// of loss recovery around it: the per-object exchange table, the QUE1
// re-broadcast and per-exchange QUE2 budgets with exponential backoff,
// the round deadline, and per-exchange retransmit/reject counts.
//
// It is a pure state machine with no clock of its own: every call returns
// the side effects the owner must perform, in order — broadcast QUE1,
// send to a slot, arm or cancel a timer. The simulator maps arm/cancel
// 1:1 onto Simulator::schedule_timer_at/cancel_timer (so same-instant event
// order is fixed by the effect order); the daemon client polls a small
// deadline table; unit tests step it by hand. Objects are addressed by
// slot 0..slots-1 (radio node order in the simulator, mux channel on the
// daemon). Timer ids 0..slots-1 are the per-exchange QUE2 timers; id
// `slots` (que1_timer()) is the QUE1 re-broadcast timer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "argus/subject_engine.hpp"

namespace argus::core {

/// When the subject-side retransmission driver is active.
enum class RetryMode {
  kAuto,  // retries iff the radio is lossy (drop_prob or dup_prob > 0)
  kOn,
  kOff,
};

/// Subject-side recovery under loss: re-broadcast QUE1 while responders
/// are missing, retransmit QUE2 per object, both with exponential backoff
/// and a capped budget; the whole round has a hard deadline. Engines are
/// idempotent under the duplicates this creates (cached byte-identical
/// resends), so retransmission never desynchronizes a session.
struct RetryPolicy {
  RetryMode mode = RetryMode::kAuto;
  unsigned max_retries = 3;          // per exchange (and per-round QUE1)
  double que1_timeout_ms = 600.0;    // before the first QUE1 re-broadcast
  double que2_timeout_ms = 400.0;    // before a per-object QUE2 resend
  double backoff = 2.0;              // timeout multiplier per attempt
  double round_deadline_ms = 8000.0; // hard cap on one round's duration
};

class RoundDriver {
 public:
  enum class Phase : std::uint8_t {
    kAwaitRes1,  // QUE1 out, nothing from this object yet
    kAwaitRes2,  // QUE2 out, waiting for the sealed profile
    kDone,       // a handled RES1-L1/RES2 settled it
    kTimedOut,   // QUE2 budget or round deadline ran out
  };

  struct Exchange {
    Phase phase = Phase::kAwaitRes1;
    unsigned que2_attempts = 0;  // QUE2 resends this round
    unsigned retransmits = 0;    // QUE2 resends, cumulative over rounds
    unsigned rejects = 0;        // peer bytes the engine rejected, cumulative
    Bytes que2_wire;             // cached for timer-driven resends
  };

  struct Effect {
    enum class Kind : std::uint8_t {
      kBroadcast,  // put `wire` (QUE1) on the air to every object
      kSend,       // unicast `wire` to the object in `slot`
      kArm,        // start timer `slot`; it fires `delay_ms` from now
      kCancel,     // stop timer `slot`
    };
    Kind kind = Kind::kBroadcast;
    std::size_t slot = 0;
    double delay_ms = 0;
    ByteSpan wire;
  };
  /// Valid until the next call into the driver.
  using Effects = std::span<const Effect>;

  struct Handled {
    HandleStatus status = HandleStatus::kOk;
    Effects effects;
  };

  /// Retransmissions and rejects of the current round.
  struct Counts {
    std::uint64_t que1_retransmits = 0;
    std::uint64_t que2_retransmits = 0;
    std::uint64_t rejects = 0;
  };

  /// `policy.mode` other than kOff arms retries; the simulator resolves
  /// kAuto itself before constructing the driver.
  RoundDriver(SubjectEngineConfig cfg, std::size_t slots, std::uint64_t epoch,
              const RetryPolicy& policy);

  /// Start a round with the given group key: QUE1 out, timers armed.
  Effects begin_round(std::size_t group_idx);
  /// Feed one frame from the object in `slot` through the engine.
  Handled on_frame(std::size_t slot, ByteSpan frame);
  /// Timer `timer` (previously armed, not cancelled) fired.
  Effects on_timer(std::size_t timer);
  /// Close the round: cancel every live timer and park every unsettled
  /// exchange at kTimedOut.
  Effects end_round();

  /// No exchange is waiting on its object anymore.
  [[nodiscard]] bool settled() const;
  /// Deadline of a round that began at `start_ms`; the owner ends the
  /// round there with end_round().
  [[nodiscard]] double deadline_after(double start_ms) const {
    return start_ms + policy_.round_deadline_ms;
  }

  [[nodiscard]] std::size_t slots() const { return exchanges_.size(); }
  [[nodiscard]] std::size_t que1_timer() const { return exchanges_.size(); }
  [[nodiscard]] const Exchange& exchange(std::size_t slot) const {
    return exchanges_[slot];
  }
  [[nodiscard]] const Counts& counts() const { return counts_; }
  SubjectEngine& engine() { return engine_; }
  [[nodiscard]] const SubjectEngine& engine() const { return engine_; }

 private:
  void broadcast_que1();
  void send(std::size_t slot, ByteSpan wire);
  void arm(std::size_t timer, double base_ms, unsigned attempt);
  void cancel(std::size_t timer);
  void resolve(std::size_t slot);
  void quiesce();
  [[nodiscard]] bool awaiting_res1() const;

  SubjectEngine engine_;
  std::uint64_t epoch_;
  RetryPolicy policy_;
  bool retries_;
  std::vector<Exchange> exchanges_;
  std::vector<bool> armed_;  // per timer id
  Bytes que1_wire_;
  Bytes reply_;  // QUE2 the engine re-sent for a duplicate RES1
  unsigned que1_attempts_ = 0;
  Counts counts_;
  std::vector<Effect> effects_;
};

}  // namespace argus::core
