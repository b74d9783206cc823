#include "attacks/flooder.hpp"

namespace argus::attacks {

using core::HandleStatus;

FloodOutcome Flooder::run_against(core::ObjectEngine& engine,
                                  std::size_t count, double tick_ms,
                                  std::uint64_t now, std::uint64_t peer) {
  FloodOutcome out;
  double clock = 0;
  (void)engine.take_consumed_ms();  // meter only the flood's own cost
  for (std::size_t i = 0; i < count; ++i) {
    const auto res = engine.handle(next(), now, peer);
    out.victim_compute_ms += engine.take_consumed_ms();
    ++out.sent;
    if (res.status == HandleStatus::kOk) {
      ++out.served;
    } else if (core::is_shed(res.status)) {
      ++out.shed;
    } else if (core::is_reject(res.status)) {
      ++out.rejected;
    } else {
      ++out.other;
    }
    clock += tick_ms;
    engine.advance_clock(clock);
  }
  return out;
}

Flooder replay_flooder(const CapturedTrace& trace, std::uint64_t seed) {
  return Flooder(Flooder::Kind::kReplay, seed, trace.que2);
}

}  // namespace argus::attacks
