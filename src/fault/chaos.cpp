#include "fault/chaos.hpp"

#include <algorithm>
#include <utility>

namespace argus::fault {

ChaosScheduler::ChaosScheduler(net::Simulator& sim, ChaosHooks hooks)
    : sim_(sim), hooks_(std::move(hooks)) {}

void ChaosScheduler::arm(const FaultPlan& plan, std::size_t objects,
                         double base_ms) {
  if (ever_.size() < objects) ever_.resize(objects, 0);
  std::vector<FaultEvent> expanded = expand_plan(plan, objects);
  for (const FaultEvent& ev : expanded) {
    const double delay = std::max(0.0, base_ms + ev.at_ms - sim_.now());
    sim_.schedule_timer_at(sim_.now() + delay, [this, ev] { fire(ev); });
    if (ev.object < ever_.size()) {
      ever_[ev.object] |=
          static_cast<std::uint8_t>(1u << static_cast<unsigned>(ev.kind));
    }
  }
}

bool ChaosScheduler::ever(std::size_t object, FaultKind kind) const {
  if (object >= ever_.size()) return false;
  return (ever_[object] &
          static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind))) != 0;
}

void ChaosScheduler::fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrash:
      ++stats_.crashes;
      if (hooks_.crash) hooks_.crash(ev.object);
      if (ev.duration_ms >= 0) {
        const double at = sim_.now() + ev.duration_ms;
        sim_.schedule_timer_at(at, [this, obj = ev.object] {
          ++stats_.reboots;
          if (hooks_.reboot) hooks_.reboot(obj);
        });
      }
      break;
    case FaultKind::kReboot:
      // Scripted standalone reboot (e.g. after a scripted crash with
      // duration < 0 that the script revives explicitly).
      ++stats_.reboots;
      if (hooks_.reboot) hooks_.reboot(ev.object);
      break;
    case FaultKind::kStraggle:
      ++stats_.straggles;
      if (hooks_.straggle_begin) hooks_.straggle_begin(ev.object, ev.factor);
      if (ev.duration_ms >= 0) {
        const double at = sim_.now() + ev.duration_ms;
        sim_.schedule_timer_at(at, [this, obj = ev.object] {
          if (hooks_.straggle_end) hooks_.straggle_end(obj);
        });
      }
      break;
    case FaultKind::kZombie:
      ++stats_.zombies;
      if (hooks_.zombie) hooks_.zombie(ev.object);
      break;
    case FaultKind::kByzantine:
      ++stats_.byzantines;
      if (hooks_.byzantine) hooks_.byzantine(ev.object, ev.mode, ev.seed);
      break;
  }
}

}  // namespace argus::fault
