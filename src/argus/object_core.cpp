#include "argus/object_core.hpp"

#include <utility>

namespace argus::core {

ObjectCore::ObjectCore(ObjectEngineConfig cfg, std::uint64_t epoch)
    : epoch_(epoch) {
  engine_.emplace(std::move(cfg));
}

void ObjectCore::reboot() {
  // Copied out first: emplace destroys the old engine before it builds.
  ObjectEngineConfig cfg = engine_->config();
  engine_.emplace(std::move(cfg));
  byzantine_ = {};
}

ObjectCore::Step ObjectCore::step(ByteSpan payload, std::uint64_t from,
                                  double now_ms) {
  const std::uint64_t fellows_before = engine_->stats().fellows_confirmed;
  engine_->advance_clock(now_ms);
  Step out;
  out.result = engine_->handle(payload, epoch_, from);
  out.consumed_ms = engine_->take_consumed_ms();
  if (!out.result) return out;
  if (byzantine_.armed()) {
    *out.result = byzantine_.mutate(std::move(*out.result));
  }
  if (zombie_) {
    out.zombie_suppressed = out.result->size();
    out.result.reply.reset();
    return out;
  }
  if (!out.result->empty() &&
      static_cast<MsgType>((*out.result)[0]) == MsgType::kRes2) {
    out.reply_level =
        engine_->stats().fellows_confirmed > fellows_before ? 3 : 2;
  }
  return out;
}

}  // namespace argus::core
