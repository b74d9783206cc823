#include "transport/transport.hpp"

namespace argus::transport {

net::SendOutcome SockTransport::send(PeerId to, Bytes frame, double now_ms) {
  const SendStatus st =
      endpoint_.send(NetAddr::unpack(to), std::move(frame), now_ms);
  net::SendOutcome out;
  out.delivered = st == SendStatus::kQueued;
  out.congested = st == SendStatus::kCongested;
  return out;
}

net::SendOutcome SockTransport::broadcast(Bytes frame, double now_ms) {
  net::SendOutcome out;
  for (const NetAddr& peer : endpoint_.live_peers()) {
    const SendStatus st = endpoint_.send(peer, frame, now_ms);
    out.delivered |= st == SendStatus::kQueued;
    out.congested |= st == SendStatus::kCongested;
  }
  return out;
}

void SockTransport::pump(double now_ms) {
  for (auto& [from, frame] : endpoint_.pump(now_ms)) {
    if (handler_) handler_(from.pack(), frame);
  }
}

}  // namespace argus::transport
