// Frame transport under the daemon's engine rooms.
//
// The Argus engines are pure state machines: bytes in, bytes out.
// ObjectHost and SubjectClient move their frames through SockTransport,
// which rides the reliable-ordered datagram layer (endpoint.hpp) over
// real UDP/loopback or the in-memory pipe hub — the production face of
// `argusd`/`argusctl`. (The simulator does not come through here: its
// radio nodes drive the same round logic, core::RoundDriver, directly.)
//
// send()/broadcast() report a net::SendOutcome: `congested` maps to the
// reliable layer's send-queue backpressure, and an undeliverable frame
// (connection closed/dead) reads as !delivered — graceful degradation,
// never a hang or a throw.
#pragma once

#include <functional>

#include "net/network.hpp"
#include "transport/endpoint.hpp"

namespace argus::transport {

/// Opaque peer identity: a packed NetAddr. Feeds straight through to the
/// engines' `peer` argument (admission buckets, session attribution).
using PeerId = std::uint64_t;

class SockTransport {
 public:
  using Handler = std::function<void(PeerId, const Bytes&)>;

  explicit SockTransport(TransportEndpoint& endpoint) : endpoint_(endpoint) {}

  /// Install the inbound-frame sink (replaces any previous handler).
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Reliable frame to one peer.
  net::SendOutcome send(PeerId to, Bytes frame, double now_ms);

  /// Frame to every live connection.
  net::SendOutcome broadcast(Bytes frame, double now_ms);

  /// Drain datagrams and fire timers up to `now_ms`. Inbound frames
  /// arrive via the handler during this call.
  void pump(double now_ms);

 private:
  TransportEndpoint& endpoint_;
  Handler handler_;
};

}  // namespace argus::transport
