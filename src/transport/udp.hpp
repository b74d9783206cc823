// POSIX non-blocking UDP socket — the daemon path's production face.
#pragma once

#include <memory>

#include "transport/datagram.hpp"

namespace argus::transport {

class UdpSocket final : public DatagramSocket {
 public:
  /// Bind to 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, read
  /// back via local_addr()). Returns nullptr on any socket/bind failure.
  static std::unique_ptr<UdpSocket> bind_loopback(std::uint16_t port);

  ~UdpSocket() override;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  bool send_to(const NetAddr& to, ByteSpan data) override;
  bool recv_from(NetAddr* from, Bytes* data) override;
  [[nodiscard]] NetAddr local_addr() const override { return addr_; }

  /// Block until a datagram is pending or `timeout_ms` passes (rounded
  /// up to whole ms, capped at one second; <= 0 polls without waiting).
  /// True when readable. A signal ends the wait early.
  bool wait_readable(double timeout_ms) const;

 private:
  UdpSocket(int fd, NetAddr addr) : fd_(fd), addr_(addr) {}

  int fd_;
  NetAddr addr_;
};

}  // namespace argus::transport
