#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

namespace argus::transport {

namespace {
sockaddr_in to_sockaddr(const NetAddr& a) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(a.ip);
  sa.sin_port = htons(a.port);
  return sa;
}

NetAddr from_sockaddr(const sockaddr_in& sa) {
  return NetAddr{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}
}  // namespace

std::unique_ptr<UdpSocket> UdpSocket::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return nullptr;
  const sockaddr_in want = to_sockaddr(loopback(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&want), sizeof want) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    ::close(fd);
    return nullptr;
  }
  sockaddr_in got{};
  socklen_t len = sizeof got;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<UdpSocket>(new UdpSocket(fd, from_sockaddr(got)));
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

bool UdpSocket::send_to(const NetAddr& to, ByteSpan data) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n =
      ::sendto(fd_, data.data(), data.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (n == static_cast<ssize_t>(data.size())) return true;
  // Transient kernel-buffer pressure is UDP loss, not a local failure.
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS;
}

bool UdpSocket::recv_from(NetAddr* from, Bytes* data) {
  std::uint8_t buf[64 * 1024];
  sockaddr_in sa{};
  socklen_t len = sizeof sa;
  const ssize_t n = ::recvfrom(fd_, buf, sizeof buf, 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n < 0) return false;
  if (from != nullptr) *from = from_sockaddr(sa);
  if (data != nullptr) data->assign(buf, buf + n);
  return true;
}

bool UdpSocket::wait_readable(double timeout_ms) const {
  const int wait =
      timeout_ms > 0 ? static_cast<int>(std::ceil(std::min(timeout_ms, 1000.0)))
                     : 0;
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, wait) > 0 && (pfd.revents & POLLIN) != 0;
}

}  // namespace argus::transport
