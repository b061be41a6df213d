#include "rfp/common/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace rfp {

namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool fill_addr(const std::string& address, std::uint16_t port,
               sockaddr_in* addr, std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr->sin_addr) != 1) {
    if (error) *error = "invalid IPv4 address: " + address;
    return false;
  }
  return true;
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

UniqueFd tcp_listen(const std::string& address, std::uint16_t port,
                    int backlog, std::uint16_t* bound_port,
                    std::string* error, bool reuse_port) {
  sockaddr_in addr{};
  if (!fill_addr(address, port, &addr, error)) return UniqueFd();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error) *error = errno_message("socket");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
          0) {
    if (error) *error = errno_message("setsockopt(SO_REUSEPORT)");
    return UniqueFd();
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (error) *error = errno_message("bind");
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) != 0) {
    if (error) *error = errno_message("listen");
    return UniqueFd();
  }
  if (!set_nonblocking(fd.get())) {
    if (error) *error = errno_message("fcntl");
    return UniqueFd();
  }
  if (bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      if (error) *error = errno_message("getsockname");
      return UniqueFd();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

UniqueFd tcp_connect(const std::string& address, std::uint16_t port,
                     double timeout_s, std::string* error) {
  sockaddr_in addr{};
  if (!fill_addr(address, port, &addr, error)) return UniqueFd();

  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) {
    if (error) *error = errno_message("socket");
    return UniqueFd();
  }
  if (!set_nonblocking(fd.get())) {
    if (error) *error = errno_message("fcntl");
    return UniqueFd();
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      if (error) *error = errno_message("connect");
      return UniqueFd();
    }
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int timeout_ms =
        timeout_s <= 0.0 ? -1 : static_cast<int>(timeout_s * 1e3);
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      if (error) *error = "connect: timed out";
      return UniqueFd();
    }
    if (rc < 0) {
      if (error) *error = errno_message("poll");
      return UniqueFd();
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (error) {
        *error = std::string("connect: ") +
                 std::strerror(so_error != 0 ? so_error : errno);
      }
      return UniqueFd();
    }
  }
  // Back to blocking mode: the client library does its own poll()-guarded
  // deadlines and otherwise wants plain blocking semantics.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    if (error) *error = errno_message("fcntl");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

UniqueFd tcp_accept(int listener_fd) {
  int fd;
  do {
    fd = ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return UniqueFd();
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return UniqueFd(fd);
}

IoResult recv_some(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t rc = ::recv(fd, buf, n, 0);
    if (rc > 0) return {IoStatus::kOk, static_cast<std::size_t>(rc)};
    if (rc == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult send_some(int fd, const void* buf, std::size_t n) {
  for (;;) {
    const ssize_t rc = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (rc >= 0) return {IoStatus::kOk, static_cast<std::size_t>(rc)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult writev_some(int fd, const void* iov, int iovcnt) {
  const auto* vecs = static_cast<const struct iovec*>(iov);
  msghdr msg{};
  msg.msg_iov = const_cast<struct iovec*>(vecs);
  msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
  for (;;) {
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc >= 0) return {IoStatus::kOk, static_cast<std::size_t>(rc)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

bool send_all(int fd, const void* buf, std::size_t n, double timeout_s) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  const int timeout_ms =
      timeout_s <= 0.0 ? -1 : static_cast<int>(timeout_s * 1e3);
  while (sent < n) {
    const IoResult r = send_some(fd, p + sent, n - sent);
    if (r.status == IoStatus::kOk) {
      sent += r.bytes;
      continue;
    }
    if (r.status != IoStatus::kWouldBlock) return false;
    pollfd pfd{fd, POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return false;  // timeout or poll failure
  }
  return true;
}

IoResult recv_with_timeout(int fd, void* buf, std::size_t n,
                           double timeout_s) {
  pollfd pfd{fd, POLLIN, 0};
  const int timeout_ms =
      timeout_s <= 0.0 ? -1 : static_cast<int>(timeout_s * 1e3);
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc == 0) return {IoStatus::kWouldBlock, 0};  // deadline expired
  if (rc < 0) return {IoStatus::kError, 0};
  return recv_some(fd, buf, n);
}

}  // namespace rfp
