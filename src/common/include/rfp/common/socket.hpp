#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

/// \file socket.hpp
/// Thin POSIX socket helpers for the rfp::net serving layer: an fd RAII
/// guard plus the handful of TCP operations the daemon and client need
/// (listen on an ephemeral port, connect with a deadline, partial-I/O
/// tolerant send/recv). No framework, no event loop — rfp::net builds its
/// poll() loop on top of these. Everything here reports failures through
/// return values; nothing throws, because these calls sit on the socket
/// boundary where errors are ordinary data.

namespace rfp {

/// Owning file-descriptor guard (close-on-destroy, move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Outcome of one non-blocking read/write attempt.
enum class IoStatus {
  kOk,          ///< n bytes transferred (n > 0)
  kWouldBlock,  ///< no progress possible right now (EAGAIN)
  kClosed,      ///< orderly peer shutdown (recv only)
  kError,       ///< hard socket error; errno preserved
};

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t bytes = 0;
};

/// Put `fd` in non-blocking mode. Returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Create a non-blocking IPv4 listener bound to `address:port` (port 0
/// picks an ephemeral port). On success returns the fd and stores the
/// actually-bound port in `bound_port`; on failure returns an invalid fd
/// and stores an errno message in `error`.
///
/// With `reuse_port`, SO_REUSEPORT is set before the bind so several
/// listeners can share one port and let the kernel spread incoming
/// connections across them — the multi-reactor accept path. Every
/// listener in the group must be created with the flag (including the
/// first one, which resolves port 0 for the rest).
UniqueFd tcp_listen(const std::string& address, std::uint16_t port,
                    int backlog, std::uint16_t* bound_port,
                    std::string* error, bool reuse_port = false);

/// Blocking IPv4 connect with a deadline (non-blocking connect + poll).
/// Returns an invalid fd and an errno/timeout message in `error` on
/// failure. The returned socket is left in *blocking* mode.
UniqueFd tcp_connect(const std::string& address, std::uint16_t port,
                     double timeout_s, std::string* error);

/// Accept one pending connection on a non-blocking listener, EINTR-retried.
/// The socket comes back non-blocking and close-on-exec, with TCP_NODELAY
/// set: the server writes every response as one complete frame, so Nagle
/// would only hold pipelined responses back for the peer's delayed ACK.
/// Returns an invalid fd (errno preserved) when nothing is pending or the
/// accept failed.
UniqueFd tcp_accept(int listener_fd);

/// One recv() attempt, EINTR-retried. Never blocks on a non-blocking fd.
IoResult recv_some(int fd, void* buf, std::size_t n);

/// One send() attempt (SIGPIPE suppressed), EINTR-retried.
IoResult send_some(int fd, const void* buf, std::size_t n);

/// One scatter-gather write attempt over `iovcnt` iovecs, EINTR-retried.
/// On sockets this is sendmsg(MSG_NOSIGNAL) — SIGPIPE suppressed like
/// send_some; on non-socket fds (a bench draining to /dev/null) it falls
/// back to plain writev. `iov` is the caller's struct iovec array,
/// declared void* here to keep <sys/uio.h> out of this header.
IoResult writev_some(int fd, const void* iov, int iovcnt);

/// Blocking send of the whole buffer with a poll()-enforced deadline.
/// Returns false on timeout or socket error.
bool send_all(int fd, const void* buf, std::size_t n, double timeout_s);

/// Blocking receive of up to `n` bytes (at least 1) with a deadline.
/// kWouldBlock reports a timeout; kClosed a clean peer shutdown.
IoResult recv_with_timeout(int fd, void* buf, std::size_t n,
                           double timeout_s);

}  // namespace rfp
