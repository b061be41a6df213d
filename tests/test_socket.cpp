/// rfp socket helpers: the accepted side of a loopback connection comes
/// back configured the way the reactor needs it (non-blocking,
/// close-on-exec, Nagle off), and an empty accept queue is an invalid fd,
/// not a block or a throw.

#include "rfp/common/socket.hpp"

#include <cstdint>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>

#include <gtest/gtest.h>

namespace rfp {
namespace {

TEST(Socket, TcpAcceptConfiguresTheSocket) {
  std::uint16_t port = 0;
  std::string error;
  const UniqueFd listener = tcp_listen("127.0.0.1", 0, 4, &port, &error);
  ASSERT_TRUE(listener.valid()) << error;
  EXPECT_FALSE(tcp_accept(listener.get()).valid()) << "nothing pending yet";

  const UniqueFd client = tcp_connect("127.0.0.1", port, 5.0, &error);
  ASSERT_TRUE(client.valid()) << error;
  pollfd pfd{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "connection never became pending";
  const UniqueFd accepted = tcp_accept(listener.get());
  ASSERT_TRUE(accepted.valid());

  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);
  EXPECT_NE(::fcntl(accepted.get(), F_GETFL) & O_NONBLOCK, 0);
  EXPECT_NE(::fcntl(accepted.get(), F_GETFD) & FD_CLOEXEC, 0);

  EXPECT_FALSE(tcp_accept(listener.get()).valid()) << "queue drained";
}

}  // namespace
}  // namespace rfp
