#include "util/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/check.h"

namespace csq {
namespace net {

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool read_full(int fd, void* buffer, std::size_t size) {
  char* dst = static_cast<char*>(buffer);
  while (size > 0) {
    const ssize_t got = ::read(fd, dst, size);
    if (got > 0) {
      dst += got;
      size -= static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return false;  // EOF mid-message
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool write_full(int fd, const void* buffer, std::size_t size) {
  const char* src = static_cast<const char*>(buffer);
  while (size > 0) {
    // send(MSG_NOSIGNAL), not write: a peer that already hung up must cost
    // an EPIPE on this connection, not a SIGPIPE that ends the process.
    const ssize_t put = ::send(fd, src, size, MSG_NOSIGNAL);
    if (put > 0) {
      src += put;
      size -= static_cast<std::size_t>(put);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Non-blocking socket with a full kernel buffer: wait for drain.
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      if (::poll(&pfd, 1, /*timeout_ms=*/-1) < 0 && errno != EINTR) {
        return false;
      }
      continue;
    }
    return false;
  }
  return true;
}

UniqueFd listen_loopback(std::uint16_t port, int backlog,
                         std::uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  CSQ_CHECK(fd.valid()) << "net: socket() failed: " << std::strerror(errno);
  const int enable = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  CSQ_CHECK(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0)
      << "net: bind(127.0.0.1:" << port
      << ") failed: " << std::strerror(errno);
  CSQ_CHECK(::listen(fd.get(), backlog) == 0)
      << "net: listen failed: " << std::strerror(errno);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  CSQ_CHECK(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0)
      << "net: getsockname failed: " << std::strerror(errno);
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return fd;
}

UniqueFd connect_loopback(std::uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return UniqueFd();

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return UniqueFd();
  }
  set_nodelay(fd.get());
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) {
  const int enable = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                      sizeof(enable)) == 0;
}

}  // namespace net
}  // namespace csq
