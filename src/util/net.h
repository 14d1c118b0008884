// Small POSIX socket helpers for the loopback serving transport
// (serve/transport.h): an fd RAII wrapper and EINTR-safe full-buffer
// read/write loops. Loopback-only scope — no name resolution, no TLS, no
// portability shims beyond what the tests and the transport need.
#pragma once

#include <cstddef>
#include <cstdint>

namespace csq {
namespace net {

// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  // Closes the held descriptor (if any) and forgets it.
  void reset(int fd = -1);
  // Releases ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

// Reads exactly `size` bytes (looping over short reads and EINTR). False on
// EOF or error — the caller treats both as a dead peer.
bool read_full(int fd, void* buffer, std::size_t size);

// Writes exactly `size` bytes to a socket (looping over short writes,
// EINTR, and — for non-blocking sockets — EAGAIN via poll). False on error,
// including a peer that hung up (EPIPE; no SIGPIPE is raised).
bool write_full(int fd, const void* buffer, std::size_t size);

// Binds a loopback (127.0.0.1) TCP listener on `port` (0 = kernel-assigned
// ephemeral) and starts listening. Returns the fd and stores the bound port
// in *bound_port. Throws check_error on failure.
UniqueFd listen_loopback(std::uint16_t port, int backlog,
                         std::uint16_t* bound_port);

// Blocking connect to 127.0.0.1:`port` with TCP_NODELAY set. Invalid
// UniqueFd on failure.
UniqueFd connect_loopback(std::uint16_t port);

// Sets O_NONBLOCK. False on fcntl failure.
bool set_nonblocking(int fd);

// Sets TCP_NODELAY. Frames are small request/response pairs, so latency
// beats coalescing: with Nagle on, a second small write waits for the
// peer's (delayed, ~40 ms) ACK of the first. False on setsockopt failure.
bool set_nodelay(int fd);

}  // namespace net
}  // namespace csq
