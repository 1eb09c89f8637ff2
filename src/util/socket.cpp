#include "util/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "util/diag.hpp"

namespace xtalk::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  Diagnostic d;
  d.code = DiagCode::kFileError;
  d.severity = Severity::kError;
  d.message = what + ": " + std::strerror(errno);
  throw DiagError(std::move(d));
}

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// connect(2) with correct EINTR semantics. Unlike read/write, an
/// interrupted connect is NOT restartable: the kernel keeps establishing the
/// connection asynchronously, and calling connect() again can yield a bogus
/// EADDRINUSE/EALREADY. The POSIX-sanctioned recovery is to poll for
/// writability and read the final status via SO_ERROR. Essential once the
/// supervisor's SIGCHLD is landing on threads mid-connect.
void connect_eintr_safe(Socket& s, const sockaddr* addr, socklen_t len,
                        const std::string& what) {
  if (::connect(s.fd(), addr, len) == 0) return;
  if (errno != EINTR) throw_errno(what);
  for (;;) {
    pollfd pfd{s.fd(), POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(" + what + ")");
    }
    break;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
    throw_errno("getsockopt(" + what + ")");
  }
  if (err != 0) {
    errno = err;
    throw_errno(what);
  }
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::close_abortive() {
  if (fd_ >= 0) {
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  close();
}

short Socket::poll_wait(short events, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    pollfd pfd{fd_, events, 0};
    int wait_ms = timeout_ms;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      wait_ms = left > 0 ? static_cast<int>(left) : 0;
    }
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc > 0) return pfd.revents;
    if (rc == 0) return 0;
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

void Socket::set_nonblocking(bool nonblocking) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd_, F_SETFL, wanted) < 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

std::ptrdiff_t Socket::recv_some(void* buf, std::size_t n, bool* would_block,
                                 std::string* error) {
  *would_block = false;
  for (;;) {
    const ssize_t got = ::read(fd_, buf, n);
    if (got >= 0) return got;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return -1;
    }
    if (error != nullptr) *error = errno_text("read");
    return -1;
  }
}

std::ptrdiff_t Socket::send_some(const void* buf, std::size_t n,
                                 bool* would_block, std::string* error) {
  *would_block = false;
  for (;;) {
    // MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE, not SIGPIPE.
    const ssize_t put = ::send(fd_, buf, n, MSG_NOSIGNAL);
    if (put >= 0) return put;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *would_block = true;
      return -1;
    }
    if (error != nullptr) *error = errno_text("send");
    return -1;
  }
}

void Socket::send_all(const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    bool would_block = false;
    std::string error;
    const std::ptrdiff_t put = send_some(p, n, &would_block, &error);
    if (put < 0) {
      if (would_block) continue;  // blocking socket: retry is a spurious wake
      Diagnostic d;
      d.code = DiagCode::kFileError;
      d.severity = Severity::kError;
      d.message = error;
      throw DiagError(std::move(d));
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
}

RecvOutcome Socket::recv_exact_deadline(void* buf, std::size_t n,
                                        int timeout_ms, std::string* error) {
  auto* p = static_cast<std::uint8_t*>(buf);
  const bool bounded = timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? timeout_ms : 0);
  while (n > 0) {
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return RecvOutcome::kTimeout;
      // Poll before reading so a peer that stops sending mid-frame cannot
      // park us in a blocking read past the deadline.
      short revents = 0;
      try {
        revents = poll_wait(POLLIN, static_cast<int>(left));
      } catch (const DiagError& e) {
        if (error != nullptr) *error = e.diagnostic().message;
        return RecvOutcome::kError;
      }
      if (revents == 0) return RecvOutcome::kTimeout;
    }
    bool would_block = false;
    std::string err;
    const std::ptrdiff_t got = recv_some(p, n, &would_block, &err);
    if (got == 0) {
      if (error != nullptr) {
        *error = "connection closed mid-frame (" + std::to_string(n) +
                 " bytes outstanding)";
      }
      return RecvOutcome::kClosed;
    }
    if (got < 0) {
      if (would_block) continue;  // raced with another reader or spurious wake
      if (error != nullptr) *error = std::move(err);
      return RecvOutcome::kError;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return RecvOutcome::kOk;
}

Listener Listener::unix_domain(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    Diagnostic d;
    d.code = DiagCode::kFileError;
    d.severity = Severity::kError;
    d.message = "unix socket path too long: " + path;
    throw DiagError(std::move(d));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale file from a crashed daemon
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(s.fd(), backlog) < 0) throw_errno("listen(" + path + ")");
  s.set_nonblocking(true);

  Listener l;
  l.socket_ = std::move(s);
  l.unix_path_ = path;
  return l;
}

Listener Listener::tcp_loopback(std::uint16_t port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(s.fd(), backlog) < 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  s.set_nonblocking(true);

  Listener l;
  l.socket_ = std::move(s);
  l.port_ = ntohs(addr.sin_port);
  return l;
}

Listener::~Listener() { close(); }

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    socket_ = std::move(other.socket_);
    unix_path_ = std::move(other.unix_path_);
    port_ = other.port_;
    other.unix_path_.clear();
  }
  return *this;
}

Socket Listener::accept_nonblocking() {
  for (;;) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket s(fd);
      s.set_nonblocking(true);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return s;
    }
    if (errno == EINTR) continue;
    return Socket();  // EAGAIN and transient accept errors: nothing pending
  }
}

void Listener::close() {
  socket_.close();
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    Diagnostic d;
    d.code = DiagCode::kFileError;
    d.severity = Severity::kError;
    d.message = "unix socket path too long: " + path;
    throw DiagError(std::move(d));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_UNIX)");
  connect_eintr_safe(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                     "connect(" + path + ")");
  return s;
}

Socket connect_tcp_loopback(std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  connect_eintr_safe(s, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                     "connect(127.0.0.1:" + std::to_string(port) + ")");
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe");
  read_ = Socket(fds[0]);
  write_ = Socket(fds[1]);
  read_.set_nonblocking(true);
  write_.set_nonblocking(true);
}

void WakePipe::notify() {
  const char b = 1;
  // Best-effort: a full pipe already guarantees a pending wake.
  [[maybe_unused]] const ssize_t rc = ::write(write_.fd(), &b, 1);
}

void WakePipe::drain() {
  char buf[256];
  for (;;) {
    const ssize_t got = ::read(read_.fd(), buf, sizeof(buf));
    if (got > 0) continue;
    // A signal landing mid-drain must not leave wake bytes behind — the
    // poll loop would spin on a level-triggered readable pipe.
    if (got < 0 && errno == EINTR) continue;
    return;
  }
}

}  // namespace xtalk::util
