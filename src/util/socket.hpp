// Thin RAII sockets for the analysis service: Unix-domain and loopback TCP
// listeners, blocking client connects, non-blocking accepted connections,
// and a self-pipe for waking a poll() loop from other threads.
//
// POSIX-only by design (the daemon targets Linux; the rest of the library
// stays platform-neutral). Errors are reported as util::DiagError with
// DiagCode::kFileError carrying errno text — the service layer maps them to
// protocol error responses or startup failures, it never aborts on a bad
// peer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace xtalk::util {

/// Outcome of a deadline-bounded exact read.
enum class RecvOutcome : std::uint8_t {
  kOk = 0,
  kTimeout,  ///< deadline expired with bytes still outstanding
  kClosed,   ///< orderly EOF mid-read
  kError,    ///< transport error (message in *error)
};

/// Owned file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Release ownership without closing.
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close();
  /// Abortive close: SO_LINGER{on, 0} then close, so a TCP peer sees RST
  /// instead of an orderly FIN. Tests use this to model a peer dying
  /// mid-frame; harmless (plain close) on non-TCP fds.
  void close_abortive();

  /// poll(2) this fd for `events` (POLLIN/POLLOUT). Returns the revents
  /// mask, 0 on timeout. EINTR retries without extending the deadline
  /// beyond `timeout_ms` total; timeout_ms < 0 waits forever.
  short poll_wait(short events, int timeout_ms);

  /// O_NONBLOCK on/off. Throws DiagError(kFileError) on fcntl failure.
  void set_nonblocking(bool nonblocking);

  /// read(2)/write(2) with EINTR retry. Return the byte count; 0 from recv
  /// means orderly peer shutdown; -1 with would_block set means EAGAIN
  /// (only meaningful on non-blocking sockets); -1 otherwise is a hard
  /// error (errno text in *error when given).
  std::ptrdiff_t recv_some(void* buf, std::size_t n, bool* would_block,
                           std::string* error = nullptr);
  std::ptrdiff_t send_some(const void* buf, std::size_t n, bool* would_block,
                           std::string* error = nullptr);

  /// Blocking send of the whole buffer (client side). Throws
  /// DiagError(kFileError) on failure.
  void send_all(const void* buf, std::size_t n);
  /// Read exactly `n` bytes within `timeout_ms` (0 = no deadline), polling
  /// before every read so a stalled peer cannot hang the caller. Partial
  /// progress does NOT extend the deadline: it bounds the whole call.
  RecvOutcome recv_exact_deadline(void* buf, std::size_t n, int timeout_ms,
                                  std::string* error = nullptr);

 private:
  int fd_ = -1;
};

/// Bound + listening socket. `unix_path` listeners unlink their path on
/// destruction (the daemon owns its socket file).
class Listener {
 public:
  /// Listen on a Unix-domain socket at `path` (unlinks a stale file first).
  static Listener unix_domain(const std::string& path, int backlog = 64);
  /// Listen on loopback TCP. `port` 0 picks an ephemeral port; the chosen
  /// port is readable via port().
  static Listener tcp_loopback(std::uint16_t port, int backlog = 64);

  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept
      : socket_(std::move(other.socket_)),
        unix_path_(std::move(other.unix_path_)),
        port_(other.port_) {
    other.unix_path_.clear();
  }
  Listener& operator=(Listener&& other) noexcept;

  int fd() const { return socket_.fd(); }
  bool valid() const { return socket_.valid(); }
  std::uint16_t port() const { return port_; }
  const std::string& unix_path() const { return unix_path_; }

  /// Accept one pending connection (non-blocking listener): an invalid
  /// Socket when none is pending. The accepted socket is set non-blocking.
  Socket accept_nonblocking();

  /// Stop accepting: close the socket (and unlink the unix path) now.
  void close();

 private:
  Socket socket_;
  std::string unix_path_;
  std::uint16_t port_ = 0;
};

/// Blocking client connect (throws DiagError(kFileError) on failure).
Socket connect_unix(const std::string& path);
Socket connect_tcp_loopback(std::uint16_t port);

/// Self-pipe: lets any thread wake a poll() loop blocked on read_fd().
/// notify() is async-signal-safe and idempotent; drain() consumes pending
/// wake bytes.
class WakePipe {
 public:
  WakePipe();
  int read_fd() const { return read_.fd(); }
  void notify();
  void drain();

 private:
  Socket read_;
  Socket write_;
};

}  // namespace xtalk::util
