// Minimal POSIX socket layer for the partitioning service: RAII fd wrappers,
// unix-domain and loopback-TCP endpoints, and poll-based timed I/O.
//
// Design constraints, driven by the server's robustness contract
// (docs/server.md): every blocking operation takes an explicit timeout so a
// slow-loris peer can never wedge a handler thread; every failure mode is a
// typed NetError (callers distinguish "peer went away" — kEof from
// read_exact — from "wire is garbage", which the frame codec layers on top);
// and sockets are move-only owners so a thrown exception can never leak an
// fd across the soak test's hundreds of connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace spnl {

/// Typed error for every socket-layer failure: refused/failed connects,
/// send/recv errors, bind/listen failures, malformed endpoint specs.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parseable server address: "unix:<path>" or "tcp:<host>:<port>".
/// TCP is intended for loopback/lab use; the daemon speaks the same framed
/// protocol over both.
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;           ///< unix socket path (kind == kUnix)
  std::string host;           ///< kind == kTcp
  std::uint16_t port = 0;     ///< kind == kTcp; 0 = ephemeral (server only)

  /// Parses the spec; throws NetError naming the malformed part.
  static Endpoint parse(const std::string& spec);
  std::string describe() const;
};

/// Outcome of a timed read: distinguishes data, orderly shutdown by the
/// peer, and timeout — three situations the server reacts to differently
/// (keep reading / detach session / close slow connection).
enum class IoStatus : std::uint8_t { kOk, kEof, kTimeout };

/// Move-only owner of a connected socket fd with poll-based timed I/O.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Reads exactly `size` bytes unless the peer shuts down or the deadline
  /// passes. kEof with partial data already consumed is reported as a
  /// NetError ("torn read") — an orderly EOF is only clean on a message
  /// boundary, i.e. at byte 0. Hard socket errors throw NetError.
  IoStatus read_exact(void* buf, std::size_t size, int timeout_ms);

  /// Writes all of `buf` within the deadline; throws NetError on error,
  /// peer reset, or timeout (a blocked peer past the deadline is treated as
  /// dead — the server never queues unboundedly on a slow reader).
  void write_all(const void* buf, std::size_t size, int timeout_ms);

  /// Half-close of the write side (client end-of-stream signalling in
  /// tests; the framed protocol itself uses explicit Bye frames).
  void shutdown_write();

 private:
  int fd_ = -1;
};

/// Connects to `endpoint` within `timeout_ms`; throws NetError on refusal,
/// unreachable path, or timeout.
Socket connect_endpoint(const Endpoint& endpoint, int timeout_ms);

/// Move-only listening socket. A unix endpoint's path appears only once the
/// socket listens (it is bound under a temporary name in the same directory
/// and renamed into place), so a connect that finds the path is never
/// refused. A stale socket file left by a crashed server is replaced, and
/// the path is unlinked on destruction.
class ListenSocket {
 public:
  ListenSocket() = default;
  explicit ListenSocket(const Endpoint& endpoint, int backlog = 64);
  ~ListenSocket();

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Accepts one connection; nullopt on timeout (the server's accept loop
  /// uses short timeouts so drain/shutdown flags are polled promptly).
  std::optional<Socket> accept(int timeout_ms);

  /// The endpoint clients should dial: for tcp port 0 requests, `port` is
  /// rewritten to the kernel-assigned listening port after bind.
  const Endpoint& endpoint() const { return endpoint_; }

  void close();

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

}  // namespace spnl
