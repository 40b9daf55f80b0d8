#include "util/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace spnl {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// Waits for `events` on `fd`; false on timeout, throws on poll error.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;  // signal (e.g. the drain SIGTERM) — retry
    throw_errno("poll");
  }
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError("unix socket path too long (" + std::to_string(path.size()) +
                   " >= " + std::to_string(sizeof(addr.sun_path)) + "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  const std::string host = endpoint.host.empty() ? "127.0.0.1" : endpoint.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("endpoint: bad IPv4 host '" + host + "'");
  }
  return addr;
}

int open_socket(Endpoint::Kind kind) {
  const int fd =
      ::socket(kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET,
               SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

}  // namespace

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.kind = Kind::kUnix;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) throw NetError("endpoint: empty unix path in '" + spec + "'");
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon + 1 == rest.size()) {
      throw NetError("endpoint: want tcp:<host>:<port> in '" + spec + "'");
    }
    endpoint.host = rest.substr(0, colon);
    // Whole-token parse: stoul accepted "80abc" (and leading whitespace/sign),
    // silently connecting to a different port than the operator wrote.
    const std::string port_str = rest.substr(colon + 1);
    std::uint32_t port = 0;
    const char* port_end = port_str.data() + port_str.size();
    auto [next, ec] = std::from_chars(port_str.data(), port_end, port);
    if (ec != std::errc() || next != port_end || port > 65535) {
      throw NetError("endpoint: bad port in '" + spec + "'");
    }
    endpoint.port = static_cast<std::uint16_t>(port);
    return endpoint;
  }
  throw NetError("endpoint: want unix:<path> or tcp:<host>:<port>, got '" + spec + "'");
}

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + (host.empty() ? std::string("127.0.0.1") : host) + ":" +
         std::to_string(port);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

IoStatus Socket::read_exact(void* buf, std::size_t size, int timeout_ms) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < size) {
    if (!wait_fd(fd_, POLLIN, timeout_ms)) {
      if (got > 0) throw NetError("read: timed out mid-message");
      return IoStatus::kTimeout;
    }
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got > 0) throw NetError("read: peer closed mid-message (torn read)");
      return IoStatus::kEof;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_errno("recv");
  }
  return IoStatus::kOk;
}

void Socket::write_all(const void* buf, std::size_t size, int timeout_ms) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < size) {
    if (!wait_fd(fd_, POLLOUT, timeout_ms)) {
      throw NetError("write: timed out (peer not draining)");
    }
    // MSG_NOSIGNAL: a peer that vanished mid-write surfaces as EPIPE, not a
    // process-killing SIGPIPE — one misbehaving client must never take the
    // daemon down.
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    throw_errno("send");
  }
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Socket connect_endpoint(const Endpoint& endpoint, int timeout_ms) {
  Socket sock(open_socket(endpoint.kind));
  set_nonblocking(sock.fd());

  int rc;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = make_unix_addr(endpoint.path);
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    const sockaddr_in addr = make_tcp_addr(endpoint);
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0 && errno != EINPROGRESS && errno != EAGAIN) {
    throw_errno("connect " + endpoint.describe());
  }
  if (rc < 0) {
    if (!wait_fd(sock.fd(), POLLOUT, timeout_ms)) {
      throw NetError("connect " + endpoint.describe() + ": timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      throw NetError("connect " + endpoint.describe() + ": " + std::strerror(err));
    }
  }
  return sock;
}

ListenSocket::ListenSocket(const Endpoint& endpoint, int backlog)
    : fd_(open_socket(endpoint.kind)), endpoint_(endpoint) {
  std::string bound_tmp;  // unix socket file to remove if construction fails
  try {
    set_nonblocking(fd_);
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      // Bind under a temporary name and rename it onto the endpoint only once
      // it listens: a launcher that waits for the path to appear must never
      // connect between bind() and listen() and be refused. rename() also
      // replaces a stale socket file left by a crashed server.
      const std::string tmp = endpoint_.path + ".tmp" + std::to_string(::getpid());
      const sockaddr_un addr = make_unix_addr(tmp);
      ::unlink(tmp.c_str());  // left by a crashed process that had our pid
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("bind " + endpoint_.describe());
      }
      bound_tmp = tmp;
      if (::listen(fd_, backlog) < 0) throw_errno("listen " + endpoint_.describe());
      if (::rename(tmp.c_str(), endpoint_.path.c_str()) < 0) {
        throw_errno("rename " + tmp + " -> " + endpoint_.path);
      }
      bound_tmp.clear();
    } else {
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      const sockaddr_in addr = make_tcp_addr(endpoint_);
      if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("bind " + endpoint_.describe());
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        endpoint_.port = ntohs(bound.sin_port);
      }
      if (::listen(fd_, backlog) < 0) throw_errno("listen " + endpoint_.describe());
    }
  } catch (...) {
    if (!bound_tmp.empty()) ::unlink(bound_tmp.c_str());
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

ListenSocket::~ListenSocket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), endpoint_(std::move(other.endpoint_)) {
  other.fd_ = -1;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    other.fd_ = -1;
  }
  return *this;
}

std::optional<Socket> ListenSocket::accept(int timeout_ms) {
  if (!wait_fd(fd_, POLLIN, timeout_ms)) return std::nullopt;
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return std::nullopt;  // raced away; the accept loop just re-polls
    }
    throw_errno("accept");
  }
  return Socket(fd);
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.kind == Endpoint::Kind::kUnix) {
      ::unlink(endpoint_.path.c_str());
    }
  }
}

}  // namespace spnl
