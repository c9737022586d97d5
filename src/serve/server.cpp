#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "serve/wire.hpp"

namespace nbx::serve {

namespace {

constexpr int kPollMs = 100;

// How long a stalled peer may hold a partial frame once stop is raised:
// consecutive poll timeouts with no byte arriving in between.
constexpr int kStopGraceMs = 1000;

// Reads exactly n bytes. Returns 1 on success, 0 on clean EOF before
// the first byte, -1 on error/EOF mid-buffer, when `stop` is raised
// while still waiting for the first byte (idle connection draining), or
// when `stop` is raised and a partial frame makes no progress for
// kStopGraceMs (a stalled peer).
int read_exact(int fd, char* buf, std::size_t n,
               const std::atomic<bool>& stop) {
  std::size_t got = 0;
  std::size_t got_at_last_timeout = 0;
  int stalled_ms = 0;
  while (got < n) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int pr = poll(&p, 1, kPollMs);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (pr == 0) {
      // Timeout: between frames, a raised stop flag ends the
      // connection; mid-frame we keep waiting while bytes still arrive,
      // so an in-flight request always completes (clean drain), but a
      // peer that stalls for the grace period cannot hold stop() open.
      if (stop.load(std::memory_order_relaxed)) {
        if (got == 0) {
          return -1;
        }
        stalled_ms = got == got_at_last_timeout ? stalled_ms + kPollMs : 0;
        if (stalled_ms >= kStopGraceMs) {
          return -1;
        }
      }
      got_at_last_timeout = got;
      continue;
    }
    const ssize_t r = read(fd, buf + got, n - got);
    if (r == 0) {
      return got == 0 ? 0 : -1;
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

bool write_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a client that disconnected mid-response must cost
    // one connection, not a SIGPIPE killing the daemon.
    const ssize_t w = send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), service_(cfg.service) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (running_.load()) {
    return true;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.empty() ||
      cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path empty or too long for AF_UNIX";
    }
    return false;
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  unlink(cfg_.socket_path.c_str());  // stale socket from a prior run
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd_, cfg_.accept_backlog) != 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen ") + cfg_.socket_path + ": " +
               std::strerror(errno);
    }
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stopping_.store(true);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::list<Connection> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
  }
  for (Connection& c : conns) {
    c.thread.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  unlink(cfg_.socket_path.c_str());
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int pr = poll(&p, 1, 100);
    const std::lock_guard<std::mutex> lock(conn_mu_);
    reap_finished();
    if (pr <= 0) {
      continue;
    }
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    Connection& c = connections_.emplace_back();
    try {
      c.thread = std::thread([this, fd, &c] {
        connection_loop(fd);
        c.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error&) {
      // No thread to serve it (out of threads or mappings): the client
      // sees the connection close, and the daemon keeps accepting.
      close(fd);
      connections_.pop_back();
    }
  }
}

void Server::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connection_loop(int fd) {
  std::string payload;
  std::string response;
  std::string frame;
  char header[kFrameHeaderBytes];
  for (;;) {
    // The drain boundary is between frames: a request whose header we
    // have started reading always gets its response, but once stop is
    // raised no new frame is accepted — without this check a client
    // that never goes idle would keep the connection (and stop()'s
    // join) alive forever.
    if (stopping_.load(std::memory_order_relaxed)) {
      break;
    }
    const int hr = read_exact(fd, header, kFrameHeaderBytes, stopping_);
    if (hr <= 0) {
      break;  // EOF, error, or idle drain
    }
    const std::uint32_t len = decode_frame_header(header);
    if (len == 0 || len > kMaxFramePayload) {
      // Protocol violation: answer with a structured error, then close
      // (the stream offset is unrecoverable).
      response.clear();
      render_error_response(response, "frame length out of range");
      frame.clear();
      append_frame(frame, response);
      write_all(fd, frame.data(), frame.size());
      break;
    }
    payload.resize(len);
    if (read_exact(fd, payload.data(), len, stopping_) != 1) {
      break;
    }
    response.clear();
    service_.handle(payload, response);
    frame.clear();
    append_frame(frame, response);
    if (!write_all(fd, frame.data(), frame.size())) {
      break;
    }
  }
  close(fd);
}

}  // namespace nbx::serve
