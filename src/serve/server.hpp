// server.hpp — the nbxd daemon front end: a unix-domain-socket server
// around one SweepService.
//
// Transport only — framing, connection lifetime, drain. All protocol
// semantics (parsing, caching, coalescing, shedding) live in
// SweepService::handle, so the in-process service, the daemon, and the
// serve-differential oracle family all exercise the same code path.
//
// Threading model: one accept thread, one thread per connection (the
// expected client population is a handful of designers' tools, not ten
// thousand sockets — and each connection multiplexes any number of
// sequential requests). The accept thread joins finished connection
// threads as it goes, so a daemon holds threads (and their stacks) only
// for live connections, however many have come and gone. stop() closes
// the listener, lets every connection finish the request it is
// currently serving, then joins — the clean-drain contract the
// integration test pins down.
#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/service.hpp"

namespace nbx::serve {

struct ServerConfig {
  std::string socket_path;  ///< AF_UNIX path (<= ~100 bytes)
  ServiceConfig service;
  int accept_backlog = 16;
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens + starts the accept thread. False (with reason)
  /// when the socket cannot be created/bound.
  bool start(std::string* error);

  /// Stops accepting, drains in-flight requests, joins every connection
  /// thread, unlinks the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] const std::string& socket_path() const {
    return cfg_.socket_path;
  }
  [[nodiscard]] SweepService& service() { return service_; }
  [[nodiscard]] const SweepService& service() const { return service_; }

 private:
  /// One connection thread; `done` is raised as its last act.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  void accept_loop();
  void connection_loop(int fd);
  /// Joins and drops the connections whose thread has finished. Caller
  /// holds conn_mu_.
  void reap_finished();

  ServerConfig cfg_;
  SweepService service_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;
  std::list<Connection> connections_;  // guarded by conn_mu_
};

}  // namespace nbx::serve
