// Embedded HTTP/1.1 exposition listener — self-contained on POSIX sockets,
// no third-party dependency. One acceptor thread; each accepted connection
// is parsed, answered, and closed inline under short socket timeouts, so
// there are never detached handler threads to leak past shutdown and a
// stalled client cannot wedge the server for more than the timeout.
//
// Scope is deliberately tiny: GET (plus HEAD) requests, path + query string,
// `Connection: close` responses. That is everything a /metrics scrape, a
// curl, or a health-checker needs; it is not a general web server and must
// never listen beyond loopback unless the caller explicitly binds wider
// (telemetry_config.bind_address).
//
// Lifecycle: the constructor binds + listens (throwing on failure, e.g.
// port already in use) and starts the acceptor; stop()/destruction shuts
// the listening socket down and joins. Port 0 binds an ephemeral port; read
// the real one back with port().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace dqn::obs::telemetry {

struct http_request {
  std::string method;  // "GET", "HEAD", ...
  std::string path;    // decoded, no query string, e.g. "/series"
  std::map<std::string, std::string> query;  // decoded key -> value
};

struct http_response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class http_server {
 public:
  using handler_fn = std::function<http_response(const http_request&)>;

  // Binds `bind_address:port` (port 0 = ephemeral) and starts the acceptor
  // thread. Throws std::invalid_argument for a port outside [0, 65535]
  // (before any socket is opened) and std::runtime_error when the socket
  // cannot be set up.
  http_server(const std::string& bind_address, int port, handler_fn handler);
  ~http_server();

  http_server(const http_server&) = delete;
  http_server& operator=(const http_server&) = delete;

  // Idempotent; wakes the acceptor, closes the listener, joins.
  void stop();

  // The actually-bound port (resolves ephemeral binds).
  [[nodiscard]] int port() const noexcept {
    return port_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool running() const noexcept {
    return !stopping_.load(std::memory_order_acquire);
  }
  // Requests answered (any status) since construction.
  [[nodiscard]] std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  // Percent-decode a URL component ("%2F" -> "/", "+" -> " "). Exposed for
  // tests; malformed escapes are passed through literally.
  [[nodiscard]] static std::string url_decode(std::string_view text);

  // Parse "path?k=v&k2=v2" into a request's path + query map.
  [[nodiscard]] static http_request parse_target(std::string_view target);

 private:
  void loop();
  void handle_connection(int fd);

  handler_fn handler_;
  int listen_fd_ = -1;
  std::atomic<int> port_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;  // last member: starts only after everything above
};

}  // namespace dqn::obs::telemetry
