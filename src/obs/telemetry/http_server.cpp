#include "obs/telemetry/http_server.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // not defined on every POSIX platform
#endif

namespace dqn::obs::telemetry {

namespace {

constexpr int kBacklog = 16;
constexpr std::size_t kMaxRequestBytes = 8192;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Status";
  }
}

void set_socket_timeouts(int fd) {
  timeval timeout{};
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string http_server::url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
      } else {
        out += c;
      }
    } else {
      out += c;
    }
  }
  return out;
}

http_request http_server::parse_target(std::string_view target) {
  http_request request;
  const std::size_t question = target.find('?');
  request.path = url_decode(target.substr(0, question));
  if (question == std::string_view::npos) return request;
  std::string_view query = target.substr(question + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (!pair.empty()) {
      const std::string key = url_decode(pair.substr(0, eq));
      const std::string value =
          eq == std::string_view::npos ? "" : url_decode(pair.substr(eq + 1));
      request.query[key] = value;
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return request;
}

http_server::http_server(const std::string& bind_address, int port,
                         handler_fn handler)
    : handler_{std::move(handler)} {
  if (port < 0 || port > 65535)
    throw std::invalid_argument{"telemetry http_server: port " +
                                std::to_string(port) +
                                " outside [0, 65535]"};
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error{std::string{"telemetry http_server: socket(): "} +
                             std::strerror(errno)};
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address.c_str(), &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error{"telemetry http_server: bad bind address '" +
                             bind_address + "'"};
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, kBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error{"telemetry http_server: cannot listen on " +
                             bind_address + ":" + std::to_string(port) + ": " +
                             reason};
  }

  sockaddr_in bound{};
  socklen_t bound_size = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_size) == 0)
    port_.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);
  thread_ = std::thread{[this] { loop(); }};
}

http_server::~http_server() { stop(); }

void http_server::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void http_server::loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener gone — nothing left to serve
    }
    set_socket_timeouts(fd);
    handle_connection(fd);
    ::close(fd);
  }
}

void http_server::handle_connection(int fd) {
  std::string raw;
  raw.reserve(512);
  char buffer[1024];
  while (raw.find("\r\n\r\n") == std::string::npos &&
         raw.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;  // timeout, reset, or clean close mid-request
    raw.append(buffer, static_cast<std::size_t>(n));
  }

  http_response response;
  bool head_only = false;
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    const std::string_view line{raw.data(), line_end};
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      response = {400, "text/plain; charset=utf-8", "bad request\n"};
    } else {
      http_request request =
          parse_target(line.substr(sp1 + 1, sp2 - sp1 - 1));
      request.method = std::string{line.substr(0, sp1)};
      head_only = request.method == "HEAD";
      if (request.method != "GET" && request.method != "HEAD") {
        response = {405, "text/plain; charset=utf-8",
                    "only GET is supported\n"};
      } else {
        try {
          response = handler_(request);
        } catch (const std::exception& error) {
          response = {500, "text/plain; charset=utf-8",
                      std::string{"handler error: "} + error.what() + "\n"};
        }
      }
    }
  }

  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size()) && !head_only)
    send_all(fd, response.body.data(), response.body.size());
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dqn::obs::telemetry
