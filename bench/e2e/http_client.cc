#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace emp::e2e {

namespace {

/// Closes the socket on every return path.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

HttpReply TransportError(const char* what) {
  HttpReply reply;
  reply.error = std::string(what) + ": " + std::strerror(errno);
  return reply;
}

}  // namespace

HttpReply HttpCall(int port, std::string_view method, std::string_view target,
                   std::string_view body) {
  Socket sock;
  if (sock.fd() < 0) return TransportError("socket");
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return TransportError("connect");
  }

  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: 127.0.0.1\r\nConnection: close\r\n");
  if (!body.empty()) {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(sock.fd(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return TransportError("send");
    sent += static_cast<size_t>(n);
  }

  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) return TransportError("recv");
    response.append(buf, static_cast<size_t>(n));
  }

  HttpReply reply;
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n<body>"
  const size_t space = response.find(' ');
  const size_t head_end = response.find("\r\n\r\n");
  if (space == std::string::npos || head_end == std::string::npos) {
    reply.error = "malformed response (" + std::to_string(response.size()) +
                  " bytes)";
    return reply;
  }
  reply.status = std::atoi(response.c_str() + space + 1);
  reply.body = response.substr(head_end + 4);
  return reply;
}

}  // namespace emp::e2e
