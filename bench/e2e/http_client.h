#ifndef EMP_BENCH_E2E_HTTP_CLIENT_H_
#define EMP_BENCH_E2E_HTTP_CLIENT_H_

#include <string>
#include <string_view>

namespace emp::e2e {

struct HttpReply {
  int status = 0;  // 0 = transport failure (connect/send/recv)
  std::string body;
  std::string error;
};

/// One blocking HTTP/1.1 exchange with 127.0.0.1:`port` on a fresh
/// connection (the server answers `Connection: close`), reading until the
/// server closes. A 10 s socket timeout bounds a stalled exchange.
HttpReply HttpCall(int port, std::string_view method, std::string_view target,
                   std::string_view body = {});

}  // namespace emp::e2e

#endif  // EMP_BENCH_E2E_HTTP_CLIENT_H_
