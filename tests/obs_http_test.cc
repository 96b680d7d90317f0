#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/fact_solver.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "test_util.h"

namespace emp {
namespace obs {
namespace {

/// Minimal blocking HTTP client: one request, reads to EOF (the server
/// closes after each response), returns the raw response text.
std::string HttpGet(int port, const std::string& target,
                    const std::string& method = "GET") {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string StatusLineOf(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(HttpServerTest, ServesHealthzOnEphemeralPort) {
  HttpServer::Options options;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->port(), 0);
  std::string response = HttpGet((*server)->port(), "/healthz");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(BodyOf(response), "ok\n");
  EXPECT_GE((*server)->requests_served(), 1);
  (*server)->Stop();
  (*server)->Stop();  // idempotent
}

TEST(HttpServerTest, ServesMetricsInBothFormats) {
  MetricRegistry registry;
  registry.GetCounter("emp_test_requests_total", "Requests seen.")->Add(5);
  HttpServer::Options options;
  options.metrics = &registry;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::string prom = BodyOf(HttpGet((*server)->port(), "/metrics"));
  EXPECT_NE(prom.find("# HELP emp_test_requests_total Requests seen."),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE emp_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("emp_test_requests_total 5"), std::string::npos);

  auto doc = json::Parse(BodyOf(HttpGet((*server)->port(), "/metrics.json")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("counters")->Find("emp_test_requests_total")->AsNumber(),
            5);
  // The server counts its own traffic into the live registry.
  EXPECT_GE(registry.GetCounter("emp_http_requests_total")->value(), 2);
}

TEST(HttpServerTest, ServesProgressFromTheBoard) {
  ProgressBoard board;
  board.SetPhase("construction");
  board.SetBestP(4);
  HttpServer::Options options;
  options.progress = &board;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto doc = json::Parse(BodyOf(HttpGet((*server)->port(), "/progress")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("phase")->AsString(), "construction");
  EXPECT_EQ(doc->Find("best_p")->AsNumber(), 4);

  // The board is live: a later poll reflects later publishes.
  board.SetPhase("tabu");
  board.SetBestP(9);
  doc = json::Parse(BodyOf(HttpGet((*server)->port(), "/progress")));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("phase")->AsString(), "tabu");
  EXPECT_EQ(doc->Find("best_p")->AsNumber(), 9);
}

TEST(HttpServerTest, NullSinksServeDefaults) {
  HttpServer::Options options;  // no registry, no board
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(BodyOf(HttpGet((*server)->port(), "/metrics")), "");
  auto doc = json::Parse(BodyOf(HttpGet((*server)->port(), "/progress")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("phase")->AsString(), "idle");
}

TEST(HttpServerTest, UnknownRouteIs404AndNonGetIs405) {
  HttpServer::Options options;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Errors wear the JSON envelope, not ad-hoc plain text.
  const std::string not_found = HttpGet((*server)->port(), "/nope");
  EXPECT_EQ(StatusLineOf(not_found), "HTTP/1.1 404 Not Found");
  auto doc = json::Parse(BodyOf(not_found));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("error")->Find("code")->AsString(), "not_found");
  EXPECT_NE(doc->Find("error")->Find("message")->AsString().find("/nope"),
            std::string::npos);

  // A wrong method on a known route is 405 with an Allow header — not a
  // 404, and not a blanket refusal of all non-GET traffic.
  const std::string wrong_method =
      HttpGet((*server)->port(), "/healthz", "POST");
  EXPECT_EQ(StatusLineOf(wrong_method), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(wrong_method.find("Allow: GET"), std::string::npos);
  doc = json::Parse(BodyOf(wrong_method));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("error")->Find("code")->AsString(),
            "method_not_allowed");
}

TEST(HttpServerTest, HandlerHookClaimsRoutesAndFallsThrough) {
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request)
      -> std::optional<HttpResponse> {
    if (request.target == "/echo") {
      return HttpResponse{200, "text/plain",
                          request.method + ":" + request.body, {}};
    }
    return std::nullopt;  // everything else falls through to built-ins
  };
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  // A POST with a body reaches the handler intact.
  const std::string body = "hello plane";
  std::string request =
      "POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Split the send mid-headers and mid-body: the reader must reassemble.
  const size_t cut = request.size() / 2;
  ASSERT_EQ(::send(fd, request.data(), cut, 0), static_cast<ssize_t>(cut));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::send(fd, request.data() + cut, request.size() - cut, 0),
            static_cast<ssize_t>(request.size() - cut));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(BodyOf(response), "POST:hello plane");

  // Unclaimed targets still serve the built-ins.
  EXPECT_EQ(BodyOf(HttpGet(port, "/healthz")), "ok\n");
}

/// Sends `pieces` in order (small pause between them), optionally
/// half-closing the write side afterwards, and returns the raw response.
std::string RawExchange(int port, const std::vector<std::string>& pieces,
                        bool half_close = false) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    size_t sent = 0;
    while (sent < pieces[i].size()) {
      ssize_t n = ::send(fd, pieces[i].data() + sent,
                         pieces[i].size() - sent, 0);
      if (n <= 0) {
        ::close(fd);
        return "";
      }
      sent += static_cast<size_t>(n);
    }
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

HttpServer::Options EchoOptions() {
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request)
      -> std::optional<HttpResponse> {
    if (request.target == "/echo") {
      return HttpResponse{200, "text/plain",
                          request.method + ":" + request.body, {}};
    }
    return std::nullopt;
  };
  return options;
}

TEST(HttpServerTest, ContentLengthZeroYieldsEmptyBody) {
  auto server = HttpServer::Start(EchoOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string response = RawExchange(
      (*server)->port(),
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 0\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(BodyOf(response), "POST:");
}

TEST(HttpServerTest, BodySplitExactlyAtHeaderBoundary) {
  auto server = HttpServer::Start(EchoOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // First segment ends precisely at the \r\n\r\n head terminator, so the
  // body reader starts with zero buffered body bytes and must recv the
  // whole payload in phase 2.
  const std::string body = "split at the seam";
  const std::string response = RawExchange(
      (*server)->port(),
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n",
       body});
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(BodyOf(response), "POST:" + body);
}

TEST(HttpServerTest, OversizedContentLengthValuesAreRejected) {
  auto server = HttpServer::Start(EchoOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  // Larger than the 64 KiB cap but parseable: 413.
  std::string response = RawExchange(
      port,
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 100000\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 413 Content Too Large");
  EXPECT_NE(BodyOf(response).find("payload_too_large"), std::string::npos);
  // Overflows unsigned long long entirely: strtoull saturates to
  // ULLONG_MAX, which the size cap must still catch — not wrap to a small
  // accepted length.
  response = RawExchange(
      port,
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 99999999999999999999999999\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 413 Content Too Large");
  // Not a number at all: 400.
  response = RawExchange(
      port,
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 12x3\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(BodyOf(response).find("unparseable Content-Length"),
            std::string::npos);
}

TEST(HttpServerTest, PeerCloseMidBodyIsTruncationError) {
  auto server = HttpServer::Start(EchoOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Declare 100 bytes, deliver 10, then half-close: the reader must report
  // exactly what it got instead of hanging or serving a partial body.
  const std::string response = RawExchange(
      (*server)->port(),
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 100\r\n\r\n",
       "only10byte"},
      /*half_close=*/true);
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(BodyOf(response).find(
                "request body truncated: got 10 of 100 bytes"),
            std::string::npos);
}

TEST(HttpServerTest, ServesProfilerDumpAtProfile) {
  HttpServer::Options options;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::string response = HttpGet((*server)->port(), "/profile");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 200 OK");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  auto doc = json::Parse(BodyOf(response));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // The profiler is off by default; the dump still has the full shape.
  EXPECT_EQ(doc->Find("enabled")->AsBool(), false);
  ASSERT_NE(doc->Find("phases"), nullptr);
  // Wrong method gets the usual 405 treatment.
  const std::string wrong = HttpGet((*server)->port(), "/profile", "POST");
  EXPECT_EQ(StatusLineOf(wrong), "HTTP/1.1 405 Method Not Allowed");
}

// Every error envelope must declare itself JSON — clients dispatch on
// Content-Type, and a 404/405/413/400 that arrives as text/plain would
// silently break them.
TEST(HttpServerTest, ErrorEnvelopesCarryJsonContentType) {
  auto server = HttpServer::Start(EchoOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  const std::string not_found = HttpGet(port, "/nope");
  EXPECT_EQ(StatusLineOf(not_found), "HTTP/1.1 404 Not Found");
  EXPECT_NE(not_found.find("Content-Type: application/json"),
            std::string::npos);

  const std::string wrong_method = HttpGet(port, "/healthz", "POST");
  EXPECT_EQ(StatusLineOf(wrong_method), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(wrong_method.find("Content-Type: application/json"),
            std::string::npos);

  const std::string too_large = RawExchange(
      port,
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 100000\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(too_large), "HTTP/1.1 413 Content Too Large");
  EXPECT_NE(too_large.find("Content-Type: application/json"),
            std::string::npos);

  const std::string bad_request = RawExchange(
      port,
      {"POST /echo HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n"
       "Content-Length: 12x3\r\n\r\n"});
  EXPECT_EQ(StatusLineOf(bad_request), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(bad_request.find("Content-Type: application/json"),
            std::string::npos);

  // Each of those bodies is parseable JSON wearing the envelope.
  for (const std::string* response :
       {&not_found, &wrong_method, &too_large, &bad_request}) {
    auto doc = json::Parse(BodyOf(*response));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_NE(doc->Find("error"), nullptr);
  }
}

TEST(HttpServerTest, QueryStringsAreIgnoredInRouting) {
  HttpServer::Options options;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(BodyOf(HttpGet((*server)->port(), "/healthz?probe=1")), "ok\n");
}

TEST(HttpServerTest, PortCollisionIsAnError) {
  auto first = HttpServer::Start({});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  HttpServer::Options options;
  options.port = (*first)->port();
  auto second = HttpServer::Start(options);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kIOError);
}

/// The guarantee the whole plane rests on: serving does not perturb the
/// solve. A fixed-seed solve must be bit-identical with a caller-attached
/// server, board and registry around Solve(ctx) and without any of them.
TEST(HttpServerTest, ServingDoesNotPerturbTheSolve) {
  std::vector<double> pop(36);
  for (size_t i = 0; i < pop.size(); ++i) {
    pop[i] = 5.0 + static_cast<double>((i * 37) % 23);
  }
  AreaSet areas =
      test::MakeAreaSet(test::GridGraph(6, 6), {{"pop", pop}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 60, kNoUpperBound)};
  FactSolver solver(&areas, cs);

  MetricRegistry registry;
  ProgressBoard board;
  HttpServer::Options options;
  options.metrics = &registry;
  options.progress = &board;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  RunContext ctx = MakeRunContext(solver.options());
  ctx.metrics = &registry;
  ctx.progress_board = &board;
  auto observed = solver.Solve(ctx);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  // The plane saw the run: /progress reports its final state.
  auto doc = json::Parse(BodyOf(HttpGet((*server)->port(), "/progress")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("best_p")->AsNumber(), observed->p());
  (*server)->Stop();

  auto plain = solver.Solve();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  EXPECT_EQ(observed->p(), plain->p());
  EXPECT_EQ(observed->region_of, plain->region_of);
  EXPECT_EQ(observed->heterogeneity, plain->heterogeneity);
}

// Full-plane race: board writers + metric writers + HTTP readers, all
// concurrent. Run under TSan via tools/run_sanitized_tests.sh: the board
// must stay version-stable and the related-field invariant must hold in
// every served snapshot.
TEST(HttpServerTest, ConcurrentPublishersAndReadersStayConsistent) {
  MetricRegistry registry;
  ProgressBoard board;
  HttpServer::Options options;
  options.metrics = &registry;
  options.progress = &board;
  auto server = HttpServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // 2 board publishers, each keeping (checkpoints, evaluations = 3 *
  // checkpoints) related inside one bracket.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&board, &stop] {
      for (int64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
        board.OnCheckpoint("tabu", k, 3 * k);
        board.SetBestP(static_cast<int32_t>(k % 64));
      }
    });
  }
  // 2 metric publishers.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&registry, &stop] {
      Counter* counter = registry.GetCounter("emp_hammer_total");
      Gauge* gauge = registry.GetGauge("emp_hammer_gauge");
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        gauge->Set(1.0);
      }
    });
  }
  // 2 HTTP /progress pollers asserting the bracket invariant end-to-end.
  std::atomic<int64_t> polls{0};
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&stop, &polls, port] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto doc = json::Parse(BodyOf(HttpGet(port, "/progress")));
        ASSERT_TRUE(doc.ok()) << doc.status().ToString();
        ASSERT_EQ(doc->Find("evaluations")->AsNumber(),
                  3 * doc->Find("checkpoints")->AsNumber());
        polls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // 2 direct board readers (no HTTP hop) watching version stability.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&board, &stop] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ProgressSnapshot s = board.Read();
        ASSERT_EQ(s.version % 2, 0u);
        ASSERT_GE(s.version, last_version);
        last_version = s.version;
        ASSERT_EQ(s.evaluations, 3 * s.checkpoints);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_GT(polls.load(), 0);
  // A last poll through the full stack still parses after the hammer.
  auto doc = json::Parse(BodyOf(HttpGet(port, "/metrics.json")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GT(doc->Find("counters")->Find("emp_hammer_total")->AsNumber(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace emp
