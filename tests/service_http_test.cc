#include "service/solve_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "service/job_manager.h"

namespace emp {
namespace service {
namespace {

/// Sends one raw request (optionally split into `chunks` sends with small
/// pauses, to exercise the server's partial-recv handling) and reads the
/// response to EOF.
std::string RawRequest(int port, const std::string& request,
                       int chunks = 1) {
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
  const size_t chunk_size =
      (request.size() + static_cast<size_t>(chunks) - 1) /
      static_cast<size_t>(chunks);
  size_t sent = 0;
  while (sent < request.size()) {
    const size_t len = std::min(chunk_size, request.size() - sent);
    size_t sent_in_chunk = 0;
    while (sent_in_chunk < len) {
      ssize_t n = ::send(fd, request.data() + sent + sent_in_chunk,
                         len - sent_in_chunk, 0);
      if (n <= 0) {
        ::close(fd);
        return "";
      }
      sent_in_chunk += static_cast<size_t>(n);
    }
    sent += len;
    if (sent < request.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
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

std::string HttpCall(int port, const std::string& method,
                     const std::string& target, const std::string& body = "",
                     int chunks = 1) {
  std::ostringstream request;
  request << method << " " << target << " HTTP/1.1\r\n"
          << "Host: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    request << "Content-Type: application/json\r\n"
            << "Content-Length: " << body.size() << "\r\n";
  }
  request << "\r\n" << body;
  return RawRequest(port, request.str(), chunks);
}

std::string StatusLineOf(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string HeadersOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? response : response.substr(0, pos);
}

/// A service + server pair wired together with the right teardown order.
struct Stack {
  std::unique_ptr<SolveService> service;
  std::unique_ptr<obs::HttpServer> server;
  int port = 0;

  Stack() = default;
  Stack(Stack&&) = default;
  Stack& operator=(Stack&&) = default;

  ~Stack() {
    if (server != nullptr) server->Stop();  // before the service dies
  }
};

Stack StartStack(JobManager::Options options = {}) {
  Stack stack;
  auto service = SolveService::Create(std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return stack;
  stack.service = std::move(*service);
  obs::HttpServer::Options server_options;
  server_options.handler = stack.service->Handler();
  auto server = obs::HttpServer::Start(server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return stack;
  stack.server = std::move(*server);
  stack.port = stack.server->port();
  return stack;
}

constexpr char kTinyBody[] =
    "{\"instance\": \"tiny\", \"query\": \"SUM(TOTALPOP) >= 20000\", "
    "\"options\": {\"seed\": 123}}";

int64_t JobIdOf(const std::string& body) {
  auto doc = json::Parse(body);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << body;
  if (!doc.ok()) return -1;
  return static_cast<int64_t>(doc->Find("job_id")->AsNumber());
}

/// Polls GET /jobs/<id> until the state is terminal; returns the last doc.
Result<json::Value> PollTerminal(int port, int64_t id) {
  for (int i = 0; i < 600; ++i) {
    auto doc =
        json::Parse(BodyOf(HttpCall(port, "GET",
                                    "/jobs/" + std::to_string(id))));
    if (!doc.ok()) return doc.status();
    const std::string state = doc->Find("state")->AsString();
    if (state != "queued" && state != "running") return doc;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Internal("job never reached a terminal state");
}

TEST(SolveServiceHttpTest, SolveRunsToDoneOverHttp) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);

  const std::string response =
      HttpCall(stack.port, "POST", "/solve", kTinyBody);
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 202 Accepted");
  auto accepted = json::Parse(BodyOf(response));
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->Find("solver")->AsString(), "fact");
  EXPECT_EQ(accepted->Find("instance")->AsString(), "tiny");
  const int64_t id = JobIdOf(BodyOf(response));
  ASSERT_GE(id, 0);

  auto doc = PollTerminal(stack.port, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("state")->AsString(), "done");
  EXPECT_EQ(doc->Find("termination")->AsString(), "converged");
  ASSERT_NE(doc->Find("result"), nullptr);
  EXPECT_GE(doc->Find("result")->Find("p")->AsNumber(), 1);
  ASSERT_NE(doc->Find("progress"), nullptr);

  // The jobs index lists it without payloads.
  auto jobs = json::Parse(BodyOf(HttpCall(stack.port, "GET", "/jobs")));
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs->Find("jobs")->AsArray().size(), 1u);
  EXPECT_EQ(jobs->Find("jobs")->AsArray()[0].Find("state")->AsString(),
            "done");

  // The journal endpoint serves the per-job audit trail.
  const std::string journal_response = HttpCall(
      stack.port, "GET", "/jobs/" + std::to_string(id) + "/journal");
  EXPECT_EQ(StatusLineOf(journal_response), "HTTP/1.1 200 OK");
  EXPECT_NE(HeadersOf(journal_response).find("application/x-ndjson"),
            std::string::npos);
  EXPECT_NE(BodyOf(journal_response).find("job_start"), std::string::npos);
  EXPECT_NE(BodyOf(journal_response).find("job_end"), std::string::npos);
}

/// The fixed-seed solution served over HTTP is the library's own report —
/// bit-identical to the direct JobManager path against the same request.
TEST(SolveServiceHttpTest, HttpResultMatchesDirectSubmission) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);
  const std::string response =
      HttpCall(stack.port, "POST", "/solve", kTinyBody);
  ASSERT_EQ(StatusLineOf(response), "HTTP/1.1 202 Accepted");
  const int64_t id = JobIdOf(BodyOf(response));
  auto doc = PollTerminal(stack.port, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  auto via_http = stack.service->jobs().Get(id);
  ASSERT_TRUE(via_http.ok());

  JobRequest request;
  request.instance = "tiny";
  request.query = "SUM(TOTALPOP) >= 20000";
  request.options.seed = 123;
  auto direct_manager = JobManager::Create({});
  ASSERT_TRUE(direct_manager.ok());
  auto direct = (*direct_manager)->Submit(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto state = (*direct_manager)->WaitTerminal(direct->id);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(*state, JobState::kDone);
  auto direct_snapshot = (*direct_manager)->Get(direct->id);
  ASSERT_TRUE(direct_snapshot.ok());

  // Scrub the wall-clock timing lines, then demand byte equality.
  auto scrub = [](const std::string& json) {
    std::istringstream in(json);
    std::string out, line;
    while (std::getline(in, line)) {
      if (line.find("_seconds") != std::string::npos) continue;
      out += line;
      out += '\n';
    }
    return out;
  };
  EXPECT_EQ(scrub(via_http->result_json),
            scrub(direct_snapshot->result_json));
}

TEST(SolveServiceHttpTest, WrongMethodsAnswer405WithAllow) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);

  const std::string get_solve = HttpCall(stack.port, "GET", "/solve");
  EXPECT_EQ(StatusLineOf(get_solve), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(HeadersOf(get_solve).find("Allow: POST"), std::string::npos);
  auto doc = json::Parse(BodyOf(get_solve));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("error")->Find("code")->AsString(),
            "method_not_allowed");

  const std::string post_jobs = HttpCall(stack.port, "POST", "/jobs", "{}");
  EXPECT_EQ(StatusLineOf(post_jobs), "HTTP/1.1 405 Method Not Allowed");
  EXPECT_NE(HeadersOf(post_jobs).find("Allow: GET"), std::string::npos);
}

TEST(SolveServiceHttpTest, BadRequestsAnswer400WithExactMessages) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);

  // Not JSON at all.
  const std::string not_json =
      HttpCall(stack.port, "POST", "/solve", "this is not json");
  EXPECT_EQ(StatusLineOf(not_json), "HTTP/1.1 400 Bad Request");

  // Empty body.
  const std::string empty = HttpCall(stack.port, "POST", "/solve");
  EXPECT_EQ(StatusLineOf(empty), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(BodyOf(empty).find("empty body"), std::string::npos);

  // Unknown top-level field: a typo must not become a default.
  const std::string typo = HttpCall(stack.port, "POST", "/solve",
                                    "{\"instance\": \"tiny\", \"querry\": "
                                    "\"SUM(TOTALPOP) >= 1\"}");
  EXPECT_EQ(StatusLineOf(typo), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(BodyOf(typo).find("unknown field 'querry'"), std::string::npos);

  // The S17 parser's exact message crosses the wire.
  const std::string bad_query =
      HttpCall(stack.port, "POST", "/solve",
               "{\"instance\": \"tiny\", \"query\": \"FOO(X) >= 1\"}");
  EXPECT_EQ(StatusLineOf(bad_query), "HTTP/1.1 400 Bad Request");
  auto doc = json::Parse(BodyOf(bad_query));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("error")->Find("message")->AsString(),
            "unknown aggregate 'FOO'");

  // Unknown instances and attribute bindings are 404s.
  const std::string bad_instance =
      HttpCall(stack.port, "POST", "/solve",
               "{\"instance\": \"atlantis\", \"query\": \"COUNT >= 1\"}");
  EXPECT_EQ(StatusLineOf(bad_instance), "HTTP/1.1 404 Not Found");
  const std::string bad_attribute = HttpCall(
      stack.port, "POST", "/solve",
      "{\"instance\": \"tiny\", \"query\": \"SUM(NO_SUCH) >= 1\"}");
  EXPECT_EQ(StatusLineOf(bad_attribute), "HTTP/1.1 404 Not Found");
  EXPECT_NE(BodyOf(bad_attribute).find("no attribute column named"),
            std::string::npos);

  // Unknown option key.
  const std::string bad_option =
      HttpCall(stack.port, "POST", "/solve",
               "{\"instance\": \"tiny\", \"query\": \"COUNT >= 1\", "
               "\"options\": {\"sede\": 1}}");
  EXPECT_EQ(StatusLineOf(bad_option), "HTTP/1.1 400 Bad Request");
  EXPECT_NE(BodyOf(bad_option).find("unknown option 'sede'"),
            std::string::npos);

  // None of these were admitted.
  auto jobs = json::Parse(BodyOf(HttpCall(stack.port, "GET", "/jobs")));
  ASSERT_TRUE(jobs.ok());
  EXPECT_TRUE(jobs->Find("jobs")->AsArray().empty());
}

TEST(SolveServiceHttpTest, UnknownJobsAnswer404) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "GET", "/jobs/999")),
            "HTTP/1.1 404 Not Found");
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "GET", "/jobs/abc")),
            "HTTP/1.1 404 Not Found");
  EXPECT_EQ(
      StatusLineOf(HttpCall(stack.port, "GET", "/jobs/7/confetti")),
      "HTTP/1.1 404 Not Found");
  // Unclaimed targets still fall through to the obs built-ins.
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "GET", "/healthz")),
            "HTTP/1.1 200 OK");
}

TEST(SolveServiceHttpTest, MalformedJobIdsAnswer404WithExactMessages) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);

  // Trailing garbage after digits: strtoll would stop at the 'x' and
  // report job 5; the strict parser must refuse the whole token.
  std::string response = HttpCall(stack.port, "GET", "/jobs/5x");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 404 Not Found");
  EXPECT_NE(BodyOf(response).find("malformed job id '5x'"),
            std::string::npos);

  // Negative ids are never issued; "-5" must not reach the job table.
  response = HttpCall(stack.port, "GET", "/jobs/-5");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 404 Not Found");
  EXPECT_NE(BodyOf(response).find("malformed job id '-5'"),
            std::string::npos);

  // Explicit sign and embedded space are rejected, not partially parsed.
  response = HttpCall(stack.port, "GET", "/jobs/+5");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 404 Not Found");
  EXPECT_NE(BodyOf(response).find("malformed job id '+5'"),
            std::string::npos);

  // Overflow: strtoll would clamp to LLONG_MAX and 404 as "unknown job
  // 9223372036854775807" — the parser must call out the range instead.
  response = HttpCall(stack.port, "GET", "/jobs/99999999999999999999");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 404 Not Found");
  EXPECT_NE(
      BodyOf(response).find("job id '99999999999999999999' out of range"),
      std::string::npos);

  // The uniform error envelope carries all of these.
  auto body = json::Parse(BodyOf(response));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Find("error")->Find("code")->AsString(), "not_found");

  // A well-formed id for a job that does not exist still routes to the
  // manager's NotFound.
  response = HttpCall(stack.port, "GET", "/jobs/12345/journal");
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 404 Not Found");
}

TEST(SolveServiceHttpTest, CancelOverHttpGoesTerminal) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);

  // A job on the 2k instance that tabu keeps running until cancelled (a
  // no-improve limit it never reaches); cancel it right away.
  const std::string response = HttpCall(
      stack.port, "POST", "/solve",
      "{\"instance\": \"2k\", \"query\": \"SUM(TOTALPOP) >= 10000\", "
      "\"options\": {\"tabu_max_no_improve\": 1099511627776}}");
  ASSERT_EQ(StatusLineOf(response), "HTTP/1.1 202 Accepted");
  const int64_t id = JobIdOf(BodyOf(response));

  const std::string cancel = HttpCall(
      stack.port, "POST", "/jobs/" + std::to_string(id) + "/cancel");
  EXPECT_EQ(StatusLineOf(cancel), "HTTP/1.1 200 OK");

  auto doc = PollTerminal(stack.port, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("state")->AsString(), "cancelled");
}

TEST(SolveServiceHttpTest, RequestSplitAcrossManySendsStillParses) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);
  // 8 chunks: the request line, headers, and body all arrive fragmented.
  const std::string response =
      HttpCall(stack.port, "POST", "/solve", kTinyBody, /*chunks=*/8);
  EXPECT_EQ(StatusLineOf(response), "HTTP/1.1 202 Accepted");
  const int64_t id = JobIdOf(BodyOf(response));
  auto doc = PollTerminal(stack.port, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("state")->AsString(), "done");
}

/// The acceptance scenario over the wire: 8 concurrent clients against a
/// worker pool with queue capacity 4 and a held worker. Every client gets
/// a definite verdict — 202 then done, or 429 — and nothing hangs.
TEST(SolveServiceHttpTest, ConcurrentClientsAllGetTerminalVerdicts) {
  JobManager::Options options;
  options.workers = 2;
  options.queue_capacity = 4;
  Stack stack = StartStack(std::move(options));
  ASSERT_NE(stack.server, nullptr);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> status_lines(kClients);
  std::vector<int64_t> accepted_ids(kClients, -1);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      std::string body =
          "{\"instance\": \"tiny\", \"query\": \"SUM(TOTALPOP) >= "
          "20000\", \"options\": {\"seed\": " +
          std::to_string(1000 + i) + "}}";
      const std::string response =
          HttpCall(stack.port, "POST", "/solve", body);
      status_lines[i] = StatusLineOf(response);
      if (status_lines[i] == "HTTP/1.1 202 Accepted") {
        accepted_ids[i] = JobIdOf(BodyOf(response));
      }
    });
  }
  for (auto& t : clients) t.join();

  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kClients; ++i) {
    if (status_lines[i] == "HTTP/1.1 202 Accepted") {
      ASSERT_GE(accepted_ids[i], 0);
      auto doc = PollTerminal(stack.port, accepted_ids[i]);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      EXPECT_EQ(doc->Find("state")->AsString(), "done");
      ++accepted;
    } else {
      ASSERT_EQ(status_lines[i], "HTTP/1.1 429 Too Many Requests")
          << "client " << i << " got no definite verdict";
      ++rejected;
    }
  }
  EXPECT_EQ(accepted + rejected, kClients);
  EXPECT_GE(accepted, 1);

  // Every request — including refusals — left an audit record.
  auto jobs = json::Parse(BodyOf(HttpCall(stack.port, "GET", "/jobs")));
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ(jobs->Find("jobs")->AsArray().size(),
            static_cast<size_t>(kClients));
}

TEST(SolveServiceHttpTest, TraceCurveAndStatsEndpoints) {
  Stack stack = StartStack();
  ASSERT_NE(stack.server, nullptr);
  const std::string response =
      HttpCall(stack.port, "POST", "/solve", kTinyBody);
  ASSERT_EQ(StatusLineOf(response), "HTTP/1.1 202 Accepted");
  const int64_t id = JobIdOf(BodyOf(response));
  auto doc = PollTerminal(stack.port, id);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->Find("state")->AsString(), "done");

  // The job document carries its 16-hex trace id from admission on.
  ASSERT_NE(doc->Find("trace_id"), nullptr);
  const std::string trace_id = doc->Find("trace_id")->AsString();
  EXPECT_EQ(trace_id.size(), 16u);

  // GET /jobs/<id>/trace: a Chrome-trace timeline holding the queue-wait
  // span and the same trace id, both as metadata and top-level.
  const std::string trace_response = HttpCall(
      stack.port, "GET", "/jobs/" + std::to_string(id) + "/trace");
  EXPECT_EQ(StatusLineOf(trace_response), "HTTP/1.1 200 OK");
  EXPECT_NE(HeadersOf(trace_response).find("application/json"),
            std::string::npos);
  auto trace = json::Parse(BodyOf(trace_response));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->Find("traceId")->AsString(), trace_id);
  const auto& events = trace->Find("traceEvents")->AsArray();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].Find("name")->AsString(), "trace_id");
  EXPECT_EQ(events[0].Find("ph")->AsString(), "M");
  EXPECT_EQ(events[0].Find("args")->Find("trace_id")->AsString(),
            trace_id);
  bool queue_wait = false, instance_bind = false;
  for (const json::Value& event : events) {
    const std::string name = event.Find("name")->AsString();
    if (name == "queue.wait") {
      queue_wait = true;
      EXPECT_EQ(event.Find("ph")->AsString(), "X");
      EXPECT_GE(event.Find("dur")->AsNumber(), 0);
    }
    if (name == "instance.bind") instance_bind = true;
  }
  EXPECT_TRUE(queue_wait);
  EXPECT_TRUE(instance_bind);

  // GET /jobs/<id>/curve: the anytime-quality samples, terminal best_p
  // matching the served result.
  const std::string curve_response = HttpCall(
      stack.port, "GET", "/jobs/" + std::to_string(id) + "/curve");
  EXPECT_EQ(StatusLineOf(curve_response), "HTTP/1.1 200 OK");
  auto curve = json::Parse(BodyOf(curve_response));
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  const auto& samples = curve->Find("samples")->AsArray();
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.back().Find("best_p")->AsNumber(),
            doc->Find("result")->Find("p")->AsNumber());

  // GET /stats: the job is in the terminal counters and the "fact"
  // latency block, with all three dimensions populated.
  const std::string stats_response =
      HttpCall(stack.port, "GET", "/stats");
  EXPECT_EQ(StatusLineOf(stats_response), "HTTP/1.1 200 OK");
  auto stats = json::Parse(BodyOf(stats_response));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->Find("jobs")->Find("done")->AsNumber(), 1);
  const json::Value* fact = stats->Find("latency_ms")->Find("fact");
  ASSERT_NE(fact, nullptr);
  for (const char* dimension : {"queue_wait", "solve", "e2e"}) {
    EXPECT_GE(fact->Find(dimension)
                  ->Find("all_time")
                  ->Find("count")
                  ->AsNumber(),
              1)
        << dimension;
  }

  // The new routes are GET-only and 404 for unknown jobs.
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "POST", "/stats", "{}")),
            "HTTP/1.1 405 Method Not Allowed");
  EXPECT_EQ(StatusLineOf(HttpCall(
                stack.port, "POST",
                "/jobs/" + std::to_string(id) + "/trace", "{}")),
            "HTTP/1.1 405 Method Not Allowed");
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "GET", "/jobs/999/trace")),
            "HTTP/1.1 404 Not Found");
  EXPECT_EQ(StatusLineOf(HttpCall(stack.port, "GET", "/jobs/999/curve")),
            "HTTP/1.1 404 Not Found");
}

TEST(SolveServiceHttpTest, StatsCountsRejectionsAndCancellations) {
  JobManager::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  Stack stack = StartStack(std::move(options));
  ASSERT_NE(stack.server, nullptr);

  // One job occupies the worker until cancelled (tabu never reaches its
  // no-improve limit), one sits in the queue; the next submission
  // overflows and is rejected.
  const std::string long_body =
      "{\"instance\": \"2k\", \"query\": \"SUM(TOTALPOP) >= 10000\", "
      "\"options\": {\"tabu_max_no_improve\": 1099511627776}}";
  const std::string first =
      HttpCall(stack.port, "POST", "/solve", long_body);
  ASSERT_EQ(StatusLineOf(first), "HTTP/1.1 202 Accepted");
  const int64_t first_id = JobIdOf(BodyOf(first));
  // Wait for the worker to take the first job off the queue, so the
  // second one is queued rather than refused.
  std::string state = "queued";
  for (int i = 0; i < 600 && state == "queued"; ++i) {
    auto doc = json::Parse(BodyOf(HttpCall(
        stack.port, "GET", "/jobs/" + std::to_string(first_id))));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    state = doc->Find("state")->AsString();
    if (state == "queued") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(state, "running");
  const std::string second =
      HttpCall(stack.port, "POST", "/solve", long_body);
  ASSERT_EQ(StatusLineOf(second), "HTTP/1.1 202 Accepted") << second;
  const int64_t second_id = JobIdOf(BodyOf(second));
  const std::string third =
      HttpCall(stack.port, "POST", "/solve", long_body);
  EXPECT_EQ(StatusLineOf(third), "HTTP/1.1 429 Too Many Requests");

  // Cancel both accepted jobs and drain.
  for (int64_t id : {first_id, second_id}) {
    HttpCall(stack.port, "POST",
             "/jobs/" + std::to_string(id) + "/cancel");
    ASSERT_TRUE(PollTerminal(stack.port, id).ok());
  }

  auto stats =
      json::Parse(BodyOf(HttpCall(stack.port, "GET", "/stats")));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::Value* jobs = stats->Find("jobs");
  // Every admitted or refused job is recorded exactly once.
  EXPECT_EQ(jobs->Find("recorded")->AsNumber(), 3);
  EXPECT_EQ(jobs->Find("rejected")->AsNumber(), 1);
  EXPECT_GT(stats->Find("rates")->Find("rejection")->AsNumber(), 0.0);
  EXPECT_EQ(jobs->Find("cancelled")->AsNumber(), 2);
}

TEST(SolveServiceHttpTest, ParseSolveRequestMapsAllFields) {
  auto parsed = ParseSolveRequest(
      "{\"instance\": \"2k\", \"solver\": \"maxp\", \"attribute\": "
      "\"TOTALPOP\", \"threshold\": 20000, \"options\": {\"seed\": 9, "
      "\"time_budget_ms\": 50, \"run_local_search\": false}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->instance, "2k");
  EXPECT_EQ(parsed->solver, "maxp");
  EXPECT_EQ(parsed->attribute, "TOTALPOP");
  EXPECT_EQ(parsed->threshold, 20000);
  EXPECT_EQ(parsed->options.seed, 9u);
  EXPECT_EQ(parsed->options.time_budget_ms, 50);
  EXPECT_FALSE(parsed->options.run_local_search);

  auto missing = ParseSolveRequest("{\"query\": \"COUNT >= 1\"}");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("'instance' is required"),
            std::string::npos);

  auto fractional = ParseSolveRequest(
      "{\"instance\": \"tiny\", \"options\": {\"seed\": 1.5}}");
  ASSERT_FALSE(fractional.ok());
  EXPECT_NE(fractional.status().message().find("must be an integer"),
            std::string::npos);
}

}  // namespace
}  // namespace service
}  // namespace emp
