// service-open: an open loop of Poisson arrivals against an in-process
// SolveService behind obs::HttpServer on 127.0.0.1, driven over real HTTP
// by three client threads (generator, poller, prober).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/csv.h"
#include "common/json.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "constraints/query_parser.h"
#include "core/fact_solver.h"
#include "core/portfolio.h"
#include "core/report.h"
#include "data/geojson.h"
#include "e2e.h"
#include "http_client.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "service/solve_service.h"

namespace emp::e2e {

namespace {

using SteadyClock = std::chrono::steady_clock;

struct RequestClass {
  const char* name;
  const char* dataset;
  const char* smoke_dataset;
  const char* query;
  /// Requests of this class in every block of kBlock arrivals.
  int per_block;
  int64_t time_budget_ms;  // -1 = none
  int portfolio_replicas;
  /// Tabu iterations, also the no-improve limit: a request without a
  /// budget does the same work whatever its seed.
  int64_t tabu_max_iterations;
};

// The mix (30/40/20/10) and the load are synthetic choices; no traffic log
// backs them. The classes span a fast single solve, a slower enriched one,
// a budgeted solve that ends deadline-exceeded by design, and a portfolio.
// With half the requests in the fast class the median fell in the sparse
// gap between it and the slow ones (README.md); at 30% it falls among the
// slow ones.
constexpr RequestClass kClasses[] = {
    {"small-sum", "small", "tiny", kSumQuery, 6, -1, 1, 1000},
    {"1k-enriched", "1k", "small", kEnrichedQuery, 8, -1, 1, 2000},
    {"2k-budget", "2k", "small", kSumQuery, 4, 250, 1, 1000000},
    {"2k-portfolio", "2k", "tiny", kSumQuery, 2, -1, 2, 1000},
};
constexpr int kNumClasses = 4;
constexpr int kBlock = 20;
/// One block of requests per this many seconds of --seconds.
constexpr double kSecondsPerBlock = 4.0;
/// Solver seeds per class, fixed across runs: the quality metrics are the
/// in-process solves of every class's pool, which the service must match.
constexpr int kSeedPool = 16;
/// Offered load as a share of the workers' capacity, which the warm-up
/// measures. A refused request is a failed operation: in a simulated M/G/2
/// queue with this mix, 80 arrivals at 50% overflow the queue of 8 in 2 of
/// 4,000 runs, at 40% in none; and the host's slow phases (README.md) can
/// raise the real load above the measured one.
constexpr double kUtilization = 0.4;
constexpr int kWorkers = 2;
constexpr int kQueueCapacity = 8;
constexpr auto kPollInterval = std::chrono::milliseconds(5);
constexpr double kHealthzPeriodMs = 50.0;  // 20 Hz
constexpr double kStatsPeriodMs = 1000.0;  // 1 Hz

bool Deterministic(int cls) { return kClasses[cls].time_budget_ms < 0; }

SolverOptions ClassOptions(const RequestClass& c, uint64_t seed) {
  SolverOptions options;
  options.seed = seed;
  options.time_budget_ms = c.time_budget_ms;
  options.portfolio_replicas = c.portfolio_replicas;
  options.portfolio_threads = 1;
  options.tabu_max_iterations = c.tabu_max_iterations;
  options.tabu_max_no_improve = c.tabu_max_iterations;
  return options;
}

std::string RequestBody(const RequestClass& c, const std::string& image,
                        uint64_t seed) {
  JsonWriter w(0);
  w.BeginObject();
  w.Key("instance");
  w.String(image);
  w.Key("query");
  w.String(c.query);
  w.Key("options");
  w.BeginObject();
  w.Key("seed");
  w.Int(static_cast<int64_t>(seed));
  w.Key("tabu_max_iterations");
  w.Int(c.tabu_max_iterations);
  w.Key("tabu_max_no_improve");
  w.Int(c.tabu_max_iterations);
  if (c.time_budget_ms >= 0) {
    w.Key("time_budget_ms");
    w.Int(c.time_budget_ms);
  }
  if (c.portfolio_replicas > 1) {
    w.Key("portfolio_replicas");
    w.Int(c.portfolio_replicas);
    w.Key("portfolio_threads");
    w.Int(1);
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).TakeString();
}

/// The "state" member of a job document, without parsing the whole body
/// (polls of running jobs are on the client's hot path).
std::string StateOf(const std::string& doc) {
  const size_t key = doc.find("\"state\"");
  if (key == std::string::npos) return "";
  const size_t open = doc.find('"', doc.find(':', key) + 1);
  const size_t close = doc.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return doc.substr(open + 1, close - open - 1);
}

bool IsTerminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled" ||
         state == "rejected";
}

int64_t JobIdOf(const std::string& doc) {
  Result<json::Value> parsed = json::Parse(doc);
  if (!parsed.ok()) return -1;
  const json::Value* id = parsed->Find("job_id");
  return id != nullptr && id->is_number()
             ? static_cast<int64_t>(id->AsNumber())
             : -1;
}

/// A running service: registry, scheduler, HTTP front door (declared in
/// that order, so the server stops before the service it calls into is
/// destroyed), and the clock origin of the job documents' *_ms fields.
struct Service {
  std::unique_ptr<obs::MetricRegistry> metrics;
  std::unique_ptr<service::SolveService> solve;
  std::unique_ptr<obs::HttpServer> server;
  SteadyClock::time_point epoch;
  int port() const { return server->port(); }
};

Result<std::unique_ptr<Service>> StartService() {
  auto s = std::make_unique<Service>();
  s->metrics = std::make_unique<obs::MetricRegistry>();
  service::JobManager::Options options;
  options.workers = kWorkers;
  options.queue_capacity = kQueueCapacity;
  options.metrics = s->metrics.get();
  // JobManager stamps its epoch inside Create; the midpoint of the
  // bracketing clock reads is within half of Create's time of it.
  const SteadyClock::time_point before = SteadyClock::now();
  EMP_ASSIGN_OR_RETURN(s->solve, service::SolveService::Create(options));
  const SteadyClock::time_point after = SteadyClock::now();
  s->epoch = before + (after - before) / 2;
  obs::HttpServer::Options http;
  http.port = 0;
  http.metrics = s->metrics.get();
  http.handler = s->solve->Handler();
  EMP_ASSIGN_OR_RETURN(s->server, obs::HttpServer::Start(http));
  return s;
}

/// POSTs one request and polls it to a terminal state (warm-up); returns
/// the terminal job document.
Result<std::string> SolveOverHttp(int port, const std::string& body) {
  const HttpReply posted = HttpCall(port, "POST", "/solve", body);
  if (posted.status != 202) {
    return Status::Internal("warm-up POST answered " +
                            std::to_string(posted.status) + " " +
                            posted.body + posted.error);
  }
  const std::string target = "/jobs/" + std::to_string(JobIdOf(posted.body));
  for (;;) {
    const HttpReply polled = HttpCall(port, "GET", target);
    if (polled.status != 200) {
      return Status::Internal("warm-up poll answered " +
                              std::to_string(polled.status));
    }
    const std::string state = StateOf(polled.body);
    if (state == "done") return polled.body;
    if (IsTerminal(state)) {
      return Status::Internal("warm-up job ended " + state);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

struct Request {
  int cls = 0;
  int k = 0;
  double due_ms = 0;
  // Client clock, ms after the loop's origin.
  double send_ms = 0;
  double received_ms = 0;
  int post_status = 0;
  int64_t job_id = -1;
  int polls = 0;
  bool terminal = false;
  std::string doc;  // terminal job document
  std::string error;
};

struct ParsedResult {
  std::string state;
  std::string termination;
  int64_t queued_ms = -1, started_ms = -1, finished_ms = -1;
  int32_t p = 0;
  std::string heterogeneity;  // as FormatDouble(., 6) renders it
  std::vector<int32_t> region_of;
};

/// Reads a terminal job document; the assignment is rebuilt from the
/// result's `regions[].areas` lists.
Result<ParsedResult> ParseJobDocument(const std::string& doc,
                                      int32_t num_areas) {
  EMP_ASSIGN_OR_RETURN(json::Value root, json::Parse(doc));
  ParsedResult out;
  const auto text = [&](const json::Value& v, const char* key) {
    const json::Value* m = v.Find(key);
    return m != nullptr && m->is_string() ? m->AsString() : std::string();
  };
  const auto number = [&](const json::Value& v, const char* key) {
    const json::Value* m = v.Find(key);
    return m != nullptr && m->is_number() ? m->AsNumber() : -1.0;
  };
  out.state = text(root, "state");
  out.termination = text(root, "termination");
  out.queued_ms = static_cast<int64_t>(number(root, "queued_ms"));
  out.started_ms = static_cast<int64_t>(number(root, "started_ms"));
  out.finished_ms = static_cast<int64_t>(number(root, "finished_ms"));
  const json::Value* result = root.Find("result");
  if (result == nullptr) {
    return Status::InvalidArgument("job " + out.state + " without a result" +
                                   (text(root, "error").empty()
                                        ? ""
                                        : ": " + text(root, "error")));
  }
  const json::Value* het = result->Find("heterogeneity");
  if (het == nullptr || !het->is_number()) {
    return Status::InvalidArgument("result without a heterogeneity number");
  }
  out.heterogeneity = FormatDouble(het->AsNumber(), 6);
  const json::Value* regions = result->Find("regions");
  if (regions == nullptr || !regions->is_array()) {
    return Status::InvalidArgument("result without a regions array");
  }
  out.region_of.assign(static_cast<size_t>(num_areas), -1);
  for (const json::Value& region : regions->AsArray()) {
    const json::Value* members = region.Find("areas");
    if (members == nullptr || !members->is_array()) {
      return Status::InvalidArgument("region without an areas array");
    }
    for (const json::Value& a : members->AsArray()) {
      const double id = a.is_number() ? a.AsNumber() : -1.0;
      if (id < 0 || id >= num_areas ||
          out.region_of[static_cast<size_t>(id)] != -1) {
        return Status::InvalidArgument("region lists a bad or repeated area");
      }
      out.region_of[static_cast<size_t>(id)] = out.p;
    }
    ++out.p;
  }
  return out;
}

}  // namespace

std::vector<std::string> ServiceDatasets() {
  std::vector<std::string> datasets;
  for (const RequestClass& c : kClasses) {
    if (std::find(datasets.begin(), datasets.end(), c.dataset) ==
        datasets.end()) {
      datasets.push_back(c.dataset);
    }
  }
  return datasets;
}

void RunServiceOpen(const RunConfig& config, Report* report) {
  std::optional<SpanRecorder> recorder;
  if (config.traced) recorder.emplace();
  SpanRecorder* spans = recorder ? &*recorder : nullptr;

  // In-process copies of every image and query, for validation and the
  // reference solves (outside every timer).
  std::map<std::string, AreaSet> images;
  std::vector<std::string> image_of(kNumClasses);
  std::vector<std::vector<Constraint>> constraints_of(kNumClasses);
  double image_bytes = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    image_of[c] =
        ImagePath(config, kClasses[c].dataset, kClasses[c].smoke_dataset);
    if (images.count(image_of[c]) == 0) {
      Result<AreaSet> bound = [&] {
        ScopedSpan span(spans, "data.bind", 0);
        return BindImage(image_of[c]);
      }();
      if (!bound.ok()) {
        report->Fail("bind " + image_of[c] + ": " + bound.status().ToString());
        return;
      }
      image_bytes += FileBytes(image_of[c]);
      images.emplace(image_of[c], std::move(*bound));
    }
    Result<std::vector<Constraint>> parsed =
        ParseConstraints(kClasses[c].query);
    if (!parsed.ok()) {
      report->Fail("query: " + parsed.status().ToString());
      return;
    }
    constraints_of[c] = *parsed;
  }
  const auto num_areas = [&](int cls) {
    return images.at(image_of[cls]).num_areas();
  };
  const auto seed_of = [&](int cls, int k) {
    return SolverSeed(kQualitySeed, 10 + static_cast<uint64_t>(cls),
                      static_cast<uint64_t>(k));
  };
  const auto body_of = [&](int cls, int k) {
    return RequestBody(kClasses[cls], image_of[cls], seed_of(cls, k));
  };
  const int seed_pool = config.smoke ? 4 : kSeedPool;

  // Set-up, repeated (SetupAgain): start the scheduler and the HTTP
  // server, then warm up with one request per class (which binds every
  // image into the service's instance cache). The last service is the one
  // measured. The warm-up jobs' run times give the workers' capacity.
  std::unique_ptr<Service> svc;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> warm_run_ms(kNumClasses);
  while (SetupAgain(setup_s)) {
    svc.reset();
    Stopwatch setup;
    Result<std::unique_ptr<Service>> started = StartService();
    if (!started.ok()) {
      report->Fail("service: " + started.status().ToString());
      return;
    }
    svc = std::move(*started);
    for (int c = 0; c < kNumClasses; ++c) {
      Result<std::string> doc = SolveOverHttp(svc->port(), body_of(c, 0));
      Result<ParsedResult> parsed =
          doc.ok() ? ParseJobDocument(*doc, num_areas(c)) : doc.status();
      if (!parsed.ok()) {
        report->Fail(std::string(kClasses[c].name) + " warm-up: " +
                     parsed.status().ToString());
        return;
      }
      warm_run_ms[c].push_back(
          static_cast<double>(parsed->finished_ms - parsed->started_ms));
    }
    setup_s.push_back(setup.ElapsedSeconds());
  }
  const int port = svc->port();
  std::vector<double> idle_probe_ms;
  for (int i = 0; i < 20; ++i) {
    Stopwatch probe;
    HttpCall(port, "GET", "/healthz");
    idle_probe_ms.push_back(probe.ElapsedMillis());
  }

  // Arrival rate: kUtilization of what the workers can serve, from the
  // median warm-up run time of each class weighted by the mix (a job
  // document counts whole ms, so at least 1 ms each).
  double demand_ms = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    demand_ms += kClasses[c].per_block *
                 std::max(1.0, Median(warm_run_ms[c])) / kBlock;
  }
  const double rate_per_s = kUtilization * kWorkers * 1e3 / demand_ms;

  // The schedule: n arrivals at rate_per_s spread uniformly at random over
  // n / rate_per_s (a Poisson process conditioned on its count), classes
  // in shuffled blocks of the fixed mix, each class cycling through its
  // seed pool from a random start. n depends on --seconds only: the
  // service keeps every job, so the peak RSS grows with their number.
  const int n =
      kBlock * std::max(1, static_cast<int>(std::lround(config.seconds /
                                                        kSecondsPerBlock)));
  const double run_ms = n / rate_per_s * 1e3;
  Rng rng(SolverSeed(config.seed, 2, 0));
  std::vector<Request> requests(static_cast<size_t>(n));
  std::vector<double> due(static_cast<size_t>(n));
  for (double& d : due) d = rng.Uniform(0.0, run_ms);
  std::sort(due.begin(), due.end());
  std::vector<int> next_k(kNumClasses);
  for (int& k : next_k) {
    k = static_cast<int>(rng.UniformInt(0, seed_pool - 1));
  }
  for (int b = 0; b * kBlock < n; ++b) {
    std::vector<int> block;
    for (int c = 0; c < kNumClasses; ++c) {
      block.insert(block.end(), kClasses[c].per_block, c);
    }
    rng.Shuffle(&block);
    for (int j = 0; j < kBlock && b * kBlock + j < n; ++j) {
      Request& r = requests[static_cast<size_t>(b * kBlock + j)];
      r.cls = block[static_cast<size_t>(j)];
      r.k = next_k[r.cls]++ % seed_pool;
      r.due_ms = due[static_cast<size_t>(b * kBlock + j)];
    }
  }
  std::vector<std::string> bodies;
  for (const Request& r : requests) bodies.push_back(body_of(r.cls, r.k));

  // The open loop. Times are ms on the client clock from `t0`.
  const SteadyClock::time_point t0 =
      SteadyClock::now() + std::chrono::milliseconds(20);
  const double t0_us = spans ? spans->NowMicros() + 20000.0 : 0.0;
  const auto span_us = [&](double ms) {
    return t0_us + ms * 1e3;
  };
  const auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
        .count();
  };
  const auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> outstanding;
  bool generating = true;
  size_t backlog_max = 0;
  std::atomic<bool> stop_probing{false};
  std::vector<double> healthz_ms;
  int64_t probes = 0;
  std::vector<std::string> probe_errors;
  std::vector<std::pair<double, double>> probe_spans;  // healthz [start, end]

  std::thread generator([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      Request& r = requests[i];
      std::this_thread::sleep_until(at(r.due_ms));
      r.send_ms = now_ms();
      const HttpReply reply = HttpCall(port, "POST", "/solve", bodies[i]);
      r.post_status = reply.status;
      if (reply.status == 202) r.job_id = JobIdOf(reply.body);
      std::lock_guard<std::mutex> lock(mu);
      if (r.job_id >= 0) {
        outstanding.push_back(static_cast<int>(i));
      } else {
        r.error = "POST /solve answered " + std::to_string(reply.status) +
                  " " + reply.body + reply.error;
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generating = false;
    cv.notify_one();
  });

  std::thread poller([&] {
    for (;;) {
      std::vector<int> sweep;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !outstanding.empty() || !generating; });
        if (outstanding.empty()) break;  // and nothing more is coming
        sweep = outstanding;
        backlog_max = std::max(backlog_max, sweep.size());
      }
      std::vector<int> done;
      for (int i : sweep) {
        Request& r = requests[static_cast<size_t>(i)];
        const HttpReply reply =
            HttpCall(port, "GET", "/jobs/" + std::to_string(r.job_id));
        ++r.polls;
        if (reply.status != 200) {
          r.error = "GET /jobs/" + std::to_string(r.job_id) + " answered " +
                    std::to_string(reply.status) + reply.error;
          done.push_back(i);
        } else if (IsTerminal(StateOf(reply.body))) {
          r.received_ms = now_ms();
          r.terminal = true;
          r.doc = reply.body;
          done.push_back(i);
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        std::erase_if(outstanding, [&](int i) {
          return std::find(done.begin(), done.end(), i) != done.end();
        });
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  });

  std::thread prober([&] {
    double next_healthz = 0, next_stats = 0;
    while (!stop_probing.load()) {
      const bool healthz = next_healthz <= next_stats;
      const double due_ms = healthz ? next_healthz : next_stats;
      std::this_thread::sleep_until(at(due_ms));
      const double start = now_ms();
      const HttpReply reply =
          HttpCall(port, "GET", healthz ? "/healthz" : "/stats");
      const double end = now_ms();
      ++probes;
      if (reply.status != 200) probe_errors.push_back(reply.error);
      if (healthz) {
        healthz_ms.push_back(end - start);
        probe_spans.emplace_back(start, end);
        next_healthz = std::max(next_healthz + kHealthzPeriodMs, end);
      } else {
        next_stats = std::max(next_stats + kStatsPeriodMs, end);
      }
    }
  });

  generator.join();
  poller.join();
  stop_probing.store(true);
  prober.join();
  report->attempted += probes;
  for (const std::string& error : probe_errors) {
    report->Fail("probe: " + error);
  }
  const double epoch_ms =
      std::chrono::duration<double, std::milli>(svc->epoch - t0).count();
  svc.reset();  // stop the server, drain the workers

  // Reference solves of every deterministic class's seed pool, in process.
  std::map<std::pair<int, int>, Solution> reference;
  std::map<std::pair<int, int>, double> reference_ms;
  std::vector<double> quality_p, quality_h;
  for (int c = 0; c < kNumClasses; ++c) {
    if (!Deterministic(c)) continue;
    for (int k = 0; k < seed_pool; ++k) {
      const AreaSet& areas = images.at(image_of[c]);
      Result<FactSolver> solver = FactSolver::Create(
          &areas, constraints_of[c], ClassOptions(kClasses[c], seed_of(c, k)));
      Stopwatch timer;
      Result<Solution> solved = solver.ok() ? solver->Solve() : solver.status();
      reference_ms[{c, k}] = timer.ElapsedMillis();
      if (!solved.ok()) {
        report->Fail(std::string("reference solve ") + kClasses[c].name +
                     ": " + solved.status().ToString());
        return;
      }
      quality_p.push_back(solved->p());
      quality_h.push_back(solved->heterogeneity);
      reference.emplace(std::make_pair(c, k), std::move(*solved));
    }
  }

  // Check every request; collect latencies and the per-layer breakdown.
  std::vector<double> latency_ms;
  std::vector<double> run_over_inproc;
  double lag_sum = 0, admit_sum = 0, queue_sum = 0, run_sum = 0;
  double detect_sum = 0, latency_sum = 0, result_bytes = 0, polls = 0;
  int64_t rejected = 0, deadline = 0, succeeded = 0;
  const double kMissed = std::numeric_limits<double>::infinity();
  for (const Request& r : requests) {
    ++report->attempted;
    const std::string what = std::string(kClasses[r.cls].name) + " job " +
                             std::to_string(r.job_id);
    if (r.post_status == 429) ++rejected;
    if (!r.terminal) {
      report->Fail(what + ": " + r.error);
      latency_ms.push_back(kMissed);
      continue;
    }
    const AreaSet& areas = images.at(image_of[r.cls]);
    Result<ParsedResult> parsed = ParseJobDocument(r.doc, areas.num_areas());
    std::string problem;
    if (!parsed.ok()) {
      problem = parsed.status().ToString();
    } else if (parsed->state != "done") {
      problem = "ended " + parsed->state;
    } else {
      problem = ValidationError(areas, constraints_of[r.cls],
                                parsed->region_of, parsed->p);
    }
    if (problem.empty() && Deterministic(r.cls)) {
      const Solution& ref = reference.at({r.cls, r.k});
      if (ref.p() != parsed->p || ref.region_of != parsed->region_of ||
          FormatDouble(ref.heterogeneity, 6) != parsed->heterogeneity) {
        problem = "differs from the in-process solve at the same seed";
      }
    }
    if (!problem.empty()) {
      report->Fail(what + ": " + problem);
      latency_ms.push_back(kMissed);
      continue;
    }
    ++succeeded;
    const double latency = r.received_ms - r.due_ms;
    latency_ms.push_back(latency);
    // JobManager truncates its clock to whole ms; +0.5 centres the error.
    const auto client_ms = [&](int64_t service_ms) {
      return epoch_ms + static_cast<double>(service_ms) + 0.5;
    };
    const double queued = client_ms(parsed->queued_ms);
    const double started = client_ms(parsed->started_ms);
    const double finished = client_ms(parsed->finished_ms);
    lag_sum += r.send_ms - r.due_ms;
    admit_sum += queued - r.send_ms;
    queue_sum += started - queued;
    run_sum += finished - started;
    detect_sum += r.received_ms - finished;
    latency_sum += latency;
    result_bytes += static_cast<double>(r.doc.size());
    polls += r.polls;
    if (parsed->termination == "deadline-exceeded") ++deadline;
    if (Deterministic(r.cls)) {
      run_over_inproc.push_back((finished - started) /
                                reference_ms.at({r.cls, r.k}));
    }
    if (spans != nullptr) {
      const auto& us = span_us;
      const int32_t lane = static_cast<int32_t>(r.job_id);
      const int32_t id = spans->Record(kClasses[r.cls].name, us(r.due_ms),
                                       us(r.received_ms), -1, r.job_id, lane);
      spans->Record("service.generator_lag", us(r.due_ms), us(r.send_ms), id,
                    r.job_id, lane);
      spans->Record("service.admit", us(r.send_ms), us(queued), id, r.job_id,
                    lane);
      spans->Record("service.queue_wait", us(queued), us(started), id,
                    r.job_id, lane);
      spans->Record("service.run", us(started), us(finished), id, r.job_id,
                    lane);
      spans->Record("service.detect_lag", us(finished), us(r.received_ms), id,
                    r.job_id, lane);
    }
  }

  if (!config.traced) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("latency_p50_ms", Median(latency_ms), "ms");
    report->Add("p_mean", Mean(quality_p), "regions");
    report->Add("het_mean", Mean(quality_h), "H");
    report->Add("rss_peak_mb", PeakRssMb(), "MiB");
    report->latency_samples_ms = latency_ms;
    return;
  }

  // Per-layer: the client-side breakdown of request latency (the five
  // shares add up to 1), then the layers under the service, measured by
  // replaying the deterministic requests in process, each checked against
  // its reference solve.
  Report& out = *report;
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  out.Add("service.arrival_rate", rate_per_s, "1/s");
  out.Add("service.generator_lag_share", share(lag_sum, latency_sum), "share");
  out.Add("service.admit_share", share(admit_sum, latency_sum), "share");
  out.Add("service.queue_wait_share", share(queue_sum, latency_sum), "share");
  out.Add("service.run_share", share(run_sum, latency_sum), "share");
  out.Add("service.detect_lag_share", share(detect_sum, latency_sum),
          "share");
  out.Add("service.run_over_inproc", Median(run_over_inproc), "ratio");
  const double done = static_cast<double>(succeeded);
  out.Add("service.polls_per_job", share(polls, done), "count");
  out.Add("service.result_bytes", share(result_bytes, done), "bytes");
  out.Add("service.deadline_share", share(static_cast<double>(deadline), done),
          "share");
  out.Add("service.rejected_share",
          share(static_cast<double>(rejected),
                static_cast<double>(requests.size())),
          "share");
  out.Add("service.backlog_max", static_cast<double>(backlog_max), "count");
  out.Add("http.probe_slowdown",
          share(Quantile(healthz_ms, 0.95), Median(idle_probe_ms)), "ratio");
  for (const auto& [start, end] : probe_spans) {
    spans->Record("http.healthz", span_us(start), span_us(end), -1, 0, 0);
  }

  obs::MetricRegistry metrics;
  std::vector<int64_t> traced_ops;
  std::vector<double> het_gain, json_bytes;
  double traced_total = 0, plain_total = 0;
  double replicas = 0, tabu_skipped = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (!Deterministic(c)) continue;
    const AreaSet& areas = images.at(image_of[c]);
    for (int k = 0; k < seed_pool; ++k) {
      const SolverOptions options = ClassOptions(kClasses[c], seed_of(c, k));
      const Solution& ref = reference.at({c, k});
      const int64_t op = 1000000 + c * 1000 + k;
      std::optional<Solution> replay;
      if (kClasses[c].portfolio_replicas > 1) {
        ScopedSpan span(spans, "portfolio.solve", op);
        PortfolioSolver portfolio(&areas, constraints_of[c], options);
        Result<Solution> solved = portfolio.Solve();
        replicas += portfolio.stats().replicas;
        tabu_skipped += portfolio.stats().tabu_skipped;
        if (solved.ok()) replay = std::move(*solved);
      } else {
        Stopwatch timer;
        Result<Solution> solved = [&] {
          ScopedSpan span(spans, "op", op);
          return SolveTraced(areas, constraints_of[c], options, &metrics,
                             spans, op);
        }();
        if (solved.ok()) {
          traced_total += timer.ElapsedMillis();
          plain_total += reference_ms.at({c, k});
          traced_ops.push_back(op);
          het_gain.push_back(solved->tabu_result.ImprovementRatio());
          replay = std::move(*solved);
        }
      }
      if (!replay || !SameSolution(*replay, ref)) {
        report->Fail(std::string("in-process replay of ") + kClasses[c].name +
                     " differs from FactSolver::Solve");
        continue;
      }
      // The report layer as every job pays it: result JSON, assignment CSV.
      Result<std::string> json = [&] {
        ScopedSpan span(spans, "report.json", op);
        return SolutionToJson(areas, constraints_of[c], *replay);
      }();
      {
        ScopedSpan span(spans, "report.csv", op);
        AssignmentToCsv(replay->region_of);
      }
      if (json.ok()) json_bytes.push_back(static_cast<double>(json->size()));
    }
  }
  AddSolveLayers(spans->spans(), traced_ops, &metrics, report);
  out.Add("local_search.het_gain", Mean(het_gain), "share");
  out.Add("portfolio.tabu_skipped_share", share(tabu_skipped, replicas),
          "share");
  out.Add("obs.sinks_overhead_ratio", share(traced_total, plain_total),
          "ratio");
  out.Add("data.bind_ms", MedianSpanMs(spans->spans(), "data.bind"), "ms");
  out.Add("data.image_bytes", image_bytes, "bytes");
  out.Add("report.json_ms", MedianSpanMs(spans->spans(), "report.json"),
          "ms");
  out.Add("report.json_bytes", Mean(json_bytes), "bytes");
  out.Add("report.csv_ms", MedianSpanMs(spans->spans(), "report.csv"), "ms");
  if (!config.trace_out.empty()) {
    Status written = WriteFile(config.trace_out, spans->ToChromeJson());
    if (!written.ok()) report->Fail("trace: " + written.ToString());
  }
}

}  // namespace emp::e2e
