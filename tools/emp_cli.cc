// emp_cli — command-line regionalizer over the emp library.
//
// Subcommands:
//   synth        synthesize a census-like map and write it as loader CSV
//   info         describe a map (areas, adjacency, attributes); export GAL
//   feasibility  run FaCT's feasibility phase and print the diagnostics
//   solve        regionalize with FaCT (enriched query) or MP/SKATER
//   serve        long-lived solve service: job API over the HTTP plane
//   pack         serialize a map to the compact mmap-able .emp format
//   inspect      describe a compact .emp file from its header
//   validate     audit an assignment CSV against a query
//
// Examples:
//   emp_cli synth --dataset 2k --out tracts.csv
//   emp_cli solve --input tracts.csv
//       --query "MIN(POP16UP) <= 3000; SUM(TOTALPOP) >= 20k"
//       --out assignment.csv --geojson regions.geojson
//   emp_cli solve --input tracts.csv --solver maxp --attribute TOTALPOP
//       --threshold 20000
//   emp_cli validate --input tracts.csv --query "SUM(TOTALPOP) >= 20k"
//       --assignment assignment.csv

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/maxp_regions.h"
#include "baseline/skater.h"
#include "common/csv.h"
#include "constraints/query_parser.h"
#include "core/fact_solver.h"
#include "core/solver.h"
#include "core/feasibility.h"
#include "core/portfolio.h"
#include "core/metrics.h"
#include "core/validate.h"
#include "core/explore.h"
#include "core/report.h"
#include "data/compact/loader.h"
#include "data/compact/writer.h"
#include "data/geojson.h"
#include "data/loader.h"
#include "data/synthetic/dataset_catalog.h"
#include "graph/components.h"
#include "graph/gal.h"
#include "obs/curve.h"
#include "obs/export.h"
#include "obs/http_server.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "render/svg.h"
#include "service/solve_service.h"

namespace {

/// Minimal --flag=value / --flag value parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected positional argument '" + arg + "'";
        return;
      }
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  const std::string& error() const { return error_; }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Cooperative Ctrl-C for `solve`: the first SIGINT flips the solver's
/// cancellation token (an atomic store — async-signal-safe) so the solve
/// unwinds at its next checkpoint and prints the best-so-far report; the
/// handler then re-arms SIG_DFL so a second Ctrl-C kills immediately.
emp::CancellationToken* g_solve_cancel = nullptr;

void HandleSigint(int) {
  if (g_solve_cancel != nullptr) g_solve_cancel->Cancel();
  std::signal(SIGINT, SIG_DFL);
}

/// Background thread calling `flush` every `period_ms` until stopped.
/// Backs --metrics-flush-ms: the flush callback writes metrics / journal
/// files atomically (tmp + rename), so a `watch`/poll loop on the files
/// never observes a torn write.
class PeriodicFlusher {
 public:
  PeriodicFlusher(int64_t period_ms, std::function<void()> flush)
      : period_ms_(period_ms < 1 ? 1 : period_ms),
        flush_(std::move(flush)),
        thread_([this] { Run(); }) {}

  ~PeriodicFlusher() { Stop(); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::milliseconds(period_ms_));
      if (stopped_) break;
      lock.unlock();
      flush_();
      lock.lock();
    }
  }

  const int64_t period_ms_;
  const std::function<void()> flush_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: emp_cli <command> [--flag value ...]\n"
      "  synth       --out FILE [--dataset NAME | --areas N] [--seed S]\n"
      "              [--components K] [--scale F]\n"
      "  info        --input FILE [--gal FILE]\n"
      "  feasibility --input FILE --query Q\n"
      "  solve       --input FILE (--query Q | --solver maxp|skater\n"
      "              --attribute A --threshold T) [--out FILE]\n"
      "              [--geojson FILE] [--svg FILE] [--json FILE]\n"
      "              [--iterations N] [--threads N] [--seed S] [--no-tabu]\n"
      "              [--portfolio-replicas N] [--portfolio-threads N]\n"
      "              [--portfolio-target-p P]\n"
      "              [--time-budget-ms MS] [--max-evals N]\n"
      "              [--metrics-out FILE(.json|.prom)] [--trace-out FILE]\n"
      "              [--serve-port P (0 = ephemeral)] [--journal-out FILE]\n"
      "              [--metrics-flush-ms MS] [--curve-out FILE]\n"
      "              [--profile-hz HZ] [--profile-out FILE]\n"
      "  serve       [--port P (default 8080, 0 = ephemeral)]\n"
      "              [--workers N] [--queue-capacity N]\n"
      "              [--journal-dir DIR] [--profile-hz HZ]\n"
      "  pack        --out FILE (--input FILE | --dataset NAME [--scale F])\n"
      "              [--no-geometry]\n"
      "  inspect     --input FILE [--verify]\n"
      "  validate    --input FILE --query Q --assignment FILE\n"
      "  render      --input FILE [--assignment FILE] [--out FILE]\n"
      "              [--width W] [--labels]\n"
      "  explore     --input FILE --query Q [--min-gain F]\n");
  return 2;
}

emp::Result<emp::AreaSet> LoadInput(const Args& args) {
  std::string path = args.Get("input");
  if (path.empty()) {
    return emp::Status::InvalidArgument("--input is required");
  }
  emp::LoaderOptions options;
  // Without --dissimilarity a CSV scores its last attribute column.
  options.dissimilarity_attribute = args.Get("dissimilarity");
  // Dispatches on content: compact .emp images mmap in, CSV parses.
  return emp::LoadAreaSetAuto(path, options);
}

int CmdPack(const Args& args) {
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("pack: --out is required");

  emp::Result<emp::AreaSet> areas = [&]() -> emp::Result<emp::AreaSet> {
    if (args.Has("input")) return LoadInput(args);
    return emp::synthetic::MakeCatalogDataset(args.Get("dataset", "2k"),
                                              args.GetDouble("scale", 1.0));
  }();
  if (!areas.ok()) return Fail(areas.status().ToString());

  emp::compact::PackOptions options;
  options.strip_geometry = args.Has("no-geometry");
  emp::Status st = emp::compact::WriteCompactFile(*areas, out, options);
  if (!st.ok()) return Fail(st.ToString());

  auto info = emp::compact::InspectCompactFile(out);
  if (!info.ok()) return Fail(info.status().ToString());
  std::printf("wrote %s: %lld areas, %lld edges, %llu bytes, digest %s\n",
              out.c_str(), static_cast<long long>(info->num_nodes),
              static_cast<long long>(info->num_edges),
              static_cast<unsigned long long>(info->file_bytes),
              emp::obs::DigestHex(info->digest).c_str());
  return 0;
}

int CmdInspect(const Args& args) {
  const std::string path = args.Get("input");
  if (path.empty()) return Fail("inspect: --input is required");

  auto info = emp::compact::InspectCompactFile(path);
  if (!info.ok()) return Fail(info.status().ToString());
  std::printf("name: %s\n", info->name.c_str());
  std::printf("areas: %lld\n", static_cast<long long>(info->num_nodes));
  std::printf("edges: %lld\n", static_cast<long long>(info->num_edges));
  std::printf("geometry: %s\n", info->has_geometry ? "yes" : "no");
  std::printf("file bytes: %llu\n",
              static_cast<unsigned long long>(info->file_bytes));
  std::printf("digest: %s\n", emp::obs::DigestHex(info->digest).c_str());
  std::printf("dissimilarity attribute: %s\n",
              info->dissimilarity_attribute.c_str());
  std::printf("columns:\n");
  for (size_t i = 0; i < info->column_names.size(); ++i) {
    const char* enc = i < info->column_encodings.size()
                          ? info->column_encodings[i].c_str()
                          : "?";
    std::printf("  %-16s %s\n", info->column_names[i].c_str(), enc);
  }
  if (args.Has("verify")) {
    emp::compact::LoadOptions options;
    options.verify_digest = true;
    auto areas = emp::compact::LoadCompactAreaSet(path, options);
    if (!areas.ok()) return Fail(areas.status().ToString());
    std::printf("verify: digest matches decoded instance\n");
  }
  return 0;
}

int CmdSynth(const Args& args) {
  std::string out = args.Get("out");
  if (out.empty()) return Fail("synth: --out is required");

  emp::Result<emp::AreaSet> areas = [&]() -> emp::Result<emp::AreaSet> {
    if (args.Has("areas")) {
      return emp::synthetic::MakeDefaultDataset(
          "custom", static_cast<int32_t>(args.GetInt("areas", 1000)),
          static_cast<uint64_t>(args.GetInt("seed", 1)),
          static_cast<int32_t>(args.GetInt("components", 1)));
    }
    return emp::synthetic::MakeCatalogDataset(args.Get("dataset", "2k"),
                                              args.GetDouble("scale", 1.0));
  }();
  if (!areas.ok()) return Fail(areas.status().ToString());

  auto csv = emp::AreaSetToCsvText(*areas);
  if (!csv.ok()) return Fail(csv.status().ToString());
  emp::Status st = emp::WriteFile(out, *csv);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s: %d areas, %lld edges\n", out.c_str(),
              areas->num_areas(),
              static_cast<long long>(areas->graph().num_edges()));
  return 0;
}

int CmdInfo(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());
  std::printf("name: %s\n", areas->name().c_str());
  std::printf("areas: %d\n", areas->num_areas());
  std::printf("edges: %lld (avg degree %.2f)\n",
              static_cast<long long>(areas->graph().num_edges()),
              areas->graph().AverageDegree());
  std::printf("components: %d\n",
              emp::ConnectedComponents(areas->graph()).count);
  std::printf("attributes:\n");
  for (const std::string& name : areas->attributes().column_names()) {
    auto stats = areas->attributes().Stats(name);
    if (stats.ok()) {
      std::printf("  %-16s min=%.1f mean=%.1f max=%.1f\n", name.c_str(),
                  stats->min, stats->mean, stats->max);
    }
  }
  std::printf("dissimilarity attribute: %s\n",
              areas->dissimilarity_attribute().c_str());
  if (args.Has("gal")) {
    emp::Status st = emp::WriteGalFile(args.Get("gal"), areas->graph());
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote GAL weights: %s\n", args.Get("gal").c_str());
  }
  return 0;
}

int CmdFeasibility(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());
  auto constraints = emp::ParseConstraints(args.Get("query"));
  if (!constraints.ok()) return Fail(constraints.status().ToString());
  auto bound = emp::BoundConstraints::Create(&*areas, *constraints);
  if (!bound.ok()) return Fail(bound.status().ToString());
  auto report = emp::CheckFeasibility(*bound);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("feasible: %s\n", report->feasible ? "yes" : "NO");
  std::printf("full partition possible: %s\n",
              report->full_partition_possible ? "yes" : "no");
  std::printf("valid areas: %lld / %d (%lld invalid)\n",
              static_cast<long long>(report->num_valid_areas),
              areas->num_areas(),
              static_cast<long long>(report->invalid_areas.size()));
  std::printf("seed areas: %lld\n",
              static_cast<long long>(report->num_seed_areas));
  for (const std::string& line : report->diagnostics) {
    std::printf("diagnostic: %s\n", line.c_str());
  }
  return report->feasible ? 0 : 3;
}

int CmdSolve(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());

  emp::SolverOptions options;
  options.construction_iterations =
      static_cast<int>(args.GetInt("iterations", 3));
  options.construction_threads = static_cast<int>(args.GetInt("threads", 1));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  options.run_local_search = !args.Has("no-tabu");
  options.portfolio_replicas =
      static_cast<int>(args.GetInt("portfolio-replicas", 1));
  options.portfolio_threads =
      static_cast<int>(args.GetInt("portfolio-threads", 1));
  options.portfolio_target_p =
      static_cast<int32_t>(args.GetInt("portfolio-target-p", -1));
  options.time_budget_ms = args.GetInt("time-budget-ms", -1);
  options.max_evaluations = args.GetInt("max-evals", -1);

  // Supervision context: deadline/budget from the flags above, plus a
  // cancellation token wired to Ctrl-C for the duration of the solve.
  emp::RunContext ctx = emp::MakeRunContext(options);

  // Telemetry sinks, attached only when requested — the default solve
  // pays one null-pointer branch per instrumentation site.
  emp::obs::MetricRegistry metric_registry;
  emp::obs::TraceBuffer trace_buffer;
  emp::obs::ProgressBoard progress_board;
  emp::obs::RunJournal run_journal;
  emp::obs::AnytimeCurve anytime_curve;
  const bool serve = args.Has("serve-port");
  const bool profile = args.Has("profile-hz") || args.Has("profile-out");
  if (args.Has("metrics-out") || serve) ctx.metrics = &metric_registry;
  if (args.Has("trace-out")) ctx.trace = &trace_buffer;
  // The profiler is fed from the board's phase publishes, so profiling
  // needs the board attached even without --serve-port.
  if (serve || profile) ctx.progress_board = &progress_board;
  if (args.Has("journal-out")) ctx.journal = &run_journal;
  if (args.Has("curve-out")) ctx.curve = &anytime_curve;
  if (ctx.trace != nullptr && ctx.metrics != nullptr) {
    // Surface trace-buffer drops as emp_trace_dropped_events_total.
    trace_buffer.AttachDropMetrics(&metric_registry);
  }
  if (profile) {
    emp::Status st = emp::obs::PhaseProfiler::Start(
        static_cast<int>(args.GetInt("profile-hz", 97)));
    if (!st.ok()) return Fail(st.ToString());
  }

  // Live observability plane: HTTP endpoint over the registry + board.
  std::unique_ptr<emp::obs::HttpServer> http_server;
  if (serve) {
    emp::obs::HttpServer::Options server_options;
    server_options.port =
        static_cast<int>(args.GetInt("serve-port", 0));
    server_options.metrics = &metric_registry;
    server_options.progress = &progress_board;
    auto server = emp::obs::HttpServer::Start(server_options);
    if (!server.ok()) return Fail(server.status().ToString());
    http_server = std::move(server).value();
    std::printf("serving http on 127.0.0.1:%d "
                "(/healthz /metrics /metrics.json /progress /profile)\n",
                http_server->port());
    std::fflush(stdout);  // poll loops read this while the solve runs
  }

  // Periodic flusher: rewrites the metrics/journal files atomically every
  // --metrics-flush-ms while the solve runs, so pollers can tail them.
  std::unique_ptr<PeriodicFlusher> flusher;
  if (args.Has("metrics-flush-ms") &&
      (args.Has("metrics-out") || args.Has("journal-out"))) {
    const std::string metrics_path = args.Get("metrics-out");
    const bool metrics_prometheus =
        metrics_path.size() >= 5 &&
        (metrics_path.rfind(".prom") == metrics_path.size() - 5 ||
         metrics_path.rfind(".txt") == metrics_path.size() - 4);
    const std::string journal_path = args.Get("journal-out");
    flusher = std::make_unique<PeriodicFlusher>(
        args.GetInt("metrics-flush-ms", 1000), [=, &metric_registry,
                                                &run_journal] {
          if (!metrics_path.empty()) {
            emp::WriteFileAtomic(
                metrics_path,
                metrics_prometheus
                    ? emp::obs::MetricsToPrometheus(metric_registry)
                    : emp::obs::MetricsToJson(metric_registry));
          }
          if (!journal_path.empty()) run_journal.FlushTo(journal_path);
        });
  }

  g_solve_cancel = &ctx.cancel;
  std::signal(SIGINT, HandleSigint);

  // One spec, any algorithm: the registry picks the implementation by
  // name and validates the whole request (query syntax, attribute
  // binding, option domains) at Create time.
  emp::SolverSpec spec;
  spec.solver = args.Get("solver", "fact");
  spec.areas = &*areas;
  spec.query = args.Get("query");
  spec.attribute = args.Get("attribute");
  spec.threshold = args.GetDouble("threshold", -1);
  spec.options = options;
  if (spec.solver == "fact" && spec.query.empty()) {
    return Fail("solve: --query is required for --solver fact");
  }
  auto solver_or = emp::CreateSolver(spec);
  if (!solver_or.ok()) return Fail(solver_or.status().ToString());
  emp::Solver& solver_impl = **solver_or;

  emp::Result<emp::Solution> solution = solver_impl.Solve(ctx);
  // The portfolio replica stats survive on the concrete FaCT solver.
  emp::PortfolioStats portfolio_stats;
  if (auto* fact = dynamic_cast<emp::FactSolver*>(&solver_impl)) {
    portfolio_stats = fact->portfolio_stats();
  }
  std::signal(SIGINT, SIG_DFL);
  g_solve_cancel = nullptr;

  // Tear the plane down in reverse: flusher first (its last write must not
  // race the finals below), then the HTTP server. The profiler stops
  // before its table is exported so the dump is a settled snapshot.
  if (profile) emp::obs::PhaseProfiler::Stop();
  if (flusher != nullptr) flusher->Stop();
  if (http_server != nullptr) {
    http_server->Stop();
    std::printf("http server stopped after %lld requests\n",
                static_cast<long long>(http_server->requests_served()));
  }

  // Telemetry exports happen even for failed/interrupted solves — partial
  // metrics are exactly what you want when diagnosing one.
  if (args.Has("metrics-out")) {
    const std::string path = args.Get("metrics-out");
    const bool prometheus =
        path.size() >= 5 && (path.rfind(".prom") == path.size() - 5 ||
                             path.rfind(".txt") == path.size() - 4);
    const std::string text =
        prometheus ? emp::obs::MetricsToPrometheus(metric_registry)
                   : emp::obs::MetricsToJson(metric_registry);
    emp::Status st = emp::WriteFileAtomic(path, text);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", path.c_str());
  }
  if (args.Has("journal-out")) {
    emp::Status st = run_journal.FlushTo(args.Get("journal-out"));
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s (%lld records)\n", args.Get("journal-out").c_str(),
                static_cast<long long>(run_journal.size()));
  }
  if (args.Has("trace-out")) {
    emp::Status st = emp::WriteFile(args.Get("trace-out"),
                                    trace_buffer.ToJson());
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("trace-out").c_str());
  }
  if (args.Has("curve-out")) {
    emp::Status st = emp::WriteFile(args.Get("curve-out"),
                                    anytime_curve.ToJson() + "\n");
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("curve-out").c_str());
  }
  if (args.Has("profile-out")) {
    emp::Status st = emp::WriteFile(args.Get("profile-out"),
                                    emp::obs::PhaseProfiler::ToJson() + "\n");
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("profile-out").c_str());
  }

  if (!solution.ok()) return Fail(solution.status().ToString());

  if (ctx.cancel.cancelled()) {
    std::printf("interrupted — best-so-far solution:\n");
  }
  std::printf("%s\n", solution->Summary().c_str());
  if (portfolio_stats.replicas > 1) {
    std::printf(
        "portfolio: replica %d of %d won (%d started, %d cancelled, "
        "%d tabu-skipped, %d threads)\n",
        portfolio_stats.winning_replica, portfolio_stats.replicas,
        portfolio_stats.replicas_started, portfolio_stats.replicas_cancelled,
        portfolio_stats.tabu_skipped, portfolio_stats.threads);
  }
  auto metrics = emp::ComputeMetrics(*areas, *solution);
  if (metrics.ok()) std::printf("%s\n", metrics->ToString().c_str());

  if (args.Has("out")) {
    emp::Status st = emp::WriteFile(
        args.Get("out"), emp::AssignmentToCsv(solution->region_of));
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("out").c_str());
  }
  if (args.Has("geojson")) {
    auto geojson = emp::ToGeoJson(*areas, solution->region_of);
    if (!geojson.ok()) return Fail(geojson.status().ToString());
    emp::Status st = emp::WriteFile(args.Get("geojson"), *geojson);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("geojson").c_str());
  }
  if (args.Has("svg")) {
    emp::SvgOptions svg_options;
    svg_options.label_regions = args.Has("labels");
    auto svg = emp::RenderSvg(*areas, solution->region_of, svg_options);
    if (!svg.ok()) return Fail(svg.status().ToString());
    emp::Status st = emp::WriteFile(args.Get("svg"), *svg);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("svg").c_str());
  }
  if (args.Has("json")) {
    // Any solver: the canonical constraint set comes from the interface
    // (the baselines report their single-SUM query).
    auto json =
        emp::SolutionToJson(*areas, solver_impl.constraints(), *solution);
    if (!json.ok()) return Fail(json.status().ToString());
    emp::Status st = emp::WriteFile(args.Get("json"), *json);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s\n", args.Get("json").c_str());
  }
  return 0;
}

/// Flips the serve loop's stop flag; an atomic store, async-signal-safe.
std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

int CmdServe(const Args& args) {
  emp::obs::MetricRegistry metrics;

  emp::service::JobManager::Options manager_options;
  manager_options.workers = static_cast<int>(args.GetInt("workers", 2));
  manager_options.queue_capacity =
      static_cast<int>(args.GetInt("queue-capacity", 8));
  manager_options.metrics = &metrics;
  auto service = emp::service::SolveService::Create(manager_options);
  if (!service.ok()) return Fail(service.status().ToString());

  emp::obs::HttpServer::Options server_options;
  server_options.port = static_cast<int>(args.GetInt("port", 8080));
  server_options.metrics = &metrics;
  server_options.handler = (*service)->Handler();
  auto server = emp::obs::HttpServer::Start(server_options);
  if (!server.ok()) return Fail(server.status().ToString());
  if (args.Has("profile-hz")) {
    emp::Status st = emp::obs::PhaseProfiler::Start(
        static_cast<int>(args.GetInt("profile-hz", 97)));
    if (!st.ok()) return Fail(st.ToString());
    std::printf("profiler sampling at %lld hz (GET /profile)\n",
                static_cast<long long>(args.GetInt("profile-hz", 97)));
  }
  std::printf("serving solve api on 127.0.0.1:%d "
              "(POST /solve, GET /stats, GET /jobs, "
              "GET /jobs/<id>[/journal|/trace|/curve], "
              "POST /jobs/<id>/cancel; obs: /healthz /metrics "
              "/metrics.json /profile)\n",
              (*server)->port());
  std::printf("workers: %d, queue capacity: %d\n",
              (*service)->jobs().workers(),
              (*service)->jobs().queue_capacity());
  std::fflush(stdout);  // launchers poll this line for the bound port

  g_serve_stop.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // Stop the HTTP plane first — its handler calls into the service — then
  // drain the scheduler (cancels queued/running jobs, joins workers).
  if (args.Has("profile-hz")) emp::obs::PhaseProfiler::Stop();
  (*server)->Stop();
  (*service)->jobs().Shutdown();

  // Dump the per-job audit journals for post-mortem / CI artifacts.
  if (args.Has("journal-dir")) {
    const std::string dir = args.Get("journal-dir");
    for (const emp::service::JobSnapshot& job : (*service)->jobs().List()) {
      auto jsonl = (*service)->jobs().JournalJsonl(job.id);
      if (!jsonl.ok()) continue;
      const std::string path =
          dir + "/job-" + std::to_string(job.id) + ".jsonl";
      emp::Status st = emp::WriteFileAtomic(path, *jsonl);
      if (!st.ok()) return Fail(st.ToString());
      std::printf("wrote %s\n", path.c_str());
    }
  }
  std::printf("server stopped after %lld requests, %zu jobs\n",
              static_cast<long long>((*server)->requests_served()),
              (*service)->jobs().List().size());
  return 0;
}

int CmdExplore(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());
  auto constraints = emp::ParseConstraints(args.Get("query"));
  if (!constraints.ok()) return Fail(constraints.status().ToString());
  emp::RelaxOptions options;
  options.min_unassigned_gain = args.GetDouble("min-gain", 0.02);
  auto suggestions = emp::SuggestRelaxations(*areas, *constraints, options);
  if (!suggestions.ok()) return Fail(suggestions.status().ToString());
  if (suggestions->empty()) {
    std::printf("no helpful relaxations found — the query is already "
                "well-matched to the data\n");
    return 0;
  }
  for (const auto& s : *suggestions) {
    std::printf("%s\n", s.ToString().c_str());
  }
  return 0;
}

int CmdRender(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());
  std::vector<int32_t> region_of;
  if (args.Has("assignment")) {
    auto csv = emp::ReadFile(args.Get("assignment"));
    if (!csv.ok()) return Fail(csv.status().ToString());
    auto parsed = emp::AssignmentFromCsv(*csv, areas->num_areas());
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    region_of = std::move(parsed).value();
  }
  emp::SvgOptions options;
  options.width = args.GetDouble("width", 1024);
  options.label_regions = args.Has("labels");
  auto svg = emp::RenderSvg(*areas, region_of, options);
  if (!svg.ok()) return Fail(svg.status().ToString());
  std::string out = args.Get("out", "map.svg");
  emp::Status st = emp::WriteFile(out, *svg);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), svg->size());
  return 0;
}

int CmdValidate(const Args& args) {
  auto areas = LoadInput(args);
  if (!areas.ok()) return Fail(areas.status().ToString());
  auto constraints = emp::ParseConstraints(args.Get("query"));
  if (!constraints.ok()) return Fail(constraints.status().ToString());
  auto csv = emp::ReadFile(args.Get("assignment"));
  if (!csv.ok()) return Fail(csv.status().ToString());
  auto assignment = emp::AssignmentFromCsv(*csv, areas->num_areas());
  if (!assignment.ok()) return Fail(assignment.status().ToString());
  auto report = emp::ValidateAssignment(*areas, *constraints, *assignment);
  if (!report.ok()) return Fail(report.status().ToString());
  std::printf("%s\n", report->ToString().c_str());
  return report->valid ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv);
  if (!args.error().empty()) return Fail(args.error());

  if (command == "synth") return CmdSynth(args);
  if (command == "info") return CmdInfo(args);
  if (command == "feasibility") return CmdFeasibility(args);
  if (command == "solve") return CmdSolve(args);
  if (command == "serve") return CmdServe(args);
  if (command == "pack") return CmdPack(args);
  if (command == "inspect") return CmdInspect(args);
  if (command == "validate") return CmdValidate(args);
  if (command == "render") return CmdRender(args);
  if (command == "explore") return CmdExplore(args);
  return Usage();
}
