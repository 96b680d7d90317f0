// The three in-process workloads: back-to-back solves against a packed
// image, each with its own solver seed, timed per solve. The traced variant
// runs the same solves with the library's trace and counters attached.

#include <optional>
#include <utility>

#include "common/csv.h"
#include "common/stopwatch.h"
#include "constraints/query_parser.h"
#include "core/fact_solver.h"
#include "core/report.h"
#include "data/geojson.h"
#include "e2e.h"

namespace emp::e2e {

namespace {

struct InProcessSpec {
  const char* name;
  const char* dataset;
  const char* smoke_dataset;
  const char* query;
  int construction_iterations;
  /// Tabu iterations per solve; 0 = no local search.
  int64_t tabu_iterations;
  /// The first this-many solves always run, on the quality seeds; the
  /// quality metrics average over exactly them.
  int quality_solves;
  /// Cold `emp solve` path: every op binds the image itself and serializes
  /// the result (JSON report + assignment CSV) into memory.
  bool cold;
};

// Short solves, each with a fresh seed: a run's median then averages over
// many seeds instead of a few long ones. Tabu runs a fixed number of
// iterations (the no-improve limit equals the cap) so every solve does the
// same amount of local search, wherever its seed would have converged.
constexpr InProcessSpec kSpecs[] = {
    {"tabu-2k", "2k", "small", kEnrichedQuery, 3, 1000, 48, false},
    {"construct-50k", "50k", "small", kEnrichedQuery, 4, 0, 16, false},
    {"oneshot-250k", "250k", "small", kEnrichedQuery, 1, 0, 8, true},
};

const InProcessSpec* FindSpec(const std::string& name) {
  for (const InProcessSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

SolverOptions OptionsFor(const InProcessSpec& spec, uint64_t seed) {
  SolverOptions options;
  options.seed = seed;
  options.construction_iterations = spec.construction_iterations;
  options.construction_threads = 1;
  options.run_local_search = spec.tabu_iterations > 0;
  options.tabu_max_iterations = spec.tabu_iterations;
  options.tabu_max_no_improve = spec.tabu_iterations;
  return options;
}

Result<Solution> SolvePlain(const AreaSet& areas,
                            const std::vector<Constraint>& constraints,
                            const SolverOptions& options) {
  EMP_ASSIGN_OR_RETURN(FactSolver solver,
                       FactSolver::Create(&areas, constraints, options));
  return solver.Solve();
}

}  // namespace

bool IsInProcessWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

std::vector<std::string> InProcessDatasets(const std::string& workload) {
  return {FindSpec(workload)->dataset};
}

void RunInProcess(const RunConfig& config, Report* report) {
  const InProcessSpec& spec = *FindSpec(config.workload);
  const std::string image =
      ImagePath(config, spec.dataset, spec.smoke_dataset);
  std::optional<SpanRecorder> recorder;
  if (config.traced) recorder.emplace();
  SpanRecorder* spans = recorder ? &*recorder : nullptr;
  obs::MetricRegistry metrics;

  Result<std::vector<Constraint>> parsed = ParseConstraints(spec.query);
  if (!parsed.ok()) {
    report->Fail("query: " + parsed.status().ToString());
    return;
  }
  const std::vector<Constraint> constraints = *parsed;

  // Set-up, repeated (SetupAgain): bind the image (digest verified) and
  // build a validated solver on it. The median is the in-process part of
  // setup_s.
  std::optional<AreaSet> areas;
  std::vector<double> setup_s;
  while (SetupAgain(setup_s)) {
    Stopwatch setup;
    Result<AreaSet> bound = [&] {
      ScopedSpan span(spans, "data.bind", 0);
      return BindImage(image);
    }();
    if (!bound.ok()) {
      report->Fail("bind " + image + ": " + bound.status().ToString());
      return;
    }
    Result<FactSolver> solver =
        FactSolver::Create(&*bound, constraints, OptionsFor(spec, 1));
    if (!solver.ok()) {
      report->Fail("solver: " + solver.status().ToString());
      return;
    }
    setup_s.push_back(setup.ElapsedSeconds());
    areas.emplace(std::move(*bound));
  }

  std::vector<double> op_ms;
  std::vector<double> quality_p, quality_h;
  std::vector<int64_t> traced_ops;
  std::vector<double> het_gain;
  double json_bytes = 0;
  double traced_total = 0, plain_total = 0;

  // The run lasts `seconds` of wall time, checks included.
  const int quality_solves = config.smoke ? 4 : spec.quality_solves;
  Stopwatch run;
  for (int64_t i = 0;
       i < quality_solves || run.ElapsedSeconds() < config.seconds; ++i) {
    const SolverOptions options = OptionsFor(
        spec, SolverSeed(i < quality_solves ? kQualitySeed : config.seed, 1,
                         static_cast<uint64_t>(i)));
    const std::string what = "seed " + std::to_string(options.seed);
    const int64_t op = i + 1;
    ++report->attempted;

    std::optional<AreaSet> cold_areas;
    Result<Solution> solution = Status::Internal("not run");
    std::string json;
    double solve_ms = 0;
    Stopwatch op_timer;
    {
      ScopedSpan op_span(spans, "op", op);
      if (spec.cold) {
        Result<AreaSet> bound = [&] {
          ScopedSpan span(spans, "data.bind", op);
          return BindImage(image);
        }();
        if (!bound.ok()) {
          report->Fail("bind: " + bound.status().ToString());
          continue;
        }
        cold_areas.emplace(std::move(*bound));
      }
      const AreaSet& solve_areas = cold_areas ? *cold_areas : *areas;
      Stopwatch solve_timer;
      solution = spans != nullptr ? SolveTraced(solve_areas, constraints,
                                                options, &metrics, spans, op)
                                  : SolvePlain(solve_areas, constraints,
                                               options);
      solve_ms = solve_timer.ElapsedMillis();
      if (solution.ok() && spec.cold) {
        Result<std::string> report_json = [&] {
          ScopedSpan span(spans, "report.json", op);
          return SolutionToJson(solve_areas, constraints, *solution);
        }();
        {
          ScopedSpan span(spans, "report.csv", op);
          AssignmentToCsv(solution->region_of);
        }
        if (report_json.ok()) {
          json = std::move(*report_json);
        } else {
          solution = report_json.status();
        }
      }
    }
    const double ms = op_timer.ElapsedMillis();

    // Everything below is outside the timers.
    if (!solution.ok()) {
      report->Fail(what + ": " + solution.status().ToString());
      continue;
    }
    const AreaSet& solve_areas = cold_areas ? *cold_areas : *areas;
    const std::string invalid = ValidationError(
        solve_areas, constraints, solution->region_of, solution->p());
    if (!invalid.empty()) {
      report->Fail(what + ": " + invalid);
      continue;
    }
    if (i < quality_solves) {
      quality_p.push_back(solution->p());
      quality_h.push_back(solution->heterogeneity);
    }
    op_ms.push_back(ms);
    if (spans == nullptr) continue;

    if (!spec.cold) {
      // Serialization is not on this workload's path; time it beside the
      // op for the report layer's numbers.
      Result<std::string> report_json = [&] {
        ScopedSpan span(spans, "report.json", op);
        return SolutionToJson(*areas, constraints, *solution);
      }();
      ScopedSpan span(spans, "report.csv", op);
      AssignmentToCsv(solution->region_of);
      if (report_json.ok()) json = std::move(*report_json);
    }
    json_bytes = static_cast<double>(json.size());

    // Traced gate on every seed: the solve with every job sink attached
    // must equal a plain FactSolver::Solve. The two wall times give the
    // sinks' overhead.
    Stopwatch plain_timer;
    Result<Solution> plain = SolvePlain(solve_areas, constraints, options);
    const double plain_ms = plain_timer.ElapsedMillis();
    if (!plain.ok() || !SameSolution(*plain, *solution)) {
      report->Fail(what + ": solve with job sinks attached differs from "
                          "FactSolver::Solve");
      continue;
    }
    traced_total += solve_ms;
    plain_total += plain_ms;
    traced_ops.push_back(op);
    if (spec.tabu_iterations > 0) {
      het_gain.push_back(solution->tabu_result.ImprovementRatio());
    }
  }

  if (!config.traced) {
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("latency_p50_ms", Median(op_ms), "ms");
    report->Add("p_mean", Mean(quality_p), "regions");
    report->Add("het_mean", Mean(quality_h), "H");
    report->Add("rss_peak_mb", PeakRssMb(), "MiB");
    report->latency_samples_ms = op_ms;
    return;
  }

  AddSolveLayers(spans->spans(), traced_ops, &metrics, report);
  report->Add("data.bind_ms", MedianSpanMs(spans->spans(), "data.bind"),
              "ms");
  report->Add("data.image_bytes", FileBytes(image), "bytes");
  report->Add("report.json_ms", MedianSpanMs(spans->spans(), "report.json"),
              "ms");
  report->Add("report.json_bytes", json_bytes, "bytes");
  report->Add("report.csv_ms", MedianSpanMs(spans->spans(), "report.csv"),
              "ms");
  if (!het_gain.empty()) {
    report->Add("local_search.het_gain", Mean(het_gain), "share");
  }
  if (plain_total > 0) {
    report->Add("obs.sinks_overhead_ratio", traced_total / plain_total,
                "ratio");
  }
  if (!config.trace_out.empty()) {
    Status written = WriteFile(config.trace_out, spans->ToChromeJson());
    if (!written.ok()) report->Fail("trace: " + written.ToString());
  }
}

}  // namespace emp::e2e
