// Shared pieces of the workloads: image binding, seed derivation, the
// traced solve and the per-layer summary of traced solves.

#include <sys/stat.h>

#include "core/fact_solver.h"
#include "core/validate.h"
#include "data/loader.h"
#include "e2e.h"
#include "obs/curve.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace emp::e2e {

std::string ImagePath(const RunConfig& config, const std::string& dataset,
                      const std::string& smoke_dataset) {
  return config.inputs + "/" + (config.smoke ? smoke_dataset : dataset) +
         ".emp";
}

Result<AreaSet> BindImage(const std::string& path) {
  LoaderOptions options;
  options.verify_compact_digest = true;
  return LoadAreaSetAuto(path, options);
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : 0.0;
}

uint64_t SolverSeed(uint64_t seed, uint64_t stream, uint64_t k) {
  return DeriveSeed(seed, stream, k) & 0xFFFFFFFFULL;
}

Result<Solution> SolveTraced(const AreaSet& areas,
                             const std::vector<Constraint>& constraints,
                             const SolverOptions& options,
                             obs::MetricRegistry* metrics,
                             SpanRecorder* spans, int64_t op) {
  // What JobManager attaches to a job (job_manager.cc).
  const double trace_epoch_us = spans->NowMicros();
  obs::TraceBuffer trace(4096);
  obs::ProgressBoard board;
  obs::RunJournal journal;
  obs::AnytimeCurve curve;
  Result<Solution> solution = Status::Internal("not run");
  int32_t call = -1;
  {
    ScopedSpan span(spans, "solver", op);
    call = span.id();
    Result<FactSolver> solver =
        FactSolver::Create(&areas, constraints, options);
    if (solver.ok()) {
      RunContext ctx = MakeRunContext(options);
      ctx.metrics = metrics;
      ctx.trace = &trace;
      ctx.progress_board = &board;
      ctx.journal = &journal;
      ctx.curve = &curve;
      solution = solver->Solve(ctx);
    } else {
      solution = solver.status();
    }
  }
  if (trace.dropped_events() > 0) {
    return Status::Internal("trace buffer dropped " +
                            std::to_string(trace.dropped_events()) +
                            " events: the breakdown would be incomplete");
  }
  spans->Import(trace.Snapshot(), trace_epoch_us, call, op);
  return solution;
}

void AddSolveLayers(const std::vector<Span>& spans,
                    const std::vector<int64_t>& ops,
                    obs::MetricRegistry* metrics, Report* report) {
  if (ops.empty()) return;
  const auto by_op = TotalsByOp(spans);
  const auto totals = [&](int64_t op, const char* name) {
    const auto it = by_op.find(op);
    if (it == by_op.end()) return SpanTotals{};
    const auto jt = it->second.find(name);
    return jt == it->second.end() ? SpanTotals{} : jt->second;
  };
  // Mean over the ops of each op's total (or self time) of one span. The
  // library stamps whole µs, so a median of short phases would repeat the
  // same few values from run to run.
  const auto mean = [&](const char* name, bool self) {
    std::vector<double> v;
    for (int64_t op : ops) {
      const SpanTotals t = totals(op, name);
      v.push_back(self ? t.self_ms : t.ms);
    }
    return Mean(v);
  };
  double op_ms = 0, op_self_ms = 0, tabu_ms = 0;
  for (int64_t op : ops) {
    op_ms += totals(op, "op").ms;
    op_self_ms += totals(op, "op").self_ms;
    tabu_ms += totals(op, "tabu").ms;
  }
  const auto count = [&](const char* name) {
    return static_cast<double>(metrics->GetCounter(name)->value());
  };
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double n = static_cast<double>(ops.size());
  const double attempts = count("emp_construction_iterations_total");
  const double moves = count("emp_tabu_moves_applied_total");
  const double hits = count("emp_tabu_cut_cache_hits_total");

  Report& r = *report;
  // FactSolver::Create and Solve bind the constraints before the library's
  // solve span opens; that is what the solver span's self time holds.
  r.Add("constraints.bind_ms", mean("solver", true), "ms");
  r.Add("feasibility.ms", mean("feasibility", false), "ms");
  r.Add("construction.seeding_ms", mean("construction.seeding", false),
        "ms");
  r.Add("construction.grow_ms", mean("construction.grow", false), "ms");
  r.Add("construction.adjust_ms", mean("construction.adjust", false), "ms");
  r.Add("construction.partition_ms", mean("construction.iteration", true),
        "ms");
  r.Add("construction.attempts", attempts / n, "count");
  r.Add("construction.retry_share",
        share(count("emp_construction_retries_total"), attempts), "share");
  r.Add("construction.algorithm1_reverts",
        count("emp_construction_algorithm1_reverts_total") / n, "count");
  r.Add("construction.dissolved_share",
        share(count("emp_construction_regions_dissolved_total"),
              count("emp_construction_regions_grown_total")),
        "share");
  r.Add("construction.adjust_moves",
        (count("emp_construction_adjust_swaps_total") +
         count("emp_construction_adjust_merges_total") +
         count("emp_construction_adjust_removals_total")) /
            n,
        "count");
  // ComputeHeterogeneity, the assignment fill and releasing the
  // construction partitions: the solve span's time outside every phase.
  r.Add("solve.self_ms", mean("solve", true), "ms");
  r.Add("local_search.tabu_share", share(tabu_ms, op_ms), "share");
  r.Add("local_search.moves_per_s", share(moves, tabu_ms / 1e3), "1/s");
  r.Add("local_search.scored_per_move",
        share(count("emp_tabu_candidates_rescored_total"), moves), "count");
  r.Add("local_search.cut_cache_hit_share",
        share(hits, hits + count("emp_tabu_cut_cache_misses_total")),
        "share");
  r.Add("local_search.improving_share",
        share(count("emp_tabu_improving_moves_total"), moves), "share");
  r.Add("bench.unattributed_share", share(op_self_ms, op_ms), "share");
}

bool SameSolution(const Solution& a, const Solution& b) {
  return a.p() == b.p() && a.heterogeneity == b.heterogeneity &&
         a.region_of == b.region_of;
}

std::string ValidationError(const AreaSet& areas,
                            const std::vector<Constraint>& constraints,
                            const std::vector<int32_t>& region_of,
                            int32_t expected_p) {
  Result<ValidationReport> report =
      ValidateAssignment(areas, constraints, region_of);
  if (!report.ok()) return "validator error: " + report.status().ToString();
  if (!report->valid) {
    return "validator rejected the assignment: " +
           (report->violations.empty() ? std::string("?")
                                       : report->violations.front());
  }
  if (report->p != expected_p) {
    return "validator counted p=" + std::to_string(report->p) +
           ", solver reported " + std::to_string(expected_p);
  }
  if (expected_p <= 0) return "solve formed no region";
  return "";
}

}  // namespace emp::e2e
