#include "core/fact_solver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/construction/seeding.h"
#include "core/construction/unified_growth.h"
#include "core/local_search/heterogeneity.h"
#include "core/partition.h"
#include "core/portfolio.h"
#include "core/run_events.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

FactSolver::FactSolver(const AreaSet* areas,
                       std::vector<Constraint> constraints,
                       SolverOptions options)
    : areas_(areas),
      constraints_(std::move(constraints)),
      options_(options) {}

Result<FactSolver> FactSolver::Create(const AreaSet* areas,
                                      std::vector<Constraint> constraints,
                                      SolverOptions options) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (areas == nullptr) {
    return Status::InvalidArgument("FactSolver: null area set");
  }
  // Binding checks constraint shape and attribute existence; the bound is
  // rebuilt in Solve() (it holds pointers into `areas` and is cheap).
  Result<BoundConstraints> bound = BoundConstraints::Create(areas, constraints);
  if (!bound.ok()) return bound.status();
  return FactSolver(areas, std::move(constraints), options);
}

Result<Solution> FactSolver::Solve(const RunContext& ctx) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options_));
  if (areas_ == nullptr) {
    return Status::InvalidArgument("FactSolver: null area set");
  }

  RunEvents events(ctx);
  events.RunBegin(options_, *areas_);
  Stopwatch run_timer;
  // Multi-start portfolio requested: run N independent replicas and
  // reduce deterministically. The portfolio re-enters SolveSinglePass
  // through child contexts without observation sinks, so the bracket
  // written here stays the run's only run_start/run_end pair.
  Result<Solution> result = [&]() -> Result<Solution> {
    if (options_.portfolio_replicas <= 1) return SolveSinglePass(ctx);
    PortfolioSolver portfolio(areas_, constraints_, options_);
    Result<Solution> reduced = portfolio.Solve(ctx);
    portfolio_stats_ = portfolio.stats();
    return reduced;
  }();
  events.RunEnd(result, run_timer.ElapsedSeconds());
  return result;
}

Result<Solution> FactSolver::SolveSinglePass(const RunContext& ctx) {
  EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                       BoundConstraints::Create(areas_, constraints_));

  obs::MetricRegistry* metrics = ctx.metrics;
  RunEvents events(ctx);
  Stopwatch solve_timer;
  obs::ScopedSpan solve_span(ctx.trace, "solve");

  // ---- Phase 1: feasibility. ----------------------------------------
  events.PhaseBegin("feasibility");
  Stopwatch feasibility_timer;
  double feasibility_seconds = 0.0;
  FeasibilityReport feasibility;
  {
    obs::ScopedSpan span(ctx.trace, "feasibility");
    PhaseSupervisor supervisor(&ctx, "feasibility");
    EMP_ASSIGN_OR_RETURN(feasibility,
                         CheckFeasibility(bound, &supervisor));
    feasibility_seconds = feasibility_timer.ElapsedSeconds();
    obs::Set(obs::GetGauge(metrics, "emp_feasibility_seconds"),
             feasibility_seconds);
    events.FeasibilityEnd(feasibility, feasibility_seconds);
    if (auto reason = supervisor.tripped()) {
      events.Termination("feasibility", *reason);
      // Interrupted before the verdict: the scan is incomplete, so neither
      // feasibility nor infeasibility is proven. The only safe best-effort
      // answer is the empty solution (p = 0, everything unassigned).
      Solution degraded;
      degraded.feasibility = std::move(feasibility);
      degraded.feasibility_seconds = feasibility_seconds;
      degraded.termination_reason = *reason;
      Partition empty(&bound);
      FillAssignmentFromPartition(empty, &degraded);
      return degraded;
    }
  }
  if (!feasibility.feasible) {
    return Status::Infeasible(Join(feasibility.diagnostics, "; "));
  }
  if (!options_.filter_invalid_areas && !feasibility.invalid_areas.empty()) {
    return Status::Infeasible(
        std::to_string(feasibility.invalid_areas.size()) +
        " areas are invalid under the constraints and "
        "filter_invalid_areas is disabled");
  }

  // ---- Phase 2: construction, best-of-k iterations on p. -------------
  const int iterations = options_.construction_iterations;
  const int threads =
      std::max(1, std::min(options_.construction_threads, iterations));
  events.ConstructionBegin(iterations, threads);
  Stopwatch construction_timer;
  obs::Histogram* iteration_seconds =
      obs::GetHistogram(metrics, "emp_construction_iteration_seconds");
  obs::Histogram* grow_seconds =
      obs::GetHistogram(metrics, "emp_construction_grow_seconds");
  obs::Histogram* adjust_seconds =
      obs::GetHistogram(metrics, "emp_construction_adjust_seconds");
  obs::Counter* iterations_counter =
      obs::GetCounter(metrics, "emp_construction_iterations_total");
  obs::Counter* retries_counter =
      obs::GetCounter(metrics, "emp_construction_retries_total");

  SeedingResult seeding;
  {
    obs::ScopedSpan span(ctx.trace, "construction.seeding");
    seeding = SelectSeeds(bound, feasibility);
  }
  ConnectivityChecker connectivity(&areas_->graph());

  // One construction try; iterations are independent so they run on a
  // small worker pool (parallelization is the paper's stated future work).
  struct IterationOutcome {
    std::optional<Partition> partition;
    RegionGrowingStats growing;
    MonotonicAdjustStats adjust;
    int32_t p = -1;
    Status status;
    /// Set when the attempt was cut short by supervision; its partial
    /// partition is still feasible and competes in best-of-k as usual.
    std::optional<TerminationReason> interrupted;
  };
  auto run_attempt = [&](int iter, int attempt) {
    IterationOutcome out;
    obs::ScopedSpan iter_span(ctx.trace, "construction.iteration",
                              /*worker=*/iter);
    Stopwatch iter_timer;
    // Derived RNG streams: one per (iteration, retry attempt), so retries
    // explore genuinely different constructions and any (iter, attempt)
    // replays identically regardless of thread count.
    Rng rng(options_.seed +
            0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(iter) +
            0xD1B54A32D192ED03ULL * static_cast<uint64_t>(attempt));
    Partition partition(&bound);
    for (int32_t a : feasibility.invalid_areas) partition.Deactivate(a);
    PhaseSupervisor supervisor(&ctx, "construction", /*worker=*/iter);
    // Per-attempt arena: attempts may run concurrently on the worker
    // pool, so the scratch is never shared across threads.
    GrowthScratch scratch;
    if (options_.construction_strategy ==
        ConstructionStrategy::kUnifiedGrowth) {
      // Ablation baseline: single-step growth already leaves every
      // committed region fully feasible; no adjustment pass needed.
      obs::ScopedSpan grow_span(ctx.trace, "construction.grow",
                                /*worker=*/iter);
      out.status = GrowUnified(seeding, options_, &rng, &partition,
                               /*stats=*/nullptr, &supervisor, &scratch);
    } else {
      Stopwatch grow_timer;
      {
        obs::ScopedSpan grow_span(ctx.trace, "construction.grow",
                                  /*worker=*/iter);
        out.status = GrowRegions(seeding, options_, &rng, &partition,
                                 &out.growing, &supervisor, &scratch);
      }
      obs::Observe(grow_seconds, grow_timer.ElapsedSeconds());
      if (out.status.ok()) {
        // ConnectivityChecker is not thread-safe; each iteration gets its
        // own when running in parallel. Runs even when the supervisor has
        // tripped: its dissolve pass finalizes the partial partition.
        Stopwatch adjust_timer;
        obs::ScopedSpan adjust_span(ctx.trace, "construction.adjust",
                                    /*worker=*/iter);
        ConnectivityChecker local_connectivity(&areas_->graph());
        out.status = AdjustForCounting(&local_connectivity, &partition,
                                       &out.adjust, &supervisor, &scratch);
        obs::Observe(adjust_seconds, adjust_timer.ElapsedSeconds());
      }
    }
    out.interrupted = supervisor.tripped();
    if (out.status.ok()) {
      out.p = partition.NumRegions();
      out.partition.emplace(std::move(partition));
    }
    obs::Add(iterations_counter);
    obs::Observe(iteration_seconds, iter_timer.ElapsedSeconds());
    return out;
  };
  std::atomic<int64_t> construction_done{0};
  auto run_iteration = [&](int iter) {
    IterationOutcome out = run_attempt(iter, 0);
    // Retry policy: an attempt that errored or produced no region at all
    // re-runs under a derived RNG stream. Interrupted attempts are never
    // retried — their best-effort partial is the point.
    for (int attempt = 1; attempt <= options_.construction_retries;
         ++attempt) {
      if (out.interrupted || (out.status.ok() && out.p > 0)) break;
      obs::Add(retries_counter);
      out = run_attempt(iter, attempt);
    }
    events.Work(construction_done.fetch_add(1, std::memory_order_relaxed) + 1,
                iterations);
    return out;
  };

  std::vector<IterationOutcome> outcomes(static_cast<size_t>(iterations));
  if (threads <= 1) {
    for (int iter = 0; iter < iterations; ++iter) {
      outcomes[static_cast<size_t>(iter)] = run_iteration(iter);
    }
  } else {
    // Small worker pool honoring construction_threads exactly: `threads`
    // workers (this thread included) pull iteration ids from a shared
    // counter. Outcomes land in a pre-sized vector slot per iteration, so
    // no synchronization beyond the ticket counter and the joins.
    obs::Histogram* per_thread = obs::GetHistogram(
        metrics, "emp_construction_iterations_per_thread",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    std::atomic<int> next_iteration{0};
    auto drain = [&]() {
      int64_t processed = 0;
      int iter;
      while ((iter = next_iteration.fetch_add(
                  1, std::memory_order_relaxed)) < iterations) {
        outcomes[static_cast<size_t>(iter)] = run_iteration(iter);
        ++processed;
      }
      obs::Observe(per_thread, static_cast<double>(processed));
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) pool.emplace_back(drain);
    drain();
    for (std::thread& worker : pool) worker.join();
  }

  // Deterministic selection: highest p, earliest iteration breaking ties —
  // identical regardless of thread count. Interrupted partials compete on
  // the same footing; the earliest iteration's trip verdict (also
  // thread-count independent) becomes the solution's termination reason.
  std::optional<Partition> best;
  int32_t best_p = -1;
  RegionGrowingStats best_growing;
  MonotonicAdjustStats best_adjust;
  int completed_iterations = 0;
  std::optional<TerminationReason> construction_trip;
  RegionGrowingStats growing_totals;
  MonotonicAdjustStats adjust_totals;
  for (IterationOutcome& out : outcomes) {
    EMP_RETURN_IF_ERROR(out.status);
    if (out.interrupted.has_value()) {
      if (!construction_trip.has_value()) construction_trip = out.interrupted;
    } else {
      ++completed_iterations;
    }
    growing_totals.regions_from_avg_seeds += out.growing.regions_from_avg_seeds;
    growing_totals.regions_from_merging += out.growing.regions_from_merging;
    growing_totals.algorithm1_reverts += out.growing.algorithm1_reverts;
    growing_totals.regions_dissolved += out.growing.regions_dissolved;
    adjust_totals.swaps += out.adjust.swaps;
    adjust_totals.merges += out.adjust.merges;
    adjust_totals.removals += out.adjust.removals;
    adjust_totals.regions_dissolved += out.adjust.regions_dissolved;
    if (out.p > best_p) {
      best_p = out.p;
      best = std::move(out.partition);
      best_growing = out.growing;
      best_adjust = out.adjust;
    }
  }

  Solution solution;
  solution.feasibility = std::move(feasibility);
  solution.feasibility_seconds = feasibility_seconds;
  solution.growing_stats = best_growing;
  solution.adjust_stats = best_adjust;
  solution.completed_construction_iterations = completed_iterations;
  solution.construction_seconds = construction_timer.ElapsedSeconds();
  solution.heterogeneity_before_local_search = ComputeHeterogeneity(*best);
  if (construction_trip.has_value()) {
    solution.termination_reason = *construction_trip;
    events.Termination("construction", *construction_trip);
  }
  events.ConstructionEnd(best_p, solution);

  if (metrics != nullptr) {
    obs::GetCounter(metrics, "emp_construction_regions_grown_total")
        ->Add(growing_totals.regions_from_avg_seeds +
              growing_totals.regions_from_merging);
    obs::GetCounter(metrics, "emp_construction_algorithm1_reverts_total")
        ->Add(growing_totals.algorithm1_reverts);
    obs::GetCounter(metrics, "emp_construction_regions_dissolved_total")
        ->Add(growing_totals.regions_dissolved +
              adjust_totals.regions_dissolved);
    obs::GetCounter(metrics, "emp_construction_adjust_swaps_total")
        ->Add(adjust_totals.swaps);
    obs::GetCounter(metrics, "emp_construction_adjust_merges_total")
        ->Add(adjust_totals.merges);
    obs::GetCounter(metrics, "emp_construction_adjust_removals_total")
        ->Add(adjust_totals.removals);
    obs::GetGauge(metrics, "emp_construction_best_p")->Set(best_p);
    obs::GetGauge(metrics, "emp_construction_threads")->Set(threads);
    obs::GetGauge(metrics, "emp_construction_seconds")
        ->Set(solution.construction_seconds);
  }

  // ---- Phase 3: Tabu local search (p is fixed). -----------------------
  if (options_.run_local_search && best_p > 0) {
    events.PhaseBegin("tabu");
    Stopwatch tabu_timer;
    obs::ScopedSpan span(ctx.trace, "tabu");
    PhaseSupervisor supervisor(&ctx, "tabu");
    EMP_ASSIGN_OR_RETURN(solution.tabu_result,
                         TabuSearch(options_, &connectivity, &*best,
                                    /*objective=*/nullptr, &supervisor));
    solution.local_search_seconds = tabu_timer.ElapsedSeconds();
    solution.heterogeneity = solution.tabu_result.final_heterogeneity;
    if (solution.termination_reason == TerminationReason::kConverged) {
      solution.termination_reason = solution.tabu_result.termination;
    }
    if (solution.tabu_result.termination != TerminationReason::kConverged) {
      events.Termination("tabu", solution.tabu_result.termination);
    }
    events.TabuEnd(solution.tabu_result, solution.local_search_seconds);
    obs::Set(obs::GetGauge(metrics, "emp_tabu_seconds"),
             solution.local_search_seconds);
  } else {
    solution.heterogeneity = solution.heterogeneity_before_local_search;
    solution.tabu_result.initial_heterogeneity = solution.heterogeneity;
    solution.tabu_result.final_heterogeneity = solution.heterogeneity;
  }

  // ---- Extract the final assignment. ----------------------------------
  FillAssignmentFromPartition(*best, &solution);
  if (metrics != nullptr) {
    obs::GetCounter(metrics, "emp_solver_evaluations_total")
        ->Add(ctx.evaluations());
    obs::GetGauge(metrics, "emp_solver_seconds")
        ->Set(solve_timer.ElapsedSeconds());
    obs::GetGauge(metrics, "emp_solution_p")->Set(solution.p());
    obs::GetGauge(metrics, "emp_solution_heterogeneity")
        ->Set(solution.heterogeneity);
  }
  return solution;
}

Result<Solution> SolveEmp(const AreaSet& areas,
                          std::vector<Constraint> constraints,
                          const SolverOptions& options,
                          const RunContext* ctx) {
  FactSolver solver(&areas, std::move(constraints), options);
  if (ctx != nullptr) return solver.Solve(*ctx);
  return solver.Solve();
}

}  // namespace emp
