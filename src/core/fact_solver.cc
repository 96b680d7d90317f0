#include "core/fact_solver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/ticket_pool.h"
#include "core/construction/seeding.h"
#include "core/partition.h"
#include "core/portfolio.h"
#include "core/run_events.h"
#include "core/solve_phases.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

namespace {

/// Re-runs of a construction try that errored or produced no region, each
/// under its own derived RNG stream.
constexpr int kConstructionRetries = 2;

}  // namespace

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
  // Multi-start portfolio requested: run N independent replicas and
  // reduce deterministically. The portfolio writes the run bracket itself;
  // its replicas run Construct and TabuPhase under child contexts without
  // observation sinks, so that bracket stays the run's only one.
  if (options_.portfolio_replicas > 1) {
    PortfolioSolver portfolio(areas_, constraints_, options_);
    Result<Solution> reduced = portfolio.Solve(ctx);
    portfolio_stats_ = portfolio.stats();
    return reduced;
  }
  return RunBracketed(areas_, options_, ctx, [&]() -> Result<Solution> {
    EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                         BoundConstraints::Create(areas_, constraints_));
    obs::ScopedSpan solve_span(ctx.trace, "solve");
    EMP_ASSIGN_OR_RETURN(Constructed run, Construct(bound, ctx));
    // A plain solve polishes whatever construction returned, interrupted
    // or not; a tripped context stops tabu at its first checkpoint.
    EMP_RETURN_IF_ERROR(TabuPhase(options_, ctx, /*worker=*/0,
                                  &run.partition, &run.solution));
    FillAssignmentFromPartition(run.partition, &run.solution);
    return std::move(run.solution);
  });
}

Result<FactSolver::Constructed> FactSolver::Construct(
    const BoundConstraints& bound, const RunContext& ctx) const {
  obs::MetricRegistry* metrics = ctx.metrics;
  RunEvents events(ctx);

  // ---- Phase 1: feasibility. ----------------------------------------
  Solution solution;
  EMP_RETURN_IF_ERROR(FeasibilityPhase(bound, ctx, &solution));
  if (solution.termination_reason != TerminationReason::kConverged) {
    return Constructed{Partition(&bound), std::move(solution)};  // Cut short.
  }
  const FeasibilityReport& feasibility = solution.feasibility;
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
    for (int attempt = 1; attempt <= kConstructionRetries; ++attempt) {
      if (out.interrupted || (out.status.ok() && out.p > 0)) break;
      obs::Add(retries_counter);
      out = run_attempt(iter, attempt);
    }
    events.Work(construction_done.fetch_add(1, std::memory_order_relaxed) + 1,
                iterations);
    return out;
  };

  // Deterministic best-of-k, folded as each try finishes so a losing
  // partition is freed when its try ends: at most `threads + 1` partitions
  // are alive, whatever k is. Highest p wins and the earlier iteration
  // breaks ties; the earliest iteration's error is the one returned, and
  // the earliest interrupted try's trip verdict becomes the solution's
  // termination reason. Interrupted partials compete on the same footing.
  // Comparing (p, iteration) makes the result independent of finish order
  // and thread count.
  std::mutex fold_mu;
  std::optional<Partition> best;
  int32_t best_p = -1;
  int best_iteration = -1;
  RegionGrowingStats best_growing;
  MonotonicAdjustStats best_adjust;
  int error_iteration = -1;
  Status error;
  int completed_iterations = 0;
  int trip_iteration = -1;
  std::optional<TerminationReason> construction_trip;
  RegionGrowingStats growing_totals;
  MonotonicAdjustStats adjust_totals;
  // `out` is destroyed after the lock is released, together with whichever
  // partition lost.
  auto fold = [&](int iter, IterationOutcome out) {
    std::lock_guard<std::mutex> lock(fold_mu);
    if (!out.status.ok()) {
      if (error_iteration < 0 || iter < error_iteration) {
        error_iteration = iter;
        error = std::move(out.status);
      }
      return;
    }
    if (out.interrupted.has_value()) {
      if (trip_iteration < 0 || iter < trip_iteration) {
        trip_iteration = iter;
        construction_trip = out.interrupted;
      }
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
    if (out.p > best_p || (out.p == best_p && iter < best_iteration)) {
      best_p = out.p;
      best_iteration = iter;
      best.swap(out.partition);
      best_growing = out.growing;
      best_adjust = out.adjust;
    }
  };

  // Honors construction_threads exactly; the calling thread is a worker.
  auto run_and_fold = [&](int iter) { fold(iter, run_iteration(iter)); };
  std::vector<int64_t> per_worker;
  RunTicketPool(iterations, threads, run_and_fold, /*stop=*/nullptr,
                threads > 1 ? &per_worker : nullptr);
  if (threads > 1) {
    obs::Histogram* per_thread = obs::GetHistogram(
        metrics, "emp_construction_iterations_per_thread",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    for (int64_t ran : per_worker) {
      obs::Observe(per_thread, static_cast<double>(ran));
    }
  }
  EMP_RETURN_IF_ERROR(error);

  solution.growing_stats = best_growing;
  solution.adjust_stats = best_adjust;
  solution.completed_construction_iterations = completed_iterations;
  solution.construction_seconds = construction_timer.ElapsedSeconds();
  if (construction_trip.has_value()) {
    solution.termination_reason = *construction_trip;
  }
  EndConstruction(ctx, *best, &solution);

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

  return Constructed{std::move(*best), std::move(solution)};
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
