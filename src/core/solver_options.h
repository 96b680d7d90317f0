#ifndef EMP_CORE_SOLVER_OPTIONS_H_
#define EMP_CORE_SOLVER_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "core/run_context.h"

namespace emp {

/// Order in which unassigned areas are picked up during region growing.
/// "random" is the paper's default; the ascending/descending options sort
/// by the primary AVG attribute and exist for ablation studies.
enum class PickupOrder {
  kRandom,
  kAscending,
  kDescending,
};

/// Tuning knobs for the FaCT algorithm. Defaults mirror the paper's
/// experimental setup (§VII-A): random pickup, AVG merge limit 3, tabu
/// tenure 10, max moves without improvement = dataset size.
struct SolverOptions {
  /// Construction runs this many independent iterations and keeps the
  /// partition with the highest p (§V-B). Must be >= 1.
  int construction_iterations = 3;

  /// Worker threads for the construction iterations (the paper's stated
  /// future work, §VIII: "improve the algorithm performance through
  /// parallelization"). Iterations are independent, so results are
  /// identical for any thread count; 1 = sequential.
  int construction_threads = 1;

  /// Merge-trial cap in Region Growing round 2 — "the merge limit is set to
  /// prevent the formation of oversized regions and control the runtime".
  int avg_merge_limit = 3;

  PickupOrder pickup_order = PickupOrder::kRandom;

  /// Tabu list length (tenure).
  int tabu_tenure = 10;

  /// Stop the local search after this many consecutive non-improving
  /// moves; -1 means "number of areas" (paper default).
  int64_t tabu_max_no_improve = -1;

  /// Hard cap on total Tabu iterations; -1 = no cap. Benchmarks on very
  /// large maps set this to bound runtime.
  int64_t tabu_max_iterations = -1;

  /// Run the Tabu local-search phase at all (disable to measure the
  /// construction phase alone, as several paper experiments do).
  bool run_local_search = true;

  /// Automatically filter invalid areas into U0 (the paper lets the user
  /// choose; when false, an instance with invalid areas is rejected as
  /// infeasible instead).
  bool filter_invalid_areas = true;

  /// RNG seed for pickup shuffles and tie-breaking.
  uint64_t seed = 42;

  /// Independent FaCT replicas run by the solver portfolio (DESIGN.md
  /// §10). Each replica is a full construction → local-search chain on
  /// its own derived RNG stream; the portfolio returns the best result
  /// under the deterministic reduction rule (highest p, then lowest
  /// heterogeneity, then lowest replica index). 1 = plain single solve;
  /// FactSolver::Solve() delegates to PortfolioSolver when > 1.
  int portfolio_replicas = 1;

  /// Worker threads the portfolio spreads its replicas across. Replicas
  /// run single-threaded internally (construction_threads is forced to 1
  /// per replica), so this is the solve's total parallelism. The thread
  /// count never changes the returned solution — only who runs which
  /// replica.
  int portfolio_threads = 1;

  /// Early-exit target: once any replica's construction reaches this p,
  /// the portfolio cooperatively cancels the remaining replicas, skips
  /// local search and returns the best constructed result. -1 disables. Like time budgets, a
  /// target makes the outcome timing-dependent (the thread-count
  /// invariance guarantee applies to untargeted, unbudgeted solves).
  int32_t portfolio_target_p = -1;

  /// Wall-clock budget for the whole solve in milliseconds; -1 = no limit.
  /// On expiry the solver stops at the next checkpoint and returns its
  /// best-so-far solution tagged TerminationReason::kDeadlineExceeded.
  int64_t time_budget_ms = -1;

  /// Solve-wide evaluation budget (inner-loop work units); -1 = no limit.
  /// On exhaustion the solver degrades exactly like a deadline hit, tagged
  /// TerminationReason::kBudgetExhausted.
  int64_t max_evaluations = -1;
};

/// Validates every field of `options` against its documented domain.
/// Returns kInvalidArgument naming the offending field, or OK. Called at
/// the top of FactSolver::Solve() and the baseline solvers.
Status ValidateSolverOptions(const SolverOptions& options);

/// Builds the supervision context implied by the options: a deadline from
/// time_budget_ms (the clock starts HERE, not at the first checkpoint) and
/// the solve-wide evaluation budget. Solvers' no-argument Solve() entry
/// points delegate through this; callers wanting cancellation or fault
/// injection construct their own RunContext instead.
RunContext MakeRunContext(const SolverOptions& options);

}  // namespace emp

#endif  // EMP_CORE_SOLVER_OPTIONS_H_
