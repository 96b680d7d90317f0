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

/// Neighborhood-maintenance strategy for the Tabu phase (DESIGN.md §8).
/// Both engines visit candidates in the same canonical (delta, area, to)
/// order and therefore produce bit-identical move sequences for the same
/// seed — pinned by tabu_golden_test.
enum class TabuEngine {
  /// Candidates persist across iterations; after a move only candidates
  /// incident to the two mutated regions' boundaries are re-scored, and
  /// donor contiguity is answered from a per-region articulation-point
  /// cache instead of one BFS per candidate. Default.
  kIncremental,
  /// Re-enumerates and re-scores the whole neighborhood every iteration
  /// and runs the BFS per tried candidate — the pre-incremental behavior,
  /// kept as the reference for golden trajectory tests and ablations.
  kFullRebuild,
};

/// Construction strategy for Phase 2.
enum class ConstructionStrategy {
  /// The paper's three-step construction (filter/seed → region growing →
  /// monotonic adjustments). Default.
  kFact,
  /// Single-step greedy violation-descent growth — an ablation baseline
  /// (see core/construction/unified_growth.h).
  kUnifiedGrowth,
};

/// Tuning knobs for the FaCT algorithm. Defaults mirror the paper's
/// experimental setup (§VII-A): random pickup, AVG merge limit 3, tabu
/// tenure 10, max moves without improvement = dataset size.
struct SolverOptions {
  ConstructionStrategy construction_strategy = ConstructionStrategy::kFact;

  /// Construction runs this many independent iterations and keeps the
  /// partition with the highest p (§V-B). Must be >= 1.
  int construction_iterations = 3;

  /// Retry attempts per failed construction iteration: an iteration whose
  /// construction step errors out is re-run with a derived RNG stream
  /// instead of aborting the whole solve. 0 disables retries.
  int construction_retries = 2;

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

  /// Neighborhood maintenance strategy (see TabuEngine). Both engines
  /// yield the same move sequence; kFullRebuild exists for verification
  /// and ablation.
  TabuEngine tabu_engine = TabuEngine::kIncremental;

  /// Debug flag: cross-check every cached donor-contiguity verdict against
  /// the exact BFS when its candidate is scored; a disagreement aborts the
  /// search with an internal error. Off by default (it re-adds the BFS the
  /// cache exists to skip).
  bool tabu_verify_connectivity_cache = false;

  /// Record every applied move into TabuResult::trajectory. Used by the
  /// golden trajectory tests; off by default (the vector would grow with
  /// the move count).
  bool tabu_record_trajectory = false;

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

  /// Let replicas consult the shared incumbent after construction and
  /// skip their local-search phase when their p is strictly below the
  /// incumbent's (they can no longer win the reduction, which orders by
  /// p first). Winner-preserving, so the returned solution is unchanged;
  /// only wasted tabu work is cut. On by default.
  bool portfolio_share_incumbent = true;

  /// Early-exit target: once any replica's construction reaches this p,
  /// the portfolio cooperatively cancels the remaining replicas and
  /// returns the best result found. -1 disables. Like time budgets, a
  /// target makes the outcome timing-dependent (the thread-count
  /// invariance guarantee applies to untargeted, unbudgeted solves).
  int32_t portfolio_target_p = -1;

  /// Serve the live observability plane (obs::HttpServer: /healthz,
  /// /metrics, /metrics.json, /progress) on 127.0.0.1:serve_port for the
  /// duration of the solve. 0 binds an ephemeral port; -1 (default)
  /// disables the server. Honored by the no-context Solve() entry points
  /// — callers supplying their own RunContext attach their own sinks and
  /// server (as emp_cli does). Serving never perturbs the solve: a fixed
  /// seed yields a bit-identical solution with and without it.
  int serve_port = -1;

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
