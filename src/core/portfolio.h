#ifndef EMP_CORE_PORTFOLIO_H_
#define EMP_CORE_PORTFOLIO_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/run_context.h"
#include "core/solution.h"
#include "core/solver_options.h"
#include "data/area_set.h"

namespace emp {

/// What one replica contributed to the reduction. The portfolio's
/// deterministic reduction rule is a total order over these scores:
/// highest p wins, heterogeneity (ascending) breaks p ties, and the
/// replica index (ascending) breaks exact heterogeneity ties — so for a
/// fixed seed and replica count the winner is a pure function of the
/// instance, independent of thread count and completion order.
struct ReplicaScore {
  int32_t p = -1;
  double heterogeneity = 0.0;
  int32_t replica = 0;
};

/// True when `a` beats `b` under the reduction rule above.
bool BeatsInReduction(const ReplicaScore& a, const ReplicaScore& b);

/// The seed replica `replica` solves with: `base_seed` plus a fixed
/// stride per replica. Replica 0 keeps the base seed, so a 1-replica
/// portfolio explores the same constructions as a plain solve.
uint64_t ReplicaSeed(uint64_t base_seed, int32_t replica);

/// Counters from the last PortfolioSolver::Solve(), for reports and
/// tests, computed after the worker pool joins. Without supervision
/// (deadline, budget, target_p, cancellation) every field but `threads`
/// is thread-count invariant.
struct PortfolioStats {
  /// Replicas requested (SolverOptions::portfolio_replicas).
  int32_t replicas = 0;
  /// Replicas that actually began solving (< replicas when a target_p
  /// hit stopped the queue early).
  int32_t replicas_started = 0;
  /// Replicas cut short by cooperative cancellation (target_p reached
  /// or the caller's token), counted by their termination verdict.
  int32_t replicas_cancelled = 0;
  /// Replicas whose local-search phase was skipped because their
  /// constructed p is below the largest any replica constructed.
  int32_t tabu_skipped = 0;
  /// Index of the replica whose solution was returned; -1 if none ran.
  int32_t winning_replica = -1;
  /// Worker threads actually used.
  int32_t threads = 0;
  /// Final p per replica, -1 for replicas that never started.
  std::vector<int32_t> replica_p;
};

/// Multi-start solver portfolio (DESIGN.md §10): runs
/// `options.portfolio_replicas` independent FaCT replicas, each on a
/// derived RNG stream, in two passes over a ticket-counter worker pool
/// of `options.portfolio_threads` threads. Pass 1 runs feasibility and
/// construction for every replica; pass 2 runs tabu on exactly the
/// replicas whose constructed p is the largest, since tabu keeps p fixed
/// and the reduction (see ReplicaScore) orders by p first. Replicas
/// share the caller's deadline and evaluation budget through
/// per-replica child RunContexts; each also has its own cancellation
/// token so stragglers can be cancelled cooperatively once
/// `options.portfolio_target_p` is reached.
///
/// Determinism: without a deadline / evaluation budget / target_p /
/// external cancellation, the returned solution is bit-identical for a
/// fixed (seed, portfolio_replicas) at any portfolio_threads — the
/// construction thread-count-invariance guarantee extended to the whole
/// solve (pinned by portfolio_test, raced under TSan). Supervised runs
/// degrade best-effort exactly like a single FactSolver solve.
class PortfolioSolver {
 public:
  /// Validating named constructor; same contract as FactSolver::Create.
  static Result<PortfolioSolver> Create(const AreaSet* areas,
                                        std::vector<Constraint> constraints,
                                        SolverOptions options = {});

  /// Lazy constructor; all validation happens in Solve(). `areas` must
  /// outlive the solver.
  PortfolioSolver(const AreaSet* areas, std::vector<Constraint> constraints,
                  SolverOptions options = {});

  /// Runs the portfolio under MakeRunContext(options()).
  Result<Solution> Solve();

  /// Runs the portfolio under an explicit supervision context. Error
  /// semantics match FactSolver::Solve: kInfeasible / kInvalidArgument
  /// are errors (a failing replica's error is reported by the lowest
  /// replica index, deterministically); supervision trips degrade into a
  /// best-effort Solution tagged with the winner's termination reason.
  Result<Solution> Solve(const RunContext& ctx);

  const SolverOptions& options() const { return options_; }

  /// Stats from the most recent Solve() on this object.
  const PortfolioStats& stats() const { return stats_; }

 private:
  const AreaSet* areas_;
  std::vector<Constraint> constraints_;
  SolverOptions options_;
  PortfolioStats stats_;
};

}  // namespace emp

#endif  // EMP_CORE_PORTFOLIO_H_
