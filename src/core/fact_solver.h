#ifndef EMP_CORE_FACT_SOLVER_H_
#define EMP_CORE_FACT_SOLVER_H_

#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/partition.h"
#include "core/portfolio.h"
#include "core/run_context.h"
#include "core/solution.h"
#include "core/solver.h"
#include "core/solver_options.h"
#include "data/area_set.h"

namespace emp {

/// FaCT — the three-phase EMP solver (paper §V):
///   1. Feasibility: verify a solution can exist; filter invalid areas.
///   2. Construction: Filtering & Seeding → Region Growing → Monotonic
///      Adjustments, repeated for `construction_iterations` independent
///      tries, keeping the partition with the largest p.
///   3. Local search: Tabu search minimizing heterogeneity at constant p.
///
/// Typical use:
///   EMP_ASSIGN_OR_RETURN(
///       FactSolver solver,
///       FactSolver::Create(&areas, {Constraint::Sum("TOTALPOP", 20000,
///                                                   kNoUpperBound)}));
///   EMP_ASSIGN_OR_RETURN(Solution sol, solver.Solve());
class FactSolver : public Solver {
 public:
  /// Validating named constructor: checks `options` against its documented
  /// domain, requires a non-null area set, and binds `constraints` against
  /// the areas' attribute table — so malformed input surfaces as
  /// kInvalidArgument HERE, before any time budget is spent. Prefer this
  /// over the lazy constructor below.
  static Result<FactSolver> Create(const AreaSet* areas,
                                   std::vector<Constraint> constraints,
                                   SolverOptions options = {});

  /// Deprecated-in-docs lazy constructor: defers all validation to
  /// Solve(), which re-checks everything Create() would have. Kept for
  /// callers that want an infallible object; new code should use Create().
  /// `areas` must outlive the solver.
  FactSolver(const AreaSet* areas, std::vector<Constraint> constraints,
             SolverOptions options = {});

  /// Solve() (inherited) is Solve(MakeRunContext(options())), so
  /// time_budget_ms / max_evaluations are honored.
  using Solver::Solve;

  /// Runs all three phases under an explicit supervision context
  /// (deadline, cancellation, evaluation budget, fault injection,
  /// observation sinks). Returns:
  ///   kInfeasible       — the feasibility phase proved no solution exists
  ///                       (the report is in the status message), or
  ///                       invalid areas exist and filtering is disabled;
  ///   kInvalidArgument  — malformed constraints, unknown attributes, or
  ///                       out-of-domain SolverOptions fields;
  ///   otherwise a Solution in which every region satisfies every
  ///   constraint and is spatially contiguous.
  ///
  /// Multi-start: when options().portfolio_replicas > 1, the solve
  /// delegates to PortfolioSolver (core/portfolio.h) — N independent
  /// replicas across portfolio_threads workers, reduced
  /// deterministically to one Solution.
  ///
  /// When the context trips mid-solve the phases degrade instead of
  /// erroring: the returned Solution is still feasible and contiguous —
  /// possibly with a smaller p, down to 0 — and carries the verdict in
  /// Solution::termination_reason. kInfeasible/kInvalidArgument above are
  /// still errors; supervision never masks them except that a feasibility
  /// phase cut short returns the degraded empty solution rather than
  /// claiming (in)feasibility it could not finish proving.
  Result<Solution> Solve(const RunContext& ctx) override;

  const SolverOptions& options() const override { return options_; }
  std::string_view name() const override { return "fact"; }
  const std::vector<Constraint>& constraints() const override {
    return constraints_;
  }

  /// Stats from the portfolio delegation of the most recent Solve() on
  /// this object; default-initialized when portfolio_replicas <= 1.
  const PortfolioStats& portfolio_stats() const { return portfolio_stats_; }

 private:
  /// Portfolio replicas run Construct and LocalSearch, the same steps as
  /// a plain solve, under child contexts.
  friend class PortfolioSolver;

  /// A solve after phases 1 and 2: the best constructed partition and
  /// every Solution field but the assignment (heterogeneity as built).
  struct Constructed {
    Partition partition;
    Solution solution;
  };

  /// Phases 1 and 2 (feasibility, best-of-k construction) against
  /// `bound`, which must outlive the returned partition. A feasibility
  /// phase cut short yields an empty partition and the trip verdict.
  Result<Constructed> Construct(const BoundConstraints& bound,
                                const RunContext& ctx) const;

  /// Phase 3: tabu on `run->partition` at constant p, recorded into
  /// `run->solution`. Spans and checkpoints are tagged with `worker`.
  Status LocalSearch(const RunContext& ctx, int64_t worker,
                     Constructed* run) const;

  /// Whole-run metrics, written once by the object returning the run's
  /// Solution (Solve(ctx) or PortfolioSolver::Solve), never by replicas.
  static void RecordRunMetrics(const RunContext& ctx,
                               const Solution& solution, double seconds);

  const AreaSet* areas_;
  std::vector<Constraint> constraints_;
  SolverOptions options_;
  PortfolioStats portfolio_stats_;
};

/// One-call convenience wrapper.
Result<Solution> SolveEmp(const AreaSet& areas,
                          std::vector<Constraint> constraints,
                          const SolverOptions& options = {},
                          const RunContext* ctx = nullptr);

}  // namespace emp

#endif  // EMP_CORE_FACT_SOLVER_H_
