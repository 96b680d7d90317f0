#ifndef EMP_CORE_SOLVER_H_
#define EMP_CORE_SOLVER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/run_context.h"
#include "core/solution.h"
#include "core/solver_options.h"

namespace emp {

class AreaSet;

/// The common interface every regionalization solver in this repo
/// implements — FaCT (core/fact_solver.h) and the MP-regions / SKATER
/// baselines (baseline/). Callers that do not care which algorithm runs
/// (the job API, the CLI, the bench harness) hold a Solver and pick the
/// concrete type by name through CreateSolver() below.
///
/// Contract shared by all implementations:
///   - Solve(ctx) runs the whole algorithm under the supervision context:
///     deadline / cancellation / evaluation budget trips degrade into a
///     best-effort Solution tagged with Solution::termination_reason,
///     never an error; kInfeasible / kInvalidArgument remain errors.
///   - Solve() is the unsupervised convenience entry point, equivalent to
///     Solve(MakeRunContext(options())) for every implementation. Callers
///     that want live progress, a journal or a curve attach the sinks to
///     their own RunContext (and serve them, as emp solve --serve-port
///     and emp serve do).
///   - constraints() is the canonical constraint set the returned solution
///     satisfies per region — for the single-SUM baselines, the one
///     SUM(attribute) >= threshold constraint — usable directly with
///     SolutionToJson / ValidateAssignment.
class Solver {
 public:
  virtual ~Solver();

  /// Unsupervised solve; default forwards to Solve(MakeRunContext(...)).
  virtual Result<Solution> Solve();

  /// Supervised solve (see class comment for degradation semantics).
  virtual Result<Solution> Solve(const RunContext& ctx) = 0;

  /// The options this solver was created with.
  virtual const SolverOptions& options() const = 0;

  /// Registry key of the concrete algorithm ("fact", "maxp", "skater").
  virtual std::string_view name() const = 0;

  /// Canonical constraint set for validation and reporting.
  virtual const std::vector<Constraint>& constraints() const = 0;
};

/// Everything needed to instantiate any registered solver — the wire-level
/// solve request (the job API's POST /solve body deserializes into one).
/// Which fields matter depends on the solver:
///   - "fact": `constraints` and/or `query` (an S17 constraint-query
///     string, parsed with ParseConstraints and appended to `constraints`);
///   - "maxp" / "skater": `attribute` + `threshold` (single-SUM query).
struct SolverSpec {
  /// Registry key; see RegisteredSolverNames().
  std::string solver = "fact";
  /// The instance; must outlive the created solver. Never owned.
  const AreaSet* areas = nullptr;
  /// Pre-built constraints (FaCT).
  std::vector<Constraint> constraints;
  /// S17 constraint-query text (FaCT); parsed at Create time so malformed
  /// queries fail with the parser's kInvalidArgument message.
  std::string query;
  /// Baseline single-SUM query: SUM(attribute) >= threshold.
  std::string attribute;
  double threshold = -1.0;
  SolverOptions options;
};

/// Builds one solver from a spec. All registered factories validate
/// eagerly (options domain, attribute existence, query syntax), so a bad
/// spec fails HERE with kInvalidArgument / kNotFound — the job API maps
/// that directly to a 400. Unknown `spec.solver` names the known solvers
/// in the error message.
Result<std::unique_ptr<Solver>> CreateSolver(const SolverSpec& spec);

/// One factory in the registry: builds a solver from a spec.
using SolverFactory =
    std::function<Result<std::unique_ptr<Solver>>(const SolverSpec&)>;

/// Registers an additional solver under `name` (e.g. an experimental
/// algorithm in a downstream tool). "fact", "maxp", and "skater" are
/// pre-registered; re-registering an existing name is an error.
/// Thread-safe.
Status RegisterSolver(std::string name, SolverFactory factory);

/// Sorted names of every registered solver.
std::vector<std::string> RegisteredSolverNames();

}  // namespace emp

#endif  // EMP_CORE_SOLVER_H_
