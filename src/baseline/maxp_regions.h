#ifndef EMP_BASELINE_MAXP_REGIONS_H_
#define EMP_BASELINE_MAXP_REGIONS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/partition.h"
#include "core/run_context.h"
#include "core/solution.h"
#include "core/solver.h"
#include "core/solver_options.h"
#include "data/area_set.h"

namespace emp {

/// The classic max-p-regions solver (Duque, Anselin & Rey 2012; efficient
/// variant of Wei, Rey & Knaap 2020) used as the `MP` baseline in the
/// paper's Table IV / Fig. 12. It supports exactly the original problem:
/// a single SUM(attribute) >= threshold constraint, every area assigned
/// (no U0), single- or multi-component maps.
///
/// Construction: repeatedly seed a region at a random unassigned area and
/// greedily absorb unassigned neighbors until the threshold is met;
/// leftover areas (enclaves) are attached to the adjacent region with the
/// most similar dissimilarity profile. Several construction iterations keep
/// the partition with the largest p. Only construction is its own: the
/// feasibility and tabu phases and the run bracket are FaCT's
/// (core/solve_phases.h), so a run writes the same journal, curve, spans
/// and run-level metrics as a FaCT run.
class MaxPRegionsSolver : public Solver {
 public:
  /// Validating named constructor: checks `options`, requires a non-null
  /// area set and an existing numeric `attribute`, and rejects a
  /// non-positive threshold — so bad input fails HERE with
  /// kInvalidArgument instead of deep inside Solve(). Prefer this over the
  /// lazy constructor below.
  static Result<MaxPRegionsSolver> Create(const AreaSet* areas,
                                          std::string attribute,
                                          double threshold,
                                          SolverOptions options = {});

  /// Deprecated-in-docs lazy constructor: defers validation to Solve().
  /// `areas` must outlive the solver.
  MaxPRegionsSolver(const AreaSet* areas, std::string attribute,
                    double threshold, SolverOptions options = {});

  /// Solve() (inherited) is Solve(MakeRunContext(options())), so
  /// time_budget_ms / max_evaluations are honored.
  using Solver::Solve;

  /// Runs feasibility, construction and Tabu under an explicit supervision
  /// context. Infeasible when the dataset total of `attribute` is below the
  /// threshold. On a trip the partial partition is finalized (in-progress
  /// under-threshold region dissolved) and returned with
  /// Solution::termination_reason set. Construction checkpoints use phase
  /// "maxp"; the feasibility and Tabu phases keep their own names.
  Result<Solution> Solve(const RunContext& ctx) override;

  const SolverOptions& options() const override { return options_; }
  std::string_view name() const override { return "maxp"; }
  /// The one SUM(attribute) >= threshold constraint this baseline solves.
  const std::vector<Constraint>& constraints() const override {
    return constraints_;
  }

 private:
  /// Best-of-k greedy construction into `out` (empty, bound to the SUM
  /// constraint), closed with EndConstruction.
  void Construct(const RunContext& ctx, Partition* out,
                 Solution* solution) const;

  const AreaSet* areas_;
  std::string attribute_;
  double threshold_;
  SolverOptions options_;
  std::vector<Constraint> constraints_;
};

}  // namespace emp

#endif  // EMP_BASELINE_MAXP_REGIONS_H_
