#ifndef EMP_BASELINE_SKATER_H_
#define EMP_BASELINE_SKATER_H_

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

/// A SKATER-style tree-partitioning regionalizer (Assunção et al. 2006;
/// the "tree partition" construction family the paper's related work
/// cites), adapted to the max-p objective: build a minimum spanning tree
/// of the contiguity graph weighted by dissimilarity |d_i − d_j|, then cut
/// it bottom-up into the maximum number of subtrees whose SUM(attribute)
/// meets the threshold; leftovers attach to their parent-side region. Only
/// construction is its own: the feasibility and Tabu phases and the run
/// bracket are FaCT's (core/solve_phases.h), so a run writes the same
/// journal, curve, spans and run-level metrics as a FaCT run.
///
/// Serves as a second baseline next to MP-regions for the single-SUM
/// query; like MP it supports no enriched constraints and leaves no U0 on
/// feasible connected inputs.
class SkaterMaxPSolver : public Solver {
 public:
  /// Validating named constructor: checks `options`, requires a non-null
  /// area set and an existing numeric `attribute`, and rejects a
  /// non-positive threshold — failing HERE with kInvalidArgument instead
  /// of deep inside Solve(). Prefer this over the lazy constructor below.
  static Result<SkaterMaxPSolver> Create(const AreaSet* areas,
                                         std::string attribute,
                                         double threshold,
                                         SolverOptions options = {});

  /// Deprecated-in-docs lazy constructor: defers validation to Solve().
  /// `areas` must outlive the solver.
  SkaterMaxPSolver(const AreaSet* areas, std::string attribute,
                   double threshold, SolverOptions options = {});

  /// Solve() (inherited) is Solve(MakeRunContext(options())), so
  /// time_budget_ms / max_evaluations are honored.
  using Solver::Solve;

  /// Runs feasibility, MST construction + bottom-up cutting, and Tabu
  /// under an explicit supervision context. Infeasible when a connected
  /// component's attribute total is below the threshold — those
  /// components' areas end up unassigned; fully infeasible datasets (no
  /// component can host a region) return kInfeasible. Construction
  /// checkpoints use phase "skater". Tree cutting has no incremental
  /// feasible state, so a trip before regions materialize returns the
  /// degraded empty solution (p = 0) with the verdict — never kInfeasible,
  /// which only a finished run may claim.
  Result<Solution> Solve(const RunContext& ctx) override;

  const SolverOptions& options() const override { return options_; }
  std::string_view name() const override { return "skater"; }
  /// The one SUM(attribute) >= threshold constraint this baseline solves.
  const std::vector<Constraint>& constraints() const override {
    return constraints_;
  }

 private:
  /// The tree construction into `partition` (empty, bound to the SUM
  /// constraint), closed with EndConstruction.
  Status Construct(const RunContext& ctx, Partition* partition,
                   Solution* solution) const;

  const AreaSet* areas_;
  std::string attribute_;
  double threshold_;
  SolverOptions options_;
  std::vector<Constraint> constraints_;
};

}  // namespace emp

#endif  // EMP_BASELINE_SKATER_H_
