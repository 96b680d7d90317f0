#ifndef EMP_CORE_SOLVE_PHASES_H_
#define EMP_CORE_SOLVE_PHASES_H_

#include <cstdint>
#include <functional>

#include "common/result.h"
#include "constraints/constraint_set.h"
#include "core/partition.h"
#include "core/run_context.h"
#include "core/solution.h"
#include "core/solver_options.h"
#include "data/area_set.h"

namespace emp {

/// The solve skeleton every solver shares (paper §V): feasibility,
/// construction and tabu. Only construction differs between FaCT and the
/// MP-regions / SKATER baselines, so the other steps live here once, and
/// every solver writes the same events, spans and metrics by construction
/// (DESIGN.md §11 tabulates them).
///
/// A solver's Solve(ctx) is one RunBracketed call whose body binds the
/// constraints, opens the `solve` span, runs FeasibilityPhase, builds a
/// partition, closes construction with EndConstruction, runs TabuPhase
/// and fills the assignment.

/// The run bracket: validates `options` and `areas`, writes run_start,
/// runs `body`, writes the run-level metrics (`emp_solver_seconds`,
/// `emp_solution_p`, ...) when it succeeds, and always ends with run_end.
/// Invalid options or a null area set fail before run_start.
Result<Solution> RunBracketed(const AreaSet* areas,
                              const SolverOptions& options,
                              const RunContext& ctx,
                              const std::function<Result<Solution>()>& body);

/// Phase 1 against `bound`, under the `feasibility` span and checkpoint
/// phase; fills `solution->feasibility` and `feasibility_seconds`.
/// kInfeasible when the finished scan proves no solution exists. A trip
/// returns OK with `solution->termination_reason` set: the scan is
/// incomplete, so the caller answers with the empty partition.
Status FeasibilityPhase(const BoundConstraints& bound, const RunContext& ctx,
                        Solution* solution);

/// Closes phase 2 on the constructed `partition`: sets
/// `heterogeneity_before_local_search` and copies it into `heterogeneity`
/// and `tabu_result` (the answer until tabu runs), then writes the
/// construction's termination, if `solution->termination_reason` holds
/// one, and its phase_end, which makes p the run's first incumbent. The
/// caller has set the construction seconds and completed iterations.
void EndConstruction(const RunContext& ctx, const Partition& partition,
                     Solution* solution);

/// Phase 3: tabu on `partition` at constant p, recorded into `solution`.
/// Spans and checkpoints are tagged with `worker`. Does nothing when
/// `options.run_local_search` is off or the partition has no region.
Status TabuPhase(const SolverOptions& options, const RunContext& ctx,
                 int64_t worker, Partition* partition, Solution* solution);

}  // namespace emp

#endif  // EMP_CORE_SOLVE_PHASES_H_
