#ifndef EMP_CORE_CONSTRUCTION_UNIFIED_GROWTH_H_
#define EMP_CORE_CONSTRUCTION_UNIFIED_GROWTH_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "core/construction/growth_scratch.h"
#include "core/construction/seeding.h"
#include "core/partition.h"
#include "core/run_context.h"
#include "core/solver_options.h"

namespace emp {

/// Counters reported by the unified-growth strategy.
struct UnifiedGrowthStats {
  int64_t regions_committed = 0;
  int64_t regions_abandoned = 0;
  int64_t areas_absorbed = 0;
  int64_t leftover_assignments = 0;
};

/// Single-step construction baseline: grow one region at a time from a
/// seed area, greedily absorbing whichever unassigned neighbor most
/// reduces the region's total (normalized) constraint violation, commit
/// when every constraint holds, abandon on dead ends; finally sweep
/// leftovers into adjacent regions when that preserves satisfaction.
///
/// This is the "obvious" alternative to FaCT's three-step construction
/// and exists as an ablation baseline (bench/ablation_strategy): it
/// handles all enriched constraint types but, lacking FaCT's
/// family-by-family decomposition, wastes seeds and overshoots. No
/// solver option selects it; the bench and its tests call it directly.
///
/// `supervisor` (optional) is polled per absorb and per leftover sweep
/// step; a trip abandons the in-flight (still violating) region and
/// returns the committed-regions-only partition, which is feasible by
/// construction.
///
/// `scratch` (optional) is the reusable construction arena; falls back to
/// a local scratch when null.
Status GrowUnified(const SeedingResult& seeding, const SolverOptions& options,
                   Rng* rng, Partition* partition,
                   UnifiedGrowthStats* stats = nullptr,
                   PhaseSupervisor* supervisor = nullptr,
                   GrowthScratch* scratch = nullptr);

/// Total normalized violation of a region's stats against every
/// constraint: 0 iff all satisfied; each violated bound contributes its
/// relative breach. Exposed for tests and the growth heuristic.
double ConstraintViolation(const BoundConstraints& bound,
                           const RegionStats& stats);

}  // namespace emp

#endif  // EMP_CORE_CONSTRUCTION_UNIFIED_GROWTH_H_
