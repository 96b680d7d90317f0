// Ablation — FaCT's three-step construction vs single-step unified
// violation-descent growth on increasingly rich constraint sets (2k
// dataset, construction only). Measured trade-off: the unified baseline
// reaches comparable (even slightly higher) p by growing exactly-feasible
// regions with minimal overshoot, but strands several percent of the map
// in U0 on multi-constraint queries; FaCT's enclave machinery covers
// nearly everything (§V-B objective (c)).

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/construction/unified_growth.h"
#include "core/feasibility.h"
#include "harness/experiment.h"
#include "harness/table.h"

namespace {

using namespace emp;

/// Unified growth on FaCT's seeding, one attempt on the RNG stream FaCT's
/// first construction iteration uses; timed like FaCT's construction
/// (seeding plus growth).
bench::RunResult RunUnified(const AreaSet& areas,
                            const std::vector<Constraint>& query,
                            uint64_t seed) {
  bench::RunResult out;
  out.infeasible = true;
  auto bound = BoundConstraints::Create(&areas, query);
  if (!bound.ok()) return out;
  auto feasibility = CheckFeasibility(*bound);
  if (!feasibility.ok() || !feasibility->feasible) return out;
  Stopwatch timer;
  const SeedingResult seeding = SelectSeeds(*bound, *feasibility);
  Partition partition(&*bound);
  for (int32_t a : feasibility->invalid_areas) partition.Deactivate(a);
  Rng rng(seed);
  if (!GrowUnified(seeding, {}, &rng, &partition).ok()) return out;
  out.infeasible = false;
  out.construction_seconds = timer.ElapsedSeconds();
  Solution solution;
  FillAssignmentFromPartition(partition, &solution);
  out.p = solution.p();
  out.unassigned = solution.num_unassigned();
  return out;
}

}  // namespace

int main() {
  using namespace emp::bench;
  Banner("Ablation", "FaCT 3-step vs unified single-step construction (2k)");

  DatasetCache cache;
  const AreaSet& areas = cache.Get("2k");

  TablePrinter table("", {"combo", "strategy", "p", "unassigned",
                          "construction(s)"});
  for (const std::string& combo : {"S", "M", "MA", "MAS"}) {
    const std::vector<Constraint> query = BuildCombo(combo, ComboRanges{});
    SolverOptions options = DefaultBenchOptions();
    options.run_local_search = false;
    for (int unified = 0; unified <= 1; ++unified) {
      RunResult r = unified ? RunUnified(areas, query, options.seed)
                            : RunFact(areas, query, options);
      table.AddRow({combo, unified ? "unified" : "fact",
                    std::to_string(r.p), std::to_string(r.unassigned),
                    Secs(r.construction_seconds)});
    }
  }
  EmitTable("ablation_strategy", table);
  return 0;
}
