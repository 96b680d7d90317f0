#include "core/construction/region_growing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace emp {

namespace {

/// Orders areas per the configured pickup criterion. Ascending/descending
/// sort by the primary AVG attribute (falling back to area id when no AVG
/// constraint exists).
void OrderAreas(const BoundConstraints& bound, PickupOrder order, Rng* rng,
                std::vector<int32_t>* areas) {
  switch (order) {
    case PickupOrder::kRandom:
      rng->Shuffle(areas);
      return;
    case PickupOrder::kAscending:
    case PickupOrder::kDescending: {
      if (bound.centrality_indices().empty()) {
        std::sort(areas->begin(), areas->end());
      } else {
        const int ci = bound.centrality_indices().front();
        std::stable_sort(areas->begin(), areas->end(),
                         [&](int32_t a, int32_t b) {
                           return bound.ValueOf(ci, a) < bound.ValueOf(ci, b);
                         });
      }
      if (order == PickupOrder::kDescending) {
        std::reverse(areas->begin(), areas->end());
      }
      return;
    }
  }
}

/// Classification of an area against the centrality (AVG) constraints:
/// 0 = inside every AVG range, -1 = below a violated range, +1 = above.
/// With no AVG constraints every area classifies as 0 (§V-D).
int CentralityClass(const BoundConstraints& bound, int32_t area) {
  for (int ci : bound.centrality_indices()) {
    const Constraint& c = bound.constraint(ci);
    const double v = bound.ValueOf(ci, area);
    if (v < c.lower) return -1;
    if (v > c.upper) return +1;
  }
  return 0;
}

bool CentralitySatisfied(const BoundConstraints& bound,
                         const RegionStats& stats) {
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateValue(ci))) {
      return false;
    }
  }
  return true;
}

bool CentralityOkAfterAdd(const BoundConstraints& bound,
                          const RegionStats& stats, int32_t area) {
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateAfterAdd(ci, area))) {
      return false;
    }
  }
  return true;
}

bool ExtremaSatisfied(const BoundConstraints& bound,
                      const RegionStats& stats) {
  for (int ci : bound.extrema_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateValue(ci))) {
      return false;
    }
  }
  return true;
}

/// True when merging regions `a` and `b` keeps every non-counting
/// constraint satisfied (counting violations are Step 3's job).
bool NonCountingOkAfterMerge(const BoundConstraints& bound,
                             const RegionStats& a, const RegionStats& b) {
  for (int ci : bound.extrema_indices()) {
    if (!bound.constraint(ci).Contains(a.AggregateAfterMerge(ci, b))) {
      return false;
    }
  }
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(a.AggregateAfterMerge(ci, b))) {
      return false;
    }
  }
  return true;
}

/// Algorithm 1's neighbor-selection rule, generalized to open-ended
/// ranges: when the region average sits below the range, only areas valued
/// beyond the opposite (upper) bound can pull it inside fast enough, and
/// symmetrically above. With an open opposite bound we accept any area
/// strictly beyond the violated bound.
bool PullsAverageInside(const Constraint& c, double region_avg, double v) {
  if (region_avg < c.lower) {
    return c.upper != kNoUpperBound ? v > c.upper : v > c.lower;
  }
  if (region_avg > c.upper) {
    return c.lower != kNoLowerBound ? v < c.lower : v < c.upper;
  }
  return false;
}

/// Substep 2.1: initialize regions from seed areas. In-range seeds become
/// singleton regions; below/above-range seeds grow via Algorithm 1. On
/// supervisor trip the in-flight Algorithm-1 region (never yet satisfying
/// centrality) is reverted, so every committed region stays feasible.
void InitializeRegions(const BoundConstraints& bound,
                       const SeedingResult& seeding,
                       const SolverOptions& options, Rng* rng,
                       Partition* partition, RegionGrowingStats* stats,
                       PhaseSupervisor* supervisor, GrowthScratch* scratch) {
  std::vector<int32_t> ordered = seeding.seeds;
  OrderAreas(bound, options.pickup_order, rng, &ordered);

  std::vector<int32_t> off_range;  // unassigned_low ∪ unassigned_high
  for (int32_t a : ordered) {
    if (supervisor != nullptr && supervisor->Check()) return;
    if (CentralityClass(bound, a) == 0) {
      const int32_t rid = partition->CreateRegion();
      partition->Assign(a, rid);
      ++stats->regions_from_avg_seeds;
    } else {
      off_range.push_back(a);
    }
  }

  // Algorithm 1: grow a temporary region around each off-range seed by
  // repeatedly absorbing opposite-extreme unassigned neighbors until the
  // averages land inside every AVG range; revert on dead ends.
  const int primary =
      bound.centrality_indices().empty() ? -1
                                         : bound.centrality_indices().front();
  for (int32_t a : off_range) {
    if (partition->RegionOf(a) != -1) continue;  // Absorbed earlier.
    const int32_t rid = partition->CreateRegion();
    partition->Assign(a, rid);
    bool committed = false;
    while (true) {
      if (supervisor != nullptr && supervisor->Check()) break;
      const RegionStats& rs = partition->region(rid).stats;
      if (CentralitySatisfied(bound, rs)) {
        committed = true;
        break;
      }
      const Constraint& c = bound.constraint(primary);
      const double avg = rs.AggregateValue(primary);
      int32_t pick = -1;
      UnassignedNeighborsInto(*partition, rid, scratch);
      for (int32_t nb : scratch->frontier) {
        if (PullsAverageInside(c, avg, bound.ValueOf(primary, nb))) {
          pick = nb;
          break;
        }
      }
      if (pick == -1) break;
      partition->Assign(pick, rid);
    }
    if (committed) {
      ++stats->regions_from_merging;
    } else {
      partition->DissolveRegion(rid);
      ++stats->algorithm1_reverts;
    }
    if (supervisor != nullptr && supervisor->tripped()) return;
  }
}

/// Substep 2.2's work list. Both rounds sweep `order` front to back and
/// skip assigned areas. An area is never unassigned during 2.2, so a
/// skipped entry stays skipped: `pending` keeps only the entries still
/// unassigned, each with its position in `order`, and the supervisor is
/// charged for the dropped ones in bulk exactly as if each were visited.
struct EnclaveSweep {
  struct Entry {
    int32_t pos;        // index in `order`
    int32_t failed_at;  // `clock` when round 1 last rejected it, or -1
  };

  EnclaveSweep(const std::vector<int32_t>& order_in, int32_t num_region_slots)
      : order(order_in),
        region_stamp(static_cast<size_t>(num_region_slots), 0) {
    pending.reserve(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      pending.push_back({static_cast<int32_t>(i), -1});
    }
  }

  int32_t AreaOf(const Entry& e) const {
    return order[static_cast<size_t>(e.pos)];
  }

  /// Starts a pass: drops the entries assigned since the last one.
  void BeginPass(const Partition& partition) {
    std::erase_if(pending, [&](const Entry& e) {
      return partition.RegionOf(AreaOf(e)) != -1;
    });
    charged = 0;
  }

  /// Charges the order entries up to and including position `pos` (pass
  /// end when `pos` is the last position). True when the supervisor trips.
  bool ChargeThrough(PhaseSupervisor* supervisor, int64_t pos) {
    const int64_t n = pos + 1 - charged;
    charged = pos + 1;
    return supervisor != nullptr && supervisor->CheckMany(n).has_value();
  }

  /// Charges the rest of the pass. True when the supervisor trips.
  bool ChargeToEnd(PhaseSupervisor* supervisor) {
    return ChargeThrough(supervisor, static_cast<int64_t>(order.size()) - 1);
  }

  /// Region `rid` gained an area or a merged region.
  void Stamp(int32_t rid) { region_stamp[static_cast<size_t>(rid)] = ++clock; }

  const std::vector<int32_t>& order;
  std::vector<Entry> pending;
  int64_t charged = 0;
  // A region's stats change only when it gains, and each gain stamps it
  // with the next clock value (at most one tick per area assigned in 2.2).
  // An area round 1 rejected at clock t would be rejected again by every
  // region stamped at or before t.
  std::vector<int32_t> region_stamp;
  int32_t clock = 0;
};

/// Substep 2.2 round 1: sweep unassigned areas into adjacent regions
/// whenever the addition keeps every AVG constraint satisfied; repeat to a
/// fixpoint because each assignment can unlock neighbors.
bool AssignEnclavesRound1(const BoundConstraints& bound, EnclaveSweep* sweep,
                          Partition* partition, RegionGrowingStats* stats,
                          PhaseSupervisor* supervisor,
                          GrowthScratch* scratch) {
  bool any_change = false;
  bool changed = true;
  while (changed) {
    changed = false;
    sweep->BeginPass(*partition);
    for (EnclaveSweep::Entry& e : sweep->pending) {
      if (sweep->ChargeThrough(supervisor, e.pos)) return any_change;
      const int32_t a = sweep->AreaOf(e);
      partition->NeighborRegionsOfAreaInto(a, &scratch->regions);
      bool assigned = false;
      for (int32_t rid : scratch->regions) {
        if (sweep->region_stamp[static_cast<size_t>(rid)] <= e.failed_at) {
          continue;  // Unchanged since it last rejected this area.
        }
        if (CentralityOkAfterAdd(bound, partition->region(rid).stats, a)) {
          partition->Assign(a, rid);
          sweep->Stamp(rid);
          ++stats->round1_assignments;
          assigned = true;
          break;
        }
      }
      if (assigned) {
        changed = true;
        any_change = true;
      } else {
        e.failed_at = sweep->clock;
      }
    }
    if (sweep->ChargeToEnd(supervisor)) return any_change;
  }
  return any_change;
}

/// Substep 2.2 round 2: an off-range enclave `a` that no single region can
/// absorb may fit the union of two adjacent regions — per the paper, try
/// merging one of `a`'s neighbor regions R with one of R's own neighbor
/// regions and test whether R ∪ R2 ∪ {a} satisfies every AVG range.
///
/// `merge_budget` caps how many round-2 merges any single region may
/// accumulate (the paper's merge limit, "set to prevent the formation of
/// oversized regions"): merging two regions costs the union the sum of
/// their counters plus one, and unions over the budget are skipped.
/// Without this cap a single blob region chains merges across enclaves and
/// swallows the entire map (p collapses to 1 on the paper's hard 3k±1k
/// range). `merge_count` is indexed by region id and covers every region
/// slot (no region is created after InitializeRegions).
bool AssignEnclavesRound2(const BoundConstraints& bound, EnclaveSweep* sweep,
                          int merge_budget, std::vector<int>* merge_count,
                          Partition* partition, RegionGrowingStats* stats,
                          PhaseSupervisor* supervisor,
                          GrowthScratch* scratch) {
  const auto& centrality = bound.centrality_indices();
  std::vector<int>& count = *merge_count;
  assert(count.size() == static_cast<size_t>(partition->NumRegionSlots()));

  bool any_change = false;
  sweep->BeginPass(*partition);
  for (const EnclaveSweep::Entry& e : sweep->pending) {
    if (sweep->ChargeThrough(supervisor, e.pos)) return any_change;
    const int32_t a = sweep->AreaOf(e);
    bool assigned = false;
    partition->NeighborRegionsOfAreaInto(a, &scratch->regions);
    for (int32_t rid : scratch->regions) {
      if (assigned) break;
      // A spent budget puts every union with `rid` over it.
      if (count[static_cast<size_t>(rid)] >= merge_budget) continue;
      const RegionStats& rs1 = partition->region(rid).stats;
      partition->NeighborRegionsOfInto(rid, &scratch->regions2);
      for (int32_t r2 : scratch->regions2) {
        const int merged_cost = count[static_cast<size_t>(rid)] +
                                count[static_cast<size_t>(r2)] + 1;
        if (merged_cost > merge_budget) continue;
        const RegionStats& rs2 = partition->region(r2).stats;
        bool ok = true;
        for (size_t k = 0; k < centrality.size() && ok; ++k) {
          const int ci = centrality[k];
          const Constraint& c = bound.constraint(ci);
          double avg = (rs1.RawSum(ci) + rs2.RawSum(ci) +
                        bound.ValueOf(ci, a)) /
                       (rs1.count() + rs2.count() + 1.0);
          ok = c.Contains(avg);
        }
        if (ok) {
          partition->MergeRegions(rid, r2);
          count[static_cast<size_t>(rid)] = merged_cost;
          ++stats->round2_merges;
          partition->Assign(a, rid);
          sweep->Stamp(rid);
          ++stats->round2_assignments;
          assigned = true;
          any_change = true;
          break;
        }
      }
    }
  }
  sweep->ChargeToEnd(supervisor);
  return any_change;
}

/// Substep 2.3: combine regions until each satisfies every extrema
/// constraint; dissolve the ones that cannot be fixed. The dissolve pass
/// runs even after a supervisor trip — it is what guarantees the partition
/// stays feasible when the merge loop is cut short.
void CombineForExtrema(const BoundConstraints& bound, Partition* partition,
                       RegionGrowingStats* stats, PhaseSupervisor* supervisor,
                       GrowthScratch* scratch) {
  if (!bound.has_extrema()) return;
  bool changed = true;
  while (changed && !(supervisor != nullptr && supervisor->tripped())) {
    changed = false;
    partition->AliveRegionIdsInto(&scratch->sweep);
    for (int32_t rid : scratch->sweep) {
      if (supervisor != nullptr && supervisor->Check()) break;
      if (!partition->IsAlive(rid) || partition->region(rid).size() == 0) {
        continue;
      }
      if (ExtremaSatisfied(bound, partition->region(rid).stats)) continue;
      partition->NeighborRegionsOfInto(rid, &scratch->regions);
      for (int32_t nb : scratch->regions) {
        if (NonCountingOkAfterMerge(bound, partition->region(rid).stats,
                                    partition->region(nb).stats)) {
          partition->MergeRegions(rid, nb);
          ++stats->extrema_merges;
          changed = true;
          break;
        }
      }
    }
  }
  // Dead ends: regions that still miss an extrema seed go back to the
  // unassigned pool.
  partition->AliveRegionIdsInto(&scratch->sweep);
  for (int32_t rid : scratch->sweep) {
    if (!ExtremaSatisfied(bound, partition->region(rid).stats)) {
      partition->DissolveRegion(rid);
      ++stats->regions_dissolved;
    }
  }
}

}  // namespace

Status GrowRegions(const SeedingResult& seeding, const SolverOptions& options,
                   Rng* rng, Partition* partition,
                   RegionGrowingStats* stats_out, PhaseSupervisor* supervisor,
                   GrowthScratch* scratch) {
  if (partition == nullptr || rng == nullptr) {
    return Status::InvalidArgument("GrowRegions: null partition or rng");
  }
  if (partition->NumRegions() != 0) {
    return Status::FailedPrecondition(
        "GrowRegions requires an empty partition");
  }
  RegionGrowingStats local_stats;
  RegionGrowingStats* stats = stats_out != nullptr ? stats_out : &local_stats;
  GrowthScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  const BoundConstraints& bound = partition->bound();
  const auto interrupted = [supervisor] {
    return supervisor != nullptr && supervisor->tripped().has_value();
  };

  // Substep 2.1 — region initialization from seeds.
  InitializeRegions(bound, seeding, options, rng, partition, stats,
                    supervisor, scratch);

  // Substep 2.2 — enclave assignment. Round-2 merges can unlock new
  // round-1 assignments, so alternate until neither makes progress.
  if (!interrupted()) {
    std::vector<int32_t> order = partition->UnassignedAreas();
    OrderAreas(bound, options.pickup_order, rng, &order);
    EnclaveSweep sweep(order, partition->NumRegionSlots());
    AssignEnclavesRound1(bound, &sweep, partition, stats, supervisor, scratch);
    if (bound.has_centrality() && !interrupted()) {
      // Per-region round-2 merge budget use.
      std::vector<int> merge_count(
          static_cast<size_t>(partition->NumRegionSlots()), 0);
      while (AssignEnclavesRound2(bound, &sweep, options.avg_merge_limit,
                                  &merge_count, partition, stats, supervisor,
                                  scratch)) {
        if (!AssignEnclavesRound1(bound, &sweep, partition, stats, supervisor,
                                  scratch)) {
          break;
        }
        if (interrupted()) break;
      }
    }
  }

  // Substep 2.3 — every region must satisfy all extrema constraints. Runs
  // even when interrupted: its dissolve pass is the best-effort finalizer
  // that guarantees the returned partition is feasible.
  CombineForExtrema(bound, partition, stats, supervisor, scratch);
  return Status::OK();
}

}  // namespace emp
