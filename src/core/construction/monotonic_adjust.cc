#include "core/construction/monotonic_adjust.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace emp {

namespace {

bool BelowCountingLower(const BoundConstraints& bound,
                        const RegionStats& stats) {
  for (int ci : bound.counting_indices()) {
    if (stats.AggregateValue(ci) < bound.constraint(ci).lower) return true;
  }
  return false;
}

bool AboveCountingUpper(const BoundConstraints& bound,
                        const RegionStats& stats) {
  for (int ci : bound.counting_indices()) {
    if (stats.AggregateValue(ci) > bound.constraint(ci).upper) return true;
  }
  return false;
}

bool NonCountingOk(const BoundConstraints& bound, const RegionStats& stats) {
  for (int ci : bound.extrema_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateValue(ci))) return false;
  }
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateValue(ci))) return false;
  }
  return true;
}

/// Donor-side validity for removing `area`: the donor must keep satisfying
/// every non-counting constraint and every counting LOWER bound. A counting
/// upper-bound violation is tolerated because removal strictly improves it.
bool DonorOkAfterRemove(const BoundConstraints& bound,
                        const RegionStats& stats, int32_t area) {
  if (stats.count() <= 1) return false;
  for (int ci : bound.extrema_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateAfterRemove(ci, area))) {
      return false;
    }
  }
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateAfterRemove(ci, area))) {
      return false;
    }
  }
  for (int ci : bound.counting_indices()) {
    if (stats.AggregateAfterRemove(ci, area) < bound.constraint(ci).lower) {
      return false;
    }
  }
  return true;
}

/// Receiver-side validity for adding `area`: every non-counting constraint
/// must stay satisfied, no counting upper bound may be crossed, and at
/// least one violated counting lower bound must strictly improve.
bool ReceiverOkAfterAdd(const BoundConstraints& bound,
                        const RegionStats& stats, int32_t area) {
  for (int ci : bound.extrema_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateAfterAdd(ci, area))) {
      return false;
    }
  }
  for (int ci : bound.centrality_indices()) {
    if (!bound.constraint(ci).Contains(stats.AggregateAfterAdd(ci, area))) {
      return false;
    }
  }
  bool progress = false;
  for (int ci : bound.counting_indices()) {
    const Constraint& c = bound.constraint(ci);
    const double after = stats.AggregateAfterAdd(ci, area);
    if (after > c.upper) return false;
    if (stats.AggregateValue(ci) < c.lower &&
        after > stats.AggregateValue(ci)) {
      progress = true;
    }
  }
  return progress;
}

/// The least amount a counting aggregate can lose when one area leaves a
/// region, per constraint index: 1 for COUNT, the column minimum for SUM
/// (NaN when the column holds a NaN, which disables the test below).
std::vector<double> LeastLossPerArea(const BoundConstraints& bound) {
  std::vector<double> least(static_cast<size_t>(bound.size()), 0.0);
  for (int ci : bound.counting_indices()) {
    double m = 1.0;
    if (bound.constraint(ci).aggregate == Aggregate::kSum) {
      m = std::numeric_limits<double>::infinity();
      for (int32_t a = 0; a < bound.areas().num_areas(); ++a) {
        const double v = bound.ValueOf(ci, a);
        if (std::isnan(v)) {
          m = v;
          break;
        }
        m = std::min(m, v);
      }
    }
    least[static_cast<size_t>(ci)] = m;
  }
  return least;
}

/// False when no member can pass DonorOkAfterRemove's counting lower-bound
/// test: the aggregate after any removal is at most `value - least_loss`
/// (COUNT loses exactly one; SUM's subtraction rounds monotonically in the
/// removed value), so when that falls under the bound every member fails.
bool CanLoseAnArea(const BoundConstraints& bound, const RegionStats& stats,
                   const std::vector<double>& least_loss) {
  for (int ci : bound.counting_indices()) {
    if (stats.AggregateValue(ci) - least_loss[static_cast<size_t>(ci)] <
        bound.constraint(ci).lower) {
      return false;
    }
  }
  return true;
}

/// Whether region `rid` stays connected without its member `area`. First
/// the ring test: when the members adjacent to `area` are connected among
/// themselves, every path through `area` can detour along them, so the
/// rest of the region stays connected — regions are contiguous by
/// construction. Only when the ring is split does it take the BFS over
/// the whole region.
bool StaysConnectedWithout(const Partition& partition,
                           ConnectivityChecker* connectivity, int32_t rid,
                           int32_t area, GrowthScratch* scratch) {
  scratch->ring.clear();
  for (int32_t g : partition.bound().areas().graph().NeighborsOf(area)) {
    if (partition.RegionOf(g) == rid) scratch->ring.push_back(g);
  }
  return connectivity->IsConnected(scratch->ring) ||
         connectivity->IsConnectedWithout(partition.region(rid).areas, area);
}

/// Attempts one swap of a boundary area from some neighbor region into the
/// under-bound region `rid`. Returns the swapped area id or -1.
int32_t TrySwapInto(const BoundConstraints& bound,
                    ConnectivityChecker* connectivity, Partition* partition,
                    int32_t rid, const std::vector<char>& already_swapped,
                    const std::vector<double>& least_loss,
                    GrowthScratch* scratch) {
  const auto& graph = bound.areas().graph();
  const Region& receiver = partition->region(rid);
  // The area must border the receiver to preserve its contiguity: tag the
  // receiver's neighbors once instead of scanning each candidate's.
  scratch->BeginAreaEpoch(partition->num_areas());
  for (int32_t member : receiver.areas) {
    for (int32_t g : graph.NeighborsOf(member)) scratch->FirstSeen(g);
  }
  partition->NeighborRegionsOfInto(rid, &scratch->regions);
  for (int32_t nb : scratch->regions) {
    const Region& donor = partition->region(nb);
    if (donor.size() <= 1) continue;
    if (!CanLoseAnArea(bound, donor.stats, least_loss)) continue;
    for (int32_t area : donor.areas) {
      if (already_swapped[static_cast<size_t>(area)]) continue;
      if (!scratch->Seen(area)) continue;
      if (!ReceiverOkAfterAdd(bound, receiver.stats, area)) continue;
      if (!DonorOkAfterRemove(bound, donor.stats, area)) continue;
      if (!StaysConnectedWithout(*partition, connectivity, nb, area,
                                 scratch)) {
        continue;
      }
      partition->Move(area, rid);
      return area;
    }
  }
  return -1;
}

}  // namespace

Status AdjustForCounting(ConnectivityChecker* connectivity,
                         Partition* partition,
                         MonotonicAdjustStats* stats_out,
                         PhaseSupervisor* supervisor,
                         GrowthScratch* scratch) {
  if (connectivity == nullptr || partition == nullptr) {
    return Status::InvalidArgument("AdjustForCounting: null argument");
  }
  MonotonicAdjustStats local;
  MonotonicAdjustStats* stats = stats_out != nullptr ? stats_out : &local;
  GrowthScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  const BoundConstraints& bound = partition->bound();
  if (!bound.has_counting()) return Status::OK();
  const auto interrupted = [supervisor] {
    return supervisor != nullptr && supervisor->tripped().has_value();
  };

  // --- Phase A: swap boundary areas into under-bound regions. Each area
  // moves at most once (the paper's termination argument).
  std::vector<char> swapped(static_cast<size_t>(partition->num_areas()), 0);
  const std::vector<double> least_loss = LeastLossPerArea(bound);
  partition->AliveRegionIdsInto(&scratch->sweep);
  for (int32_t rid : scratch->sweep) {
    if (interrupted()) break;
    while (partition->IsAlive(rid) &&
           BelowCountingLower(bound, partition->region(rid).stats)) {
      if (supervisor != nullptr && supervisor->Check()) break;
      int32_t moved = TrySwapInto(bound, connectivity, partition, rid, swapped,
                                  least_loss, scratch);
      if (moved == -1) break;
      swapped[static_cast<size_t>(moved)] = 1;
      ++stats->swaps;
    }
  }

  // --- Phase B: merge regions still under a lower bound with a neighbor,
  // provided the union keeps non-counting constraints and counting upper
  // bounds intact. Repeat until no under-bound region can merge.
  //
  // Only under-bound regions win merges, so a region a pass finds at or
  // over every lower bound changes again only by losing one (it dies).
  // Later passes skip such settled regions and charge the supervisor for
  // them in bulk, so every pass still costs one checkpoint per region alive
  // at its start.
  enum : char { kOpen, kSettled, kGone };
  std::vector<char> state(static_cast<size_t>(partition->NumRegionSlots()),
                          kOpen);
  partition->AliveRegionIdsInto(&scratch->sweep);
  bool changed = !interrupted();
  while (changed && !interrupted()) {
    changed = false;
    std::erase_if(scratch->sweep, [&](int32_t rid) {
      return state[static_cast<size_t>(rid)] == kGone;
    });
    int64_t skipped = 0;
    for (int32_t rid : scratch->sweep) {
      if (state[static_cast<size_t>(rid)] != kOpen) {
        ++skipped;
        continue;
      }
      if (supervisor != nullptr && supervisor->CheckMany(skipped + 1)) break;
      skipped = 0;
      if (!BelowCountingLower(bound, partition->region(rid).stats)) {
        state[static_cast<size_t>(rid)] = kSettled;
        continue;
      }
      // Among feasible merge partners, take the SMALLEST (by the primary
      // counting attribute): greedy small steps approach the lower bound
      // with minimal overshoot, which is what keeps p near the MP-regions
      // baseline's on single-SUM queries.
      const int primary = bound.counting_indices().front();
      int32_t best_nb = -1;
      double best_size = std::numeric_limits<double>::infinity();
      partition->NeighborRegionsOfInto(rid, &scratch->regions);
      for (int32_t nb : scratch->regions) {
        const RegionStats& a = partition->region(rid).stats;
        const RegionStats& b = partition->region(nb).stats;
        bool ok = true;
        for (int ci : bound.extrema_indices()) {
          if (!bound.constraint(ci).Contains(a.AggregateAfterMerge(ci, b))) {
            ok = false;
            break;
          }
        }
        if (ok) {
          for (int ci : bound.centrality_indices()) {
            if (!bound.constraint(ci).Contains(a.AggregateAfterMerge(ci, b))) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          for (int ci : bound.counting_indices()) {
            if (a.AggregateAfterMerge(ci, b) > bound.constraint(ci).upper) {
              ok = false;
              break;
            }
          }
        }
        if (ok) {
          const Constraint& pc = bound.constraint(primary);
          double size = pc.aggregate == Aggregate::kCount
                            ? b.count()
                            : b.RawSum(primary);
          if (size < best_size) {
            best_size = size;
            best_nb = nb;
          }
        }
      }
      if (best_nb != -1) {
        partition->MergeRegions(rid, best_nb);
        state[static_cast<size_t>(best_nb)] = kGone;
        ++stats->merges;
        changed = true;
      }
    }
    if (supervisor != nullptr) supervisor->CheckMany(skipped);
  }

  // --- Phase C: evict areas from regions above a counting upper bound.
  partition->AliveRegionIdsInto(&scratch->sweep);
  for (int32_t rid : scratch->sweep) {
    if (interrupted()) break;
    while (partition->IsAlive(rid) &&
           AboveCountingUpper(bound, partition->region(rid).stats)) {
      if (supervisor != nullptr && supervisor->Check()) break;
      const Region& r = partition->region(rid);
      // Prefer evicting the area with the largest primary counting value
      // for fastest convergence toward the cap. Any member qualifies as
      // long as the remainder stays contiguous (evicted areas join U0).
      const int primary = bound.counting_indices().front();
      int32_t best = -1;
      double best_value = -1.0;
      for (int32_t area : r.areas) {
        if (!DonorOkAfterRemove(bound, r.stats, area)) continue;
        if (!StaysConnectedWithout(*partition, connectivity, rid, area,
                                   scratch)) {
          continue;
        }
        double v = bound.ValueOf(primary, area);
        if (v > best_value) {
          best_value = v;
          best = area;
        }
      }
      if (best == -1) break;
      partition->Unassign(best);
      ++stats->removals;
    }
  }

  // --- Phase D: whatever still violates any constraint is dissolved.
  // Deliberately NOT supervised: it is cheap (one pass) and is the
  // best-effort finalizer that keeps the postcondition true after a trip.
  partition->AliveRegionIdsInto(&scratch->sweep);
  for (int32_t rid : scratch->sweep) {
    const RegionStats& rs = partition->region(rid).stats;
    if (!rs.SatisfiesAll() || !NonCountingOk(bound, rs)) {
      partition->DissolveRegion(rid);
      ++stats->regions_dissolved;
    }
  }
  return Status::OK();
}

}  // namespace emp
