#ifndef EMP_CORE_CONSTRUCTION_GROWTH_SCRATCH_H_
#define EMP_CORE_CONSTRUCTION_GROWTH_SCRATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace emp {

/// Reusable allocation-free scratch for the construction inner loops
/// (DESIGN.md §14). Generalizes the Partition::NeighborRegionsOfArea
/// epoch-dedup trick to area ids — marking an area and testing "seen this
/// epoch?" is O(1) with no clearing between calls — and pools the id
/// buffers (frontiers, neighbor-region lists, alive-region sweeps) so the
/// grow/adjust hot loops allocate nothing after warm-up. One scratch per
/// construction attempt: attempts may run concurrently on the worker pool,
/// so the scratch is never shared across threads.
struct GrowthScratch {
  /// Starts a fresh dedup epoch over area ids [0, num_areas).
  void BeginAreaEpoch(int32_t num_areas) {
    if (area_seen.size() < static_cast<size_t>(num_areas)) {
      area_seen.resize(static_cast<size_t>(num_areas), 0);
    }
    ++area_epoch;
    if (area_epoch == 0) {
      // Wrapped around: reset tags once per ~4 billion epochs.
      std::fill(area_seen.begin(), area_seen.end(), 0);
      area_epoch = 1;
    }
  }

  /// First sighting of `area` this epoch? Marks it seen either way.
  bool FirstSeen(int32_t area) {
    if (area_seen[static_cast<size_t>(area)] == area_epoch) return false;
    area_seen[static_cast<size_t>(area)] = area_epoch;
    return true;
  }

  /// Marked this epoch (by FirstSeen)?
  bool Seen(int32_t area) const {
    return area_seen[static_cast<size_t>(area)] == area_epoch;
  }

  std::vector<uint32_t> area_seen;
  uint32_t area_epoch = 0;

  /// Pooled id buffers. Callers within one phase must use distinct members
  /// for nested loops (e.g. iterate `sweep` while filling `regions`).
  std::vector<int32_t> frontier;
  std::vector<int32_t> regions;
  std::vector<int32_t> regions2;
  std::vector<int32_t> sweep;
  std::vector<int32_t> ring;
};

/// Unassigned active areas adjacent to region `rid`, written into
/// `scratch->frontier` in first-seen member order (identical order to the
/// previous find-over-output dedup, which was quadratic in frontier size).
inline void UnassignedNeighborsInto(const Partition& partition, int32_t rid,
                                    GrowthScratch* scratch) {
  scratch->frontier.clear();
  scratch->BeginAreaEpoch(partition.num_areas());
  const auto& graph = partition.bound().areas().graph();
  for (int32_t area : partition.region(rid).areas) {
    for (int32_t nb : graph.NeighborsOf(area)) {
      if (partition.IsActive(nb) && partition.RegionOf(nb) == -1 &&
          scratch->FirstSeen(nb)) {
        scratch->frontier.push_back(nb);
      }
    }
  }
}

}  // namespace emp

#endif  // EMP_CORE_CONSTRUCTION_GROWTH_SCRATCH_H_
