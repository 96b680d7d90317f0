#ifndef EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_
#define EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace emp {

/// Snapshot of the raw area -> region assignment, used by the local-search
/// phases (Tabu and simulated annealing) to remember the best partition
/// seen so it can be restored on return.
inline std::vector<int32_t> SnapshotAssignment(const Partition& partition) {
  std::vector<int32_t> out(static_cast<size_t>(partition.num_areas()));
  for (int32_t a = 0; a < partition.num_areas(); ++a) {
    out[static_cast<size_t>(a)] = partition.RegionOf(a);
  }
  return out;
}

/// Restores a snapshot taken during the same search (the snapshot's region
/// ids must still be alive). Single pass: each diverging area is moved
/// directly to its saved region, so no region is ever transiently emptied
/// and every region's RegionStats is updated at most once per area.
inline void RestoreAssignment(const std::vector<int32_t>& saved,
                              Partition* partition) {
  for (int32_t a = 0; a < partition->num_areas(); ++a) {
    const int32_t want = saved[static_cast<size_t>(a)];
    const int32_t have = partition->RegionOf(a);
    if (want == have) continue;
    if (have == -1) {
      partition->Assign(a, want);
    } else if (want == -1) {
      partition->Unassign(a);
    } else {
      partition->Move(a, want);
    }
  }
}

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_SNAPSHOT_H_
