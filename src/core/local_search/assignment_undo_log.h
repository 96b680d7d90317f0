#ifndef EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_UNDO_LOG_H_
#define EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_UNDO_LOG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/partition.h"

namespace emp {

/// Puts `area` back into region `want` (-1 = unassigned) unless it is
/// already there.
inline void RestoreArea(int32_t area, int32_t want, Partition* partition) {
  const int32_t have = partition->RegionOf(area);
  if (want == have) return;
  if (have == -1) {
    partition->Assign(area, want);
  } else if (want == -1) {
    partition->Unassign(area);
  } else {
    partition->Move(area, want);
  }
}

/// Restores a raw area -> region assignment taken during the same search
/// (its region ids must still be alive). Single pass in ascending area
/// order: each diverging area is moved directly to its saved region, so no
/// region is ever transiently emptied and every region's RegionStats is
/// updated at most once per area.
inline void RestoreAssignment(const std::vector<int32_t>& saved,
                              Partition* partition) {
  for (int32_t a = 0; a < partition->num_areas(); ++a) {
    RestoreArea(a, saved[static_cast<size_t>(a)], partition);
  }
}

/// The best partition a local search (Tabu, simulated annealing) has seen,
/// kept as the region each area left first since the partition was last
/// marked best, instead of a copy of the whole assignment per improvement.
/// Rollback makes exactly the Partition calls RestoreAssignment would make
/// with a snapshot of the best partition — the areas that differ, in
/// ascending order — so member lists and RegionStats come out the same.
class AssignmentUndoLog {
 public:
  explicit AssignmentUndoLog(int32_t num_areas)
      : saved_(static_cast<size_t>(num_areas), kClean) {}

  /// Records that `area` is about to leave region `from`.
  void Record(int32_t area, int32_t from) {
    int32_t& saved = saved_[static_cast<size_t>(area)];
    if (saved != kClean) return;  // The first departure holds the best.
    saved = from;
    touched_.push_back(area);
  }

  /// The current partition is the new best: forget every recorded move.
  void MarkBest() {
    for (int32_t area : touched_) saved_[static_cast<size_t>(area)] = kClean;
    touched_.clear();
  }

  /// Returns `partition` to the partition last marked best.
  void Rollback(Partition* partition) {
    std::sort(touched_.begin(), touched_.end());
    for (int32_t area : touched_) {
      RestoreArea(area, saved_[static_cast<size_t>(area)], partition);
    }
    MarkBest();
  }

 private:
  /// Region ids are >= -1, so this marks an area unmoved since the best.
  static constexpr int32_t kClean = -2;

  std::vector<int32_t> saved_;    // indexed by area
  std::vector<int32_t> touched_;  // areas with saved_ != kClean
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_ASSIGNMENT_UNDO_LOG_H_
