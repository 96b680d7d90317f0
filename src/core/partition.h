#ifndef EMP_CORE_PARTITION_H_
#define EMP_CORE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "constraints/constraint_set.h"
#include "core/region.h"

namespace emp {

/// Mutable assignment of areas to regions — the working state of FaCT's
/// construction and local-search phases. Maintains the area -> region
/// reverse map and every region's RegionStats under assignment, removal,
/// merge, and dissolve operations.
///
/// Areas marked inactive (filtered out by the feasibility phase) can never
/// be assigned; they belong to U0 in the final solution. The Partition does
/// NOT enforce spatial contiguity — callers validate moves through
/// ConnectivityChecker before applying them.
class Partition {
 public:
  /// `bound` must outlive the partition. All areas start active and
  /// unassigned.
  explicit Partition(const BoundConstraints* bound);

  const BoundConstraints& bound() const { return *bound_; }
  int32_t num_areas() const {
    return static_cast<int32_t>(region_of_.size());
  }

  /// Marks an area as excluded from assignment (invalid under §V-A).
  void Deactivate(int32_t area);
  bool IsActive(int32_t area) const {
    return active_[static_cast<size_t>(area)] != 0;
  }

  /// Creates a new empty region and returns its id.
  int32_t CreateRegion();

  /// Assigns an unassigned active area to a region.
  void Assign(int32_t area, int32_t region_id);

  /// Removes an assigned area back to the unassigned pool. The region may
  /// become empty; it stays alive until DissolveRegion/Compact.
  void Unassign(int32_t area);

  /// Moves an assigned area to another alive region (Tabu move).
  void Move(int32_t area, int32_t to_region);

  /// Merges region `loser` into `winner`; `loser` dies. Returns `winner`.
  int32_t MergeRegions(int32_t winner, int32_t loser);

  /// Unassigns all areas of a region and kills it.
  void DissolveRegion(int32_t region_id);

  /// Region id of an area, or -1 when unassigned.
  int32_t RegionOf(int32_t area) const {
    return region_of_[static_cast<size_t>(area)];
  }

  bool IsAlive(int32_t region_id) const {
    return regions_[static_cast<size_t>(region_id)].alive;
  }
  /// Number of region slots ever created (alive or dead) — the exclusive
  /// upper bound on raw region ids. Lets callers (the Tabu neighborhood
  /// engine, articulation cache) size id-indexed arrays without scanning.
  int32_t NumRegionSlots() const {
    return static_cast<int32_t>(regions_.size());
  }
  const Region& region(int32_t region_id) const {
    return regions_[static_cast<size_t>(region_id)];
  }

  /// Ids of alive, non-empty regions.
  std::vector<int32_t> AliveRegionIds() const;

  /// Number of alive non-empty regions (the current p).
  int32_t NumRegions() const;

  /// Active areas with no region.
  std::vector<int32_t> UnassignedAreas() const;

  /// Distinct alive regions adjacent to `area` (excluding its own region).
  std::vector<int32_t> NeighborRegionsOfArea(int32_t area) const;

  /// Distinct alive regions sharing a border with region `region_id`.
  std::vector<int32_t> NeighborRegionsOf(int32_t region_id) const;

  /// Allocation-free variants for hot loops: clear `*out` and fill it with
  /// the same result (same first-seen order) as the returning versions,
  /// letting callers reuse one buffer across calls (DESIGN.md §14).
  void NeighborRegionsOfAreaInto(int32_t area, std::vector<int32_t>* out) const;
  void NeighborRegionsOfInto(int32_t region_id,
                             std::vector<int32_t>* out) const;
  void AliveRegionIdsInto(std::vector<int32_t>* out) const;
  void UnassignedAreasInto(std::vector<int32_t>* out) const;

  /// Areas of `region_id` having at least one neighbor outside the region.
  std::vector<int32_t> BoundaryAreas(int32_t region_id) const;

  /// Deep consistency check for tests: reverse map matches region member
  /// lists, stats counts match sizes, dead regions are empty, inactive
  /// areas unassigned, and every alive region's aggregates match a
  /// recomputation over its members (MIN/MAX/COUNT exactly, SUM/AVG within
  /// a relative 1e-9).
  Status ValidateInvariants() const;

  /// Final region assignment: region ids compacted to [0, p), -1 for
  /// unassigned/inactive areas.
  std::vector<int32_t> CompactAssignment() const;

 private:
  /// Starts a fresh dedup epoch over region ids and returns its tag.
  /// Backs the neighbor-region queries: marking a region id and testing
  /// "seen this call?" is O(1) without clearing between calls (the same
  /// trick as ConnectivityChecker::MarkMembers), where the previous
  /// std::find-over-output dedup was quadratic for high-degree regions.
  uint32_t BeginRegionSeenEpoch() const;

  const BoundConstraints* bound_;
  std::vector<Region> regions_;
  std::vector<int32_t> region_of_;  // -1 = unassigned
  std::vector<char> active_;
  // Epoch-tagged scratch for the neighbor-region queries (logically
  // const: pure caching, no observable state).
  mutable std::vector<uint32_t> region_seen_;
  mutable uint32_t region_seen_epoch_ = 0;
};

}  // namespace emp

#endif  // EMP_CORE_PARTITION_H_
