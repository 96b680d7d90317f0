#ifndef EMP_CORE_LOCAL_SEARCH_HETEROGENEITY_H_
#define EMP_CORE_LOCAL_SEARCH_HETEROGENEITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/partition.h"

namespace emp {

/// Exact bookkeeping of one region's pairwise-L1 dissimilarity
/// Σ_{i<j} |d_i − d_j| over its members' dissimilarity values. Keeps the
/// values sorted with prefix sums so that the contribution of one value —
/// what a Tabu move needs — is an O(log k) query, instead of the O(k²)
/// recomputation a naive implementation would pay per candidate move.
class RegionDissimilarity {
 public:
  void Add(double d);
  void Remove(double d);

  int32_t size() const { return static_cast<int32_t>(sorted_.size()); }

  /// Σ |d − x| over all current member values x. (If `d` belongs to a
  /// member, its own zero term is included harmlessly.)
  double ContributionOf(double d) const;

  /// Σ_{i<j} (d_j − d_i) over the sorted values — the region's exact
  /// pairwise dissimilarity.
  double TotalPairwise() const;

 private:
  std::vector<double> sorted_;
  std::vector<double> prefix_;  // prefix_[i] = sum of sorted_[0..i)
};

/// Heterogeneity H(P) = Σ_R Σ_{i<j∈R} |d_i − d_j| (Definition III.3),
/// maintained incrementally across Tabu moves.
class HeterogeneityTracker {
 public:
  /// Builds region structures from the partition's current assignment.
  explicit HeterogeneityTracker(const Partition& partition);

  double total() const { return total_; }

  /// Exact H change if `area` moved from region `from` to region `to`.
  double MoveDelta(int32_t area, int32_t from, int32_t to) const;

  /// Σ |d_area − d_x| over the members x of region `rid`: the receiver
  /// half of a move into `rid`, or the donor half of a move out of it
  /// (the area's own zero term is then included harmlessly).
  double ContributionOf(int32_t area, int32_t rid) const {
    return regions_[static_cast<size_t>(rid)].ContributionOf(
        d_[static_cast<size_t>(area)]);
  }

  /// Records an applied move (call alongside Partition::Move).
  void ApplyMove(int32_t area, int32_t from, int32_t to);

 private:
  std::span<const double> d_;
  std::vector<RegionDissimilarity> regions_;  // indexed by raw region id
  double total_ = 0.0;
};

/// One-shot exact heterogeneity of a full partition (used by tests and
/// reports to cross-check the tracker).
double ComputeHeterogeneity(const Partition& partition);

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_HETEROGENEITY_H_
