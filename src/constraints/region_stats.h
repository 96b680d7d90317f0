#ifndef EMP_CONSTRAINTS_REGION_STATS_H_
#define EMP_CONSTRAINTS_REGION_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "constraints/constraint_set.h"

namespace emp {

/// Incremental aggregate state of one region against every bound
/// constraint. Supports O(1) add and merge, O(1) remove unless the area
/// held one of a MIN/MAX slot's two leading values (then O(k) in the region
/// size k, a rescan of the members), and O(1) hypothetical "what if area X
/// joined / left" queries, which the construction swaps and Tabu moves issue
/// millions of times.
///
/// Layout is SoA over the BoundConstraints::plan() packed slots
/// (DESIGN.md §14), all in one flat array: running sums for AVG/SUM, then
/// the current extremum of each MIN/MAX slot, then its runner-up — the
/// value that would lead if one copy of the extremum left (duplicates
/// count, so {3,3,5} has min 3 and runner-up 3). The Satisfies* hot paths
/// are branch-light contiguous loops over (value, lo, hi) triples with no
/// per-constraint switch. COUNT uses the shared area count. Bit-identical
/// to the per-constraint evaluation over an ordered multiset of values
/// (tabu_golden_test pins this).
class RegionStats {
 public:
  /// `bound` must outlive this object.
  explicit RegionStats(const BoundConstraints* bound);

  /// Adds an area's values. The caller guarantees the area is not already
  /// counted (RegionStats does not track membership).
  void Add(int32_t area);

  /// Removes a previously added area's values. `remaining` lists the
  /// region's members after the removal; it is read only when `area` held
  /// one of a MIN/MAX slot's two leading values.
  void Remove(int32_t area, std::span<const int32_t> remaining);

  /// Folds `other` into this (region merge). `other` must be bound to the
  /// same BoundConstraints.
  void Merge(const RegionStats& other);

  /// Resets to the empty region.
  void Clear();

  int32_t count() const { return count_; }

  /// Current aggregate value of constraint `ci`. Undefined for an empty
  /// region except COUNT/SUM (0).
  double AggregateValue(int ci) const;

  /// Aggregate value of `ci` if `area` were added.
  double AggregateAfterAdd(int ci, int32_t area) const;

  /// Aggregate value of `ci` if `area` were removed; `area` must currently
  /// be counted. Undefined when the region would become empty, except
  /// COUNT/SUM (0).
  double AggregateAfterRemove(int ci, int32_t area) const;

  /// Aggregate value of `ci` on the union of this region and `other`
  /// (merge preview; neither side is modified).
  double AggregateAfterMerge(int ci, const RegionStats& other) const;

  /// Running attribute sum for an AVG/SUM constraint (0 for an empty
  /// region). Precondition: `ci` is an AVG or SUM constraint.
  double RawSum(int ci) const {
    return data_[static_cast<size_t>(
        bound_->plan().slot[static_cast<size_t>(ci)])];
  }

  /// Constraint satisfaction on the current contents. An empty region
  /// satisfies nothing (regions require >= 1 area, Definition III.2).
  bool Satisfies(int ci) const;
  bool SatisfiesAll() const;

  /// True if every constraint would hold after adding `area`.
  bool SatisfiesAllAfterAdd(int32_t area) const;

  /// True if every constraint would hold after removing `area`. False when
  /// the region would become empty.
  bool SatisfiesAllAfterRemove(int32_t area) const;

  /// True if every constraint would hold on the union of this region and
  /// `other` (merge preview; neither side is modified).
  bool SatisfiesAllAfterMerge(const RegionStats& other) const;

 private:
  // Views into data_: [sums | extrema | runners-up], sized by the plan.
  const double* sums() const { return data_.data(); }
  const double* extrema() const { return data_.data() + num_sums_; }
  const double* runners_up() const {
    return data_.data() + num_sums_ + num_extrema_;
  }
  double* sums() { return data_.data(); }
  double* extrema() { return data_.data() + num_sums_; }
  double* runners_up() { return data_.data() + num_sums_ + num_extrema_; }

  const BoundConstraints* bound_;
  int32_t count_ = 0;
  uint32_t num_sums_ = 0;
  uint32_t num_extrema_ = 0;
  /// Packed state, SoA: running sums [AVG slots..., SUM slots...], then
  /// extrema [MIN slots..., MAX slots...], then their runners-up. A MIN
  /// slot with no value (runner-up: fewer than two) holds +inf, a MAX slot
  /// -inf, so the updates need no emptiness test; readers check count_.
  std::vector<double> data_;
};

}  // namespace emp

#endif  // EMP_CONSTRAINTS_REGION_STATS_H_
