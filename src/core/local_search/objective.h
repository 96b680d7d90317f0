#ifndef EMP_CORE_LOCAL_SEARCH_OBJECTIVE_H_
#define EMP_CORE_LOCAL_SEARCH_OBJECTIVE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/local_search/heterogeneity.h"
#include "core/partition.h"

namespace emp {

/// Minimization objective evaluated over a partition, with incremental
/// move deltas. The paper's local-search phase optimizes heterogeneity but
/// notes it "can deal with different optimization functions" (§III); this
/// interface is that extension point — Tabu and simulated annealing accept
/// any Objective.
///
/// Contract: MoveDelta/ApplyMove are called BEFORE the corresponding
/// Partition::Move is applied, with (area, from, to) describing the move.
class Objective {
 public:
  virtual ~Objective() = default;

  /// Current objective value (lower is better).
  virtual double total() const = 0;

  /// Exact objective change if `area` moved from region `from` to `to`.
  virtual double MoveDelta(int32_t area, int32_t from, int32_t to) const = 0;

  /// Batched MoveDelta: out[i] = MoveDelta(area, from, tos[i]) for all n
  /// candidate targets of one donor. Implementations may hoist the
  /// donor-side work across the batch, but every delta must stay
  /// bit-identical to the scalar MoveDelta — tabu trajectories are
  /// golden-pinned on that. The default simply loops.
  virtual void MoveDeltas(int32_t area, int32_t from, const int32_t* tos,
                          size_t n, double* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = MoveDelta(area, from, tos[i]);
  }

  /// Records the move in internal state (before the partition mutates).
  virtual void ApplyMove(int32_t area, int32_t from, int32_t to) = 0;

  /// Human-readable objective name for reports.
  virtual std::string name() const = 0;
};

/// The paper's default objective: H(P) = Σ_R Σ_{i<j∈R} |d_i − d_j|.
class HeterogeneityObjective final : public Objective {
 public:
  explicit HeterogeneityObjective(const Partition& partition)
      : tracker_(partition) {}

  double total() const override { return tracker_.total(); }
  double MoveDelta(int32_t area, int32_t from, int32_t to) const override {
    return tracker_.MoveDelta(area, from, to);
  }
  void MoveDeltas(int32_t area, int32_t from, const int32_t* tos, size_t n,
                  double* out) const override {
    tracker_.MoveDeltas(area, from, tos, n, out);
  }
  void ApplyMove(int32_t area, int32_t from, int32_t to) override {
    tracker_.ApplyMove(area, from, to);
  }
  std::string name() const override { return "heterogeneity"; }

 private:
  HeterogeneityTracker tracker_;
};

/// Geometric compactness objective: minimizes the total exterior boundary
/// length Σ_R perimeter(R). Moving an area between adjacent regions
/// changes only borders it shares with its graph neighbors, so deltas are
/// O(degree). Requires polygon geometry on the AreaSet.
class CompactnessObjective final : public Objective {
 public:
  /// Precomputes per-area polygon perimeters and pairwise shared-border
  /// lengths for every contiguity edge. Fails without geometry.
  static Result<std::unique_ptr<CompactnessObjective>> Create(
      const Partition& partition);

  double total() const override { return total_; }
  double MoveDelta(int32_t area, int32_t from, int32_t to) const override;
  void ApplyMove(int32_t area, int32_t from, int32_t to) override;
  std::string name() const override { return "compactness"; }

 private:
  explicit CompactnessObjective(const Partition* partition)
      : partition_(partition) {}

  /// Shared border length between adjacent areas a and b (0 otherwise).
  double SharedLength(int32_t a, int32_t b) const;

  const Partition* partition_;
  std::vector<double> area_perimeter_;
  /// shared_[a] aligned with graph().NeighborsOf(a).
  std::vector<std::vector<double>> shared_;
  double total_ = 0.0;
};

/// Weighted sum of sub-objectives — the multi-objective optimization the
/// paper lists as future work (§VIII). Example: 1.0 × heterogeneity +
/// 500 × compactness trades homogeneity against region shape. Does not
/// own the sub-objectives; the caller keeps them alive. Sub-objectives on
/// different scales should be weighted accordingly.
class WeightedObjective final : public Objective {
 public:
  WeightedObjective() = default;

  /// Adds a component with its weight. Weights may be negative (to reward
  /// an objective) but the overall direction must remain "minimize".
  void Add(Objective* objective, double weight) {
    parts_.push_back({objective, weight});
  }

  double total() const override {
    double sum = 0.0;
    for (const auto& [obj, w] : parts_) sum += w * obj->total();
    return sum;
  }
  double MoveDelta(int32_t area, int32_t from, int32_t to) const override {
    double sum = 0.0;
    for (const auto& [obj, w] : parts_) {
      sum += w * obj->MoveDelta(area, from, to);
    }
    return sum;
  }
  void ApplyMove(int32_t area, int32_t from, int32_t to) override {
    for (auto& [obj, w] : parts_) obj->ApplyMove(area, from, to);
  }
  std::string name() const override {
    std::string out = "weighted(";
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += "+";
      out += parts_[i].first->name();
    }
    return out + ")";
  }

 private:
  std::vector<std::pair<Objective*, double>> parts_;
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_OBJECTIVE_H_
