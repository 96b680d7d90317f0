#include "core/local_search/heterogeneity.h"

#include <algorithm>
#include <cassert>

namespace emp {

void RegionDissimilarity::Add(double d) {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), d);
  size_t pos = static_cast<size_t>(it - sorted_.begin());
  sorted_.insert(it, d);
  // Rebuild prefix sums from the insertion point.
  prefix_.resize(sorted_.size() + 1);
  for (size_t i = pos; i < sorted_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

void RegionDissimilarity::Remove(double d) {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), d);
  assert(it != sorted_.end() && *it == d);
  size_t pos = static_cast<size_t>(it - sorted_.begin());
  sorted_.erase(it);
  prefix_.resize(sorted_.size() + 1);
  for (size_t i = pos; i < sorted_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

double RegionDissimilarity::ContributionOf(double d) const {
  if (sorted_.empty()) return 0.0;
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), d);
  const size_t less = static_cast<size_t>(it - sorted_.begin());
  const double sum_less = prefix_[less];
  const double sum_total = prefix_[sorted_.size()];
  const size_t geq = sorted_.size() - less;
  return (d * static_cast<double>(less) - sum_less) +
         ((sum_total - sum_less) - d * static_cast<double>(geq));
}

double RegionDissimilarity::TotalPairwise() const {
  double total = 0.0;
  for (size_t j = 0; j < sorted_.size(); ++j) {
    total += sorted_[j] * static_cast<double>(j) - prefix_[j];
  }
  return total;
}

HeterogeneityTracker::HeterogeneityTracker(const Partition& partition) {
  d_ = partition.bound().areas().dissimilarity();
  // Index by raw region id; dead regions get empty structures.
  int32_t max_id = -1;
  for (int32_t rid : partition.AliveRegionIds()) max_id = std::max(max_id, rid);
  regions_.resize(static_cast<size_t>(max_id + 1));
  for (int32_t rid : partition.AliveRegionIds()) {
    RegionDissimilarity& rd = regions_[static_cast<size_t>(rid)];
    for (int32_t area : partition.region(rid).areas) {
      rd.Add(d_[static_cast<size_t>(area)]);
    }
    total_ += rd.TotalPairwise();
  }
}

double HeterogeneityTracker::MoveDelta(int32_t area, int32_t from,
                                       int32_t to) const {
  // Leaving `from` removes its pairwise terms with remaining members;
  // joining `to` adds terms with every current member.
  return ContributionOf(area, to) - ContributionOf(area, from);
}

void HeterogeneityTracker::ApplyMove(int32_t area, int32_t from, int32_t to) {
  total_ += MoveDelta(area, from, to);
  const double d = d_[static_cast<size_t>(area)];
  regions_[static_cast<size_t>(from)].Remove(d);
  regions_[static_cast<size_t>(to)].Add(d);
}

double ComputeHeterogeneity(const Partition& partition) {
  const auto& d = partition.bound().areas().dissimilarity();
  double total = 0.0;
  // One region's values gathered contiguously, so the pair loop streams
  // them instead of chasing area ids; same operands in the same order.
  std::vector<double> values;
  for (int32_t rid : partition.AliveRegionIds()) {
    values.clear();
    for (int32_t area : partition.region(rid).areas) {
      values.push_back(d[static_cast<size_t>(area)]);
    }
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = i + 1; j < values.size(); ++j) {
        double diff = values[i] - values[j];
        total += diff < 0 ? -diff : diff;
      }
    }
  }
  return total;
}

}  // namespace emp
