#include "constraints/region_stats.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace emp {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

inline bool InBounds(double v, double lo, double hi) {
  // NaN fails both comparisons, matching Constraint::Contains.
  return (v >= lo) & (v <= hi);
}

// Folds `v` into a MIN slot's (extremum, runner-up) pair. An earlier equal
// value keeps the lead, as in an ordered multiset.
inline void PushMin(double v, double* ext, double* second) {
  if (v < *ext) {
    *second = *ext;
    *ext = v;
  } else if (v < *second) {
    *second = v;
  }
}

// MAX counterpart of PushMin: a later equal value takes the lead, as the
// last element of an ordered multiset does.
inline void PushMax(double v, double* ext, double* second) {
  if (v >= *ext) {
    *second = *ext;
    *ext = v;
  } else if (v >= *second) {
    *second = v;
  }
}
}  // namespace

RegionStats::RegionStats(const BoundConstraints* bound) : bound_(bound) {
  const EvalPlan& plan = bound_->plan();
  num_sums_ = static_cast<uint32_t>(plan.num_sums());
  num_extrema_ = static_cast<uint32_t>(plan.num_extrema());
  data_.resize(num_sums_ + 2 * static_cast<size_t>(num_extrema_));
  Clear();
}

void RegionStats::Add(int32_t area) {
  ++count_;
  const EvalPlan& plan = bound_->plan();
  const size_t a = static_cast<size_t>(area);
  double* ext = extrema();
  double* second = runners_up();
  const size_t nmin = plan.min.size();
  for (size_t p = 0; p < nmin; ++p) {
    PushMin(plan.min.col[p][a], &ext[p], &second[p]);
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    PushMax(plan.max.col[p][a], &ext[nmin + p], &second[nmin + p]);
  }
  double* sum = sums();
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) sum[p] += plan.avg.col[p][a];
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    sum[navg + p] += plan.sum.col[p][a];
  }
}

void RegionStats::Remove(int32_t area, std::span<const int32_t> remaining) {
  assert(count_ > 0);
  assert(remaining.size() == static_cast<size_t>(count_ - 1));
  --count_;
  const EvalPlan& plan = bound_->plan();
  const size_t a = static_cast<size_t>(area);
  double* ext = extrema();
  double* second = runners_up();
  // A value behind the runner-up leaves both leaders in place; otherwise
  // the slot's top two are rebuilt from the remaining members.
  const size_t nmin = plan.min.size();
  for (size_t p = 0; p < nmin; ++p) {
    const double* col = plan.min.col[p];
    if (col[a] > second[p]) continue;
    ext[p] = second[p] = kInf;
    for (int32_t m : remaining) {
      PushMin(col[static_cast<size_t>(m)], &ext[p], &second[p]);
    }
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    const double* col = plan.max.col[p];
    const size_t s = nmin + p;
    if (col[a] < second[s]) continue;
    ext[s] = second[s] = -kInf;
    for (int32_t m : remaining) {
      PushMax(col[static_cast<size_t>(m)], &ext[s], &second[s]);
    }
  }
  double* sum = sums();
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) sum[p] -= plan.avg.col[p][a];
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    sum[navg + p] -= plan.sum.col[p][a];
  }
}

void RegionStats::Merge(const RegionStats& other) {
  assert(bound_ == other.bound_);
  count_ += other.count_;
  double* sum = sums();
  for (size_t s = 0; s < num_sums_; ++s) sum[s] += other.sums()[s];
  // The merged top two are the top two of both sides' leading pairs.
  double* ext = extrema();
  double* second = runners_up();
  const double* other_ext = other.extrema();
  const double* other_second = other.runners_up();
  const size_t nmin = bound_->plan().min.size();
  for (size_t s = 0; s < nmin; ++s) {
    PushMin(other_ext[s], &ext[s], &second[s]);
    PushMin(other_second[s], &ext[s], &second[s]);
  }
  for (size_t s = nmin; s < num_extrema_; ++s) {
    PushMax(other_second[s], &ext[s], &second[s]);
    PushMax(other_ext[s], &ext[s], &second[s]);
  }
}

void RegionStats::Clear() {
  count_ = 0;
  double* ext = extrema();
  double* second = runners_up();
  std::fill(sums(), ext, 0.0);
  const size_t nmin = bound_->plan().min.size();
  for (size_t s = 0; s < num_extrema_; ++s) {
    ext[s] = second[s] = s < nmin ? kInf : -kInf;
  }
}

double RegionStats::AggregateValue(int ci) const {
  const size_t s = static_cast<size_t>(bound_->plan().slot[
      static_cast<size_t>(ci)]);
  switch (bound_->constraint(ci).aggregate) {
    case Aggregate::kMin:
    case Aggregate::kMax:
      return count_ == 0 ? kNaN : extrema()[s];
    case Aggregate::kAvg:
      return count_ == 0 ? kNaN : sums()[s] / count_;
    case Aggregate::kSum:
      return sums()[s];
    case Aggregate::kCount:
      return static_cast<double>(count_);
  }
  return kNaN;
}

double RegionStats::AggregateAfterAdd(int ci, int32_t area) const {
  const EvalPlan& plan = bound_->plan();
  const size_t s =
      static_cast<size_t>(plan.slot[static_cast<size_t>(ci)]);
  const Aggregate agg = bound_->constraint(ci).aggregate;
  if (agg == Aggregate::kCount) return static_cast<double>(count_ + 1);
  const double v =
      plan.col_by_ci[static_cast<size_t>(ci)][static_cast<size_t>(area)];
  switch (agg) {
    case Aggregate::kMin: {
      const double cur = extrema()[s];
      return count_ == 0 ? v : (v < cur ? v : cur);
    }
    case Aggregate::kMax: {
      const double cur = extrema()[s];
      return count_ == 0 ? v : (v > cur ? v : cur);
    }
    case Aggregate::kAvg:
      return (sums()[s] + v) / (count_ + 1);
    case Aggregate::kSum:
      return sums()[s] + v;
    case Aggregate::kCount:
      break;  // Handled above.
  }
  return kNaN;
}

double RegionStats::AggregateAfterRemove(int ci, int32_t area) const {
  const EvalPlan& plan = bound_->plan();
  const size_t s =
      static_cast<size_t>(plan.slot[static_cast<size_t>(ci)]);
  const Aggregate agg = bound_->constraint(ci).aggregate;
  if (agg == Aggregate::kCount) return static_cast<double>(count_ - 1);
  const double v =
      plan.col_by_ci[static_cast<size_t>(ci)][static_cast<size_t>(area)];
  switch (agg) {
    case Aggregate::kMin:
    case Aggregate::kMax: {
      if (count_ <= 1) return kNaN;
      // Unless v is (one of) the extrema, the extremum stays; otherwise
      // the runner-up takes over.
      const double cur = extrema()[s];
      const bool stays = agg == Aggregate::kMin ? v > cur : v < cur;
      return stays ? cur : runners_up()[s];
    }
    case Aggregate::kAvg:
      return count_ <= 1 ? kNaN : (sums()[s] - v) / (count_ - 1);
    case Aggregate::kSum:
      return sums()[s] - v;
    case Aggregate::kCount:
      break;  // Handled above.
  }
  return kNaN;
}

double RegionStats::AggregateAfterMerge(int ci,
                                        const RegionStats& other) const {
  assert(bound_ == other.bound_);
  const size_t s = static_cast<size_t>(bound_->plan().slot[
      static_cast<size_t>(ci)]);
  const int32_t total = count_ + other.count_;
  switch (bound_->constraint(ci).aggregate) {
    case Aggregate::kMin: {
      const double a = extrema()[s];
      const double b = other.extrema()[s];
      return count_ == 0 ? b : (other.count_ == 0 ? a : (a < b ? a : b));
    }
    case Aggregate::kMax: {
      const double a = extrema()[s];
      const double b = other.extrema()[s];
      return count_ == 0 ? b : (other.count_ == 0 ? a : (a > b ? a : b));
    }
    case Aggregate::kAvg:
      return total == 0 ? kNaN : (sums()[s] + other.sums()[s]) / total;
    case Aggregate::kSum:
      return sums()[s] + other.sums()[s];
    case Aggregate::kCount:
      return static_cast<double>(total);
  }
  return kNaN;
}

bool RegionStats::Satisfies(int ci) const {
  if (count_ == 0) return false;
  return bound_->constraint(ci).Contains(AggregateValue(ci));
}

bool RegionStats::SatisfiesAll() const {
  if (count_ == 0) return false;
  const EvalPlan& plan = bound_->plan();
  const size_t nmin = plan.min.size();
  bool ok = true;
  for (size_t p = 0; p < nmin; ++p) {
    ok &= InBounds(extrema()[p], plan.min.lo[p], plan.min.hi[p]);
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    ok &= InBounds(extrema()[nmin + p], plan.max.lo[p], plan.max.hi[p]);
  }
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) {
    ok &= InBounds(sums()[p] / count_, plan.avg.lo[p], plan.avg.hi[p]);
  }
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    ok &= InBounds(sums()[navg + p], plan.sum.lo[p], plan.sum.hi[p]);
  }
  const double cnt = static_cast<double>(count_);
  for (size_t p = 0; p < plan.count_lo.size(); ++p) {
    ok &= InBounds(cnt, plan.count_lo[p], plan.count_hi[p]);
  }
  return ok;
}

bool RegionStats::SatisfiesAllAfterAdd(int32_t area) const {
  const EvalPlan& plan = bound_->plan();
  const size_t a = static_cast<size_t>(area);
  const bool was_empty = count_ == 0;
  const size_t nmin = plan.min.size();
  bool ok = true;
  for (size_t p = 0; p < nmin; ++p) {
    const double v = plan.min.col[p][a];
    const double cur = extrema()[p];
    const double cand = was_empty ? v : (v < cur ? v : cur);
    ok &= InBounds(cand, plan.min.lo[p], plan.min.hi[p]);
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    const double v = plan.max.col[p][a];
    const double cur = extrema()[nmin + p];
    const double cand = was_empty ? v : (v > cur ? v : cur);
    ok &= InBounds(cand, plan.max.lo[p], plan.max.hi[p]);
  }
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) {
    const double cand = (sums()[p] + plan.avg.col[p][a]) / (count_ + 1);
    ok &= InBounds(cand, plan.avg.lo[p], plan.avg.hi[p]);
  }
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    const double cand = sums()[navg + p] + plan.sum.col[p][a];
    ok &= InBounds(cand, plan.sum.lo[p], plan.sum.hi[p]);
  }
  const double cnt = static_cast<double>(count_ + 1);
  for (size_t p = 0; p < plan.count_lo.size(); ++p) {
    ok &= InBounds(cnt, plan.count_lo[p], plan.count_hi[p]);
  }
  return ok;
}

bool RegionStats::SatisfiesAllAfterRemove(int32_t area) const {
  if (count_ <= 1) return false;  // Region would vanish.
  const EvalPlan& plan = bound_->plan();
  const size_t a = static_cast<size_t>(area);
  const size_t nmin = plan.min.size();
  bool ok = true;
  for (size_t p = 0; p < nmin; ++p) {
    const double v = plan.min.col[p][a];
    const double cur = extrema()[p];
    const double cand = v > cur ? cur : runners_up()[p];
    ok &= InBounds(cand, plan.min.lo[p], plan.min.hi[p]);
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    const double v = plan.max.col[p][a];
    const double cur = extrema()[nmin + p];
    const double cand = v < cur ? cur : runners_up()[nmin + p];
    ok &= InBounds(cand, plan.max.lo[p], plan.max.hi[p]);
  }
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) {
    const double cand = (sums()[p] - plan.avg.col[p][a]) / (count_ - 1);
    ok &= InBounds(cand, plan.avg.lo[p], plan.avg.hi[p]);
  }
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    const double cand = sums()[navg + p] - plan.sum.col[p][a];
    ok &= InBounds(cand, plan.sum.lo[p], plan.sum.hi[p]);
  }
  const double cnt = static_cast<double>(count_ - 1);
  for (size_t p = 0; p < plan.count_lo.size(); ++p) {
    ok &= InBounds(cnt, plan.count_lo[p], plan.count_hi[p]);
  }
  return ok;
}

bool RegionStats::SatisfiesAllAfterMerge(const RegionStats& other) const {
  assert(bound_ == other.bound_);
  const int32_t total = count_ + other.count_;
  if (total == 0) return false;
  const EvalPlan& plan = bound_->plan();
  const size_t nmin = plan.min.size();
  const bool lhs_empty = count_ == 0;
  const bool rhs_empty = other.count_ == 0;
  bool ok = true;
  for (size_t p = 0; p < nmin; ++p) {
    const double a = extrema()[p];
    const double b = other.extrema()[p];
    const double cand = lhs_empty ? b : (rhs_empty ? a : (a < b ? a : b));
    ok &= InBounds(cand, plan.min.lo[p], plan.min.hi[p]);
  }
  for (size_t p = 0; p < plan.max.size(); ++p) {
    const double a = extrema()[nmin + p];
    const double b = other.extrema()[nmin + p];
    const double cand = lhs_empty ? b : (rhs_empty ? a : (a > b ? a : b));
    ok &= InBounds(cand, plan.max.lo[p], plan.max.hi[p]);
  }
  const size_t navg = plan.avg.size();
  for (size_t p = 0; p < navg; ++p) {
    const double cand = (sums()[p] + other.sums()[p]) / total;
    ok &= InBounds(cand, plan.avg.lo[p], plan.avg.hi[p]);
  }
  for (size_t p = 0; p < plan.sum.size(); ++p) {
    const double cand = sums()[navg + p] + other.sums()[navg + p];
    ok &= InBounds(cand, plan.sum.lo[p], plan.sum.hi[p]);
  }
  const double cnt = static_cast<double>(total);
  for (size_t p = 0; p < plan.count_lo.size(); ++p) {
    ok &= InBounds(cnt, plan.count_lo[p], plan.count_hi[p]);
  }
  return ok;
}

}  // namespace emp
