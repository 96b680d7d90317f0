#include "core/partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace emp {

Partition::Partition(const BoundConstraints* bound) : bound_(bound) {
  const size_t n = static_cast<size_t>(bound_->areas().num_areas());
  region_of_.assign(n, -1);
  active_.assign(n, 1);
}

void Partition::Deactivate(int32_t area) {
  assert(region_of_[static_cast<size_t>(area)] == -1);
  active_[static_cast<size_t>(area)] = 0;
}

int32_t Partition::CreateRegion() {
  const int32_t id = static_cast<int32_t>(regions_.size());
  regions_.emplace_back(id, bound_);
  return id;
}

void Partition::Assign(int32_t area, int32_t region_id) {
  assert(IsActive(area));
  assert(region_of_[static_cast<size_t>(area)] == -1);
  Region& r = regions_[static_cast<size_t>(region_id)];
  assert(r.alive);
  r.areas.push_back(area);
  r.stats.Add(area);
  region_of_[static_cast<size_t>(area)] = region_id;
}

void Partition::Unassign(int32_t area) {
  const int32_t rid = region_of_[static_cast<size_t>(area)];
  assert(rid != -1);
  Region& r = regions_[static_cast<size_t>(rid)];
  auto it = std::find(r.areas.begin(), r.areas.end(), area);
  assert(it != r.areas.end());
  *it = r.areas.back();
  r.areas.pop_back();
  r.stats.Remove(area, r.areas);
  region_of_[static_cast<size_t>(area)] = -1;
}

void Partition::Move(int32_t area, int32_t to_region) {
  Unassign(area);
  Assign(area, to_region);
}

int32_t Partition::MergeRegions(int32_t winner, int32_t loser) {
  assert(winner != loser);
  Region& w = regions_[static_cast<size_t>(winner)];
  Region& l = regions_[static_cast<size_t>(loser)];
  assert(w.alive && l.alive);
  for (int32_t area : l.areas) {
    region_of_[static_cast<size_t>(area)] = winner;
    w.areas.push_back(area);
  }
  w.stats.Merge(l.stats);
  l.areas.clear();
  l.stats.Clear();
  l.alive = false;
  return winner;
}

void Partition::DissolveRegion(int32_t region_id) {
  Region& r = regions_[static_cast<size_t>(region_id)];
  assert(r.alive);
  for (int32_t area : r.areas) {
    region_of_[static_cast<size_t>(area)] = -1;
  }
  r.areas.clear();
  r.stats.Clear();
  r.alive = false;
}

std::vector<int32_t> Partition::AliveRegionIds() const {
  std::vector<int32_t> out;
  AliveRegionIdsInto(&out);
  return out;
}

void Partition::AliveRegionIdsInto(std::vector<int32_t>* out) const {
  out->clear();
  for (const Region& r : regions_) {
    if (r.alive && !r.areas.empty()) out->push_back(r.id);
  }
}

int32_t Partition::NumRegions() const {
  int32_t p = 0;
  for (const Region& r : regions_) {
    if (r.alive && !r.areas.empty()) ++p;
  }
  return p;
}

std::vector<int32_t> Partition::UnassignedAreas() const {
  std::vector<int32_t> out;
  UnassignedAreasInto(&out);
  return out;
}

void Partition::UnassignedAreasInto(std::vector<int32_t>* out) const {
  out->clear();
  for (int32_t a = 0; a < num_areas(); ++a) {
    if (IsActive(a) && region_of_[static_cast<size_t>(a)] == -1) {
      out->push_back(a);
    }
  }
}

uint32_t Partition::BeginRegionSeenEpoch() const {
  if (region_seen_.size() < regions_.size()) {
    region_seen_.resize(regions_.size(), 0);
  }
  ++region_seen_epoch_;
  if (region_seen_epoch_ == 0) {
    // Wrapped around: reset tags once per ~4 billion calls.
    std::fill(region_seen_.begin(), region_seen_.end(), 0);
    region_seen_epoch_ = 1;
  }
  return region_seen_epoch_;
}

std::vector<int32_t> Partition::NeighborRegionsOfArea(int32_t area) const {
  std::vector<int32_t> out;
  NeighborRegionsOfAreaInto(area, &out);
  return out;
}

void Partition::NeighborRegionsOfAreaInto(int32_t area,
                                          std::vector<int32_t>* out) const {
  out->clear();
  const uint32_t epoch = BeginRegionSeenEpoch();
  const int32_t own = region_of_[static_cast<size_t>(area)];
  for (int32_t nb : bound_->areas().graph().NeighborsOf(area)) {
    int32_t rid = region_of_[static_cast<size_t>(nb)];
    if (rid != -1 && rid != own &&
        region_seen_[static_cast<size_t>(rid)] != epoch) {
      region_seen_[static_cast<size_t>(rid)] = epoch;
      out->push_back(rid);
    }
  }
}

std::vector<int32_t> Partition::NeighborRegionsOf(int32_t region_id) const {
  std::vector<int32_t> out;
  NeighborRegionsOfInto(region_id, &out);
  return out;
}

void Partition::NeighborRegionsOfInto(int32_t region_id,
                                      std::vector<int32_t>* out) const {
  out->clear();
  const uint32_t epoch = BeginRegionSeenEpoch();
  const Region& r = regions_[static_cast<size_t>(region_id)];
  for (int32_t area : r.areas) {
    for (int32_t nb : bound_->areas().graph().NeighborsOf(area)) {
      int32_t rid = region_of_[static_cast<size_t>(nb)];
      if (rid != -1 && rid != region_id &&
          region_seen_[static_cast<size_t>(rid)] != epoch) {
        region_seen_[static_cast<size_t>(rid)] = epoch;
        out->push_back(rid);
      }
    }
  }
}

std::vector<int32_t> Partition::BoundaryAreas(int32_t region_id) const {
  std::vector<int32_t> out;
  const Region& r = regions_[static_cast<size_t>(region_id)];
  for (int32_t area : r.areas) {
    for (int32_t nb : bound_->areas().graph().NeighborsOf(area)) {
      if (region_of_[static_cast<size_t>(nb)] != region_id) {
        out.push_back(area);
        break;
      }
    }
  }
  return out;
}

Status Partition::ValidateInvariants() const {
  std::vector<int32_t> seen(region_of_.size(), -1);
  for (const Region& r : regions_) {
    if (!r.alive) {
      if (!r.areas.empty()) {
        return Status::Internal("dead region " + std::to_string(r.id) +
                                " still has areas");
      }
      continue;
    }
    if (r.stats.count() != r.size()) {
      return Status::Internal("region " + std::to_string(r.id) +
                              " stats count mismatch");
    }
    for (int32_t area : r.areas) {
      if (area < 0 || area >= num_areas()) {
        return Status::Internal("region member out of range");
      }
      if (!IsActive(area)) {
        return Status::Internal("inactive area " + std::to_string(area) +
                                " is assigned");
      }
      if (seen[static_cast<size_t>(area)] != -1) {
        return Status::Internal("area " + std::to_string(area) +
                                " in two regions");
      }
      seen[static_cast<size_t>(area)] = r.id;
      if (region_of_[static_cast<size_t>(area)] != r.id) {
        return Status::Internal("reverse map mismatch for area " +
                                std::to_string(area));
      }
    }
    if (r.areas.empty()) continue;
    // Incremental stats against a recomputation over the members: MIN,
    // MAX and COUNT exactly, SUM and AVG within a relative 1e-9 of the
    // members' absolute sum (a running sum carries rounding).
    for (int ci = 0; ci < bound_->size(); ++ci) {
      const Aggregate agg = bound_->constraint(ci).aggregate;
      double lo = bound_->ValueOf(ci, r.areas.front());
      double hi = lo;
      double sum = 0.0;
      double abs_sum = 0.0;
      for (int32_t area : r.areas) {
        const double v = bound_->ValueOf(ci, area);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
        abs_sum += std::fabs(v);
      }
      const double n = static_cast<double>(r.areas.size());
      const double got = r.stats.AggregateValue(ci);
      bool ok = true;
      switch (agg) {
        case Aggregate::kMin:
          ok = got == lo;
          break;
        case Aggregate::kMax:
          ok = got == hi;
          break;
        case Aggregate::kCount:
          ok = got == n;
          break;
        case Aggregate::kSum:
          ok = std::fabs(got - sum) <= 1e-9 * std::max(1.0, abs_sum);
          break;
        case Aggregate::kAvg:
          ok = std::fabs(got - sum / n) <=
               1e-9 * std::max(1.0, abs_sum / n);
          break;
      }
      if (!ok) {
        return Status::Internal("region " + std::to_string(r.id) + " " +
                                std::string(AggregateName(agg)) +
                                " stats disagree with its members");
      }
    }
  }
  for (size_t a = 0; a < region_of_.size(); ++a) {
    if (region_of_[a] != -1 && seen[a] != region_of_[a]) {
      return Status::Internal("area " + std::to_string(a) +
                              " maps to region that does not list it");
    }
  }
  return Status::OK();
}

std::vector<int32_t> Partition::CompactAssignment() const {
  std::vector<int32_t> compact_id(regions_.size(), -1);
  int32_t next = 0;
  for (const Region& r : regions_) {
    if (r.alive && !r.areas.empty()) {
      compact_id[static_cast<size_t>(r.id)] = next++;
    }
  }
  std::vector<int32_t> out(region_of_.size(), -1);
  for (size_t a = 0; a < region_of_.size(); ++a) {
    if (region_of_[a] != -1) {
      out[a] = compact_id[static_cast<size_t>(region_of_[a])];
    }
  }
  return out;
}

}  // namespace emp
