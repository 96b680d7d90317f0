#include "core/local_search/objective.h"

namespace emp {

Result<std::unique_ptr<CompactnessObjective>> CompactnessObjective::Create(
    const Partition& partition) {
  const AreaSet& areas = partition.bound().areas();
  if (!areas.has_geometry()) {
    return Status::FailedPrecondition(
        "CompactnessObjective requires polygon geometry");
  }
  std::unique_ptr<CompactnessObjective> obj(
      new CompactnessObjective(&partition));
  const ContiguityGraph& graph = areas.graph();
  const int32_t n = graph.num_nodes();

  obj->area_perimeter_.resize(static_cast<size_t>(n));
  obj->shared_.resize(static_cast<size_t>(n));
  for (int32_t a = 0; a < n; ++a) {
    obj->area_perimeter_[static_cast<size_t>(a)] =
        areas.polygon(a).Perimeter();
    const auto& neighbors = graph.NeighborsOf(a);
    auto& row = obj->shared_[static_cast<size_t>(a)];
    row.resize(neighbors.size());
    for (size_t k = 0; k < neighbors.size(); ++k) {
      row[k] = SharedBorderLength(areas.polygon(a),
                                  areas.polygon(neighbors[k]));
    }
  }

  // Total exterior boundary = Σ per-area perimeter over assigned areas
  // − 2 × shared borders internal to a region.
  double total = 0.0;
  for (int32_t a = 0; a < n; ++a) {
    const int32_t rid = partition.RegionOf(a);
    if (rid == -1) continue;
    total += obj->area_perimeter_[static_cast<size_t>(a)];
    const auto& neighbors = graph.NeighborsOf(a);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      if (partition.RegionOf(neighbors[k]) == rid) {
        total -= obj->shared_[static_cast<size_t>(a)][k];
      }
    }
  }
  obj->total_ = total;
  return obj;
}

double CompactnessObjective::BorderWith(int32_t area, int32_t rid) const {
  double border = 0.0;
  const auto& neighbors =
      partition_->bound().areas().graph().NeighborsOf(area);
  const auto& row = shared_[static_cast<size_t>(area)];
  for (size_t k = 0; k < neighbors.size(); ++k) {
    if (partition_->RegionOf(neighbors[k]) == rid) border += row[k];
  }
  return border;
}

double CompactnessObjective::MoveDelta(int32_t area, int32_t from,
                                       int32_t to) const {
  // Leaving `from` exposes the borders shared with remaining `from`
  // members (+2L each); joining `to` hides borders shared with `to`
  // members (−2L each).
  double delta = 0.0;
  const auto& neighbors =
      partition_->bound().areas().graph().NeighborsOf(area);
  const auto& row = shared_[static_cast<size_t>(area)];
  for (size_t k = 0; k < neighbors.size(); ++k) {
    const int32_t rid = partition_->RegionOf(neighbors[k]);
    if (rid == from) delta += 2.0 * row[k];
    if (rid == to) delta -= 2.0 * row[k];
  }
  return delta;
}

void CompactnessObjective::ApplyMove(int32_t area, int32_t from, int32_t to) {
  total_ += MoveDelta(area, from, to);
}

}  // namespace emp
