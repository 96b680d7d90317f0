#include "baseline/maxp_regions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/partition.h"
#include "core/run_events.h"
#include "core/solve_phases.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

namespace {

/// Picks the unassigned neighbor of region `rid` whose dissimilarity value
/// is closest to the region's current mean — the classic greedy criterion
/// that keeps growing regions homogeneous.
int32_t BestUnassignedNeighbor(const Partition& partition, int32_t rid,
                               std::span<const double> d, double mean_d) {
  const auto& graph = partition.bound().areas().graph();
  int32_t best = -1;
  double best_gap = std::numeric_limits<double>::infinity();
  for (int32_t area : partition.region(rid).areas) {
    for (int32_t nb : graph.NeighborsOf(area)) {
      if (partition.RegionOf(nb) != -1 || !partition.IsActive(nb)) continue;
      double gap = std::fabs(d[static_cast<size_t>(nb)] - mean_d);
      if (gap < best_gap) {
        best_gap = gap;
        best = nb;
      }
    }
  }
  return best;
}

}  // namespace

MaxPRegionsSolver::MaxPRegionsSolver(const AreaSet* areas,
                                     std::string attribute, double threshold,
                                     SolverOptions options)
    : areas_(areas),
      attribute_(std::move(attribute)),
      threshold_(threshold),
      options_(options),
      constraints_({Constraint::Sum(attribute_, threshold_, kNoUpperBound)}) {}

Result<MaxPRegionsSolver> MaxPRegionsSolver::Create(const AreaSet* areas,
                                                    std::string attribute,
                                                    double threshold,
                                                    SolverOptions options) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (areas == nullptr) {
    return Status::InvalidArgument("MaxPRegionsSolver: null area set");
  }
  if (!(threshold > 0)) {
    return Status::InvalidArgument(
        "MaxPRegionsSolver: threshold must be positive, got " +
        FormatDouble(threshold, 6));
  }
  // Binding validates that `attribute` exists in the attribute table.
  Result<BoundConstraints> bound = BoundConstraints::Create(
      areas, {Constraint::Sum(attribute, threshold, kNoUpperBound)});
  if (!bound.ok()) return bound.status();
  return MaxPRegionsSolver(areas, std::move(attribute), threshold, options);
}

Result<Solution> MaxPRegionsSolver::Solve(const RunContext& ctx) {
  return RunBracketed(areas_, options_, ctx, [&]() -> Result<Solution> {
    EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                         BoundConstraints::Create(areas_, constraints_));
    obs::ScopedSpan solve_span(ctx.trace, "solve");
    Solution solution;
    Partition partition(&bound);
    EMP_RETURN_IF_ERROR(FeasibilityPhase(bound, ctx, &solution));
    if (solution.termination_reason == TerminationReason::kConverged) {
      Construct(ctx, &partition, &solution);
      EMP_RETURN_IF_ERROR(TabuPhase(options_, ctx, /*worker=*/0, &partition,
                                    &solution));
    }
    FillAssignmentFromPartition(partition, &solution);
    return solution;
  });
}

void MaxPRegionsSolver::Construct(const RunContext& ctx, Partition* out,
                                  Solution* solution) const {
  const int iterations = options_.construction_iterations;
  RunEvents(ctx).ConstructionBegin(iterations, /*threads=*/1);
  Stopwatch construction_timer;
  obs::ScopedSpan construction_span(ctx.trace, "maxp.construction");
  obs::Counter* regions_grown =
      obs::GetCounter(ctx.metrics, "emp_maxp_regions_grown_total");
  obs::Counter* regions_dissolved =
      obs::GetCounter(ctx.metrics, "emp_maxp_regions_dissolved_total");
  obs::Counter* enclave_assignments =
      obs::GetCounter(ctx.metrics, "emp_maxp_enclave_assignments_total");
  const std::span<const double> d = areas_->dissimilarity();
  const int32_t n = areas_->num_areas();

  std::optional<Partition> best;
  int32_t best_p = -1;
  int completed_iterations = 0;
  std::optional<TerminationReason> construction_trip;

  for (int iter = 0; iter < iterations; ++iter) {
    Rng rng(options_.seed +
            0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(iter));
    Partition partition(&out->bound());
    PhaseSupervisor supervisor(&ctx, "maxp", /*worker=*/iter);

    std::vector<int32_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(&order);

    // Greedy growth: seed at each unassigned area in turn, absorb the most
    // similar unassigned neighbor until the SUM threshold is met. On a
    // supervisor trip the in-progress region is still under threshold, so
    // the existing dissolve check finalizes the partial to a feasible
    // state.
    for (int32_t seed : order) {
      if (supervisor.tripped()) break;
      if (partition.RegionOf(seed) != -1) continue;
      const int32_t rid = partition.CreateRegion();
      partition.Assign(seed, rid);
      double d_sum = d[static_cast<size_t>(seed)];
      while (partition.region(rid).stats.AggregateValue(0) < threshold_) {
        if (supervisor.Check()) break;
        double mean_d = d_sum / partition.region(rid).size();
        int32_t pick = BestUnassignedNeighbor(partition, rid, d, mean_d);
        if (pick == -1) break;
        partition.Assign(pick, rid);
        d_sum += d[static_cast<size_t>(pick)];
      }
      if (partition.region(rid).stats.AggregateValue(0) < threshold_) {
        partition.DissolveRegion(rid);  // Members become enclaves.
        obs::Add(regions_dissolved);
      } else {
        obs::Add(regions_grown);
      }
    }

    // Enclave assignment: attach every leftover area to the adjacent
    // feasible region with the closest mean dissimilarity. Iterate because
    // an enclave may only border other enclaves at first. Additions only
    // grow region sums, so stopping anywhere keeps every region feasible.
    bool changed = !supervisor.tripped().has_value();
    while (changed) {
      changed = false;
      for (int32_t a = 0; a < n; ++a) {
        if (supervisor.Check()) break;
        if (partition.RegionOf(a) != -1) continue;
        int32_t best_rid = -1;
        double best_gap = std::numeric_limits<double>::infinity();
        for (int32_t rid : partition.NeighborRegionsOfArea(a)) {
          const Region& r = partition.region(rid);
          double mean = 0.0;
          for (int32_t m : r.areas) mean += d[static_cast<size_t>(m)];
          mean /= r.size();
          double gap = std::fabs(d[static_cast<size_t>(a)] - mean);
          if (gap < best_gap) {
            best_gap = gap;
            best_rid = rid;
          }
        }
        if (best_rid != -1) {
          partition.Assign(a, best_rid);
          obs::Add(enclave_assignments);
          changed = true;
        }
      }
    }

    if (auto reason = supervisor.tripped()) {
      if (!construction_trip.has_value()) construction_trip = reason;
    } else {
      ++completed_iterations;
    }

    const int32_t p = partition.NumRegions();
    if (p > best_p) {
      best_p = p;
      best.emplace(std::move(partition));
    }
  }

  *out = std::move(*best);
  solution->completed_construction_iterations = completed_iterations;
  solution->construction_seconds = construction_timer.ElapsedSeconds();
  if (construction_trip.has_value()) {
    solution->termination_reason = *construction_trip;
  }
  EndConstruction(ctx, *out, solution);
}

}  // namespace emp
