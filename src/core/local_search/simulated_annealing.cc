#include "core/local_search/simulated_annealing.h"

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/local_search/assignment_undo_log.h"
#include "core/local_search/move.h"
#include "core/local_search/objective.h"

namespace emp {

Result<AnnealResult> SimulatedAnnealing(const AnnealOptions& options,
                                        ConnectivityChecker* connectivity,
                                        Partition* partition,
                                        Objective* objective,
                                        PhaseSupervisor* supervisor) {
  if (connectivity == nullptr || partition == nullptr) {
    return Status::InvalidArgument("SimulatedAnnealing: null argument");
  }
  if (options.cooling <= 0.0 || options.cooling >= 1.0) {
    return Status::InvalidArgument("cooling must be in (0, 1)");
  }

  std::unique_ptr<HeterogeneityObjective> default_objective;
  if (objective == nullptr) {
    default_objective = std::make_unique<HeterogeneityObjective>(*partition);
    objective = default_objective.get();
  }

  AnnealResult result;
  result.initial_objective = objective->total();

  const int32_t n = partition->num_areas();
  const int64_t iterations =
      options.iterations >= 0 ? options.iterations
                              : static_cast<int64_t>(n) * 20;

  Rng rng(options.seed);

  // Candidate sampler: random assigned area with at least one adjacent
  // foreign region.
  const auto& graph = partition->bound().areas().graph();
  auto sample_move = [&](int32_t* area, int32_t* from, int32_t* to) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      int32_t a = static_cast<int32_t>(rng.UniformInt(0, n - 1));
      int32_t r = partition->RegionOf(a);
      if (r == -1 || partition->region(r).size() <= 1) continue;
      // Reservoir-sample one adjacent foreign region.
      int32_t target = -1;
      int seen = 0;
      for (int32_t nb : graph.NeighborsOf(a)) {
        int32_t t = partition->RegionOf(nb);
        if (t == -1 || t == r) continue;
        ++seen;
        if (rng.UniformInt(1, seen) == 1) target = t;
      }
      if (target == -1) continue;
      *area = a;
      *from = r;
      *to = target;
      return true;
    }
    return false;
  };

  // Auto-calibrate the starting temperature to the objective's scale.
  double temperature = options.initial_temperature;
  if (temperature <= 0.0) {
    double mean_abs_delta = 0.0;
    int samples = 0;
    for (int trial = 0; trial < 64; ++trial) {
      int32_t a = 0;
      int32_t from = 0;
      int32_t to = 0;
      if (!sample_move(&a, &from, &to)) break;
      mean_abs_delta += std::fabs(objective->MoveDelta(a, from, to));
      ++samples;
    }
    temperature = samples > 0 ? mean_abs_delta / samples : 1.0;
    if (temperature <= 0.0) temperature = 1.0;
  }

  double best_total = objective->total();
  double current_total = best_total;
  AssignmentUndoLog best_log(n);

  for (int64_t it = 0; it < iterations; ++it) {
    if (supervisor != nullptr && supervisor->Check()) break;
    int32_t area = 0;
    int32_t from = 0;
    int32_t to = 0;
    // A failed sample is not a proposal: nothing was evaluated, so
    // nothing is counted (and nothing cools) before the loop ends.
    if (!sample_move(&area, &from, &to)) break;
    ++result.proposals;

    // Proposal k (0-based) is evaluated at T_k = T0 * cooling^k: the
    // first proposal sees the starting temperature, and cooling happens
    // AFTER the acceptance decision.
    const double delta = objective->MoveDelta(area, from, to);
    bool accept = delta <= 0.0;
    if (!accept && temperature > 1e-300) {
      accept = rng.Uniform(0.0, 1.0) < std::exp(-delta / temperature);
    }
    temperature *= options.cooling;
    if (!accept) continue;
    if (!ConstraintPreservingMove(*partition, connectivity, area, from, to)) {
      continue;
    }
    objective->ApplyMove(area, from, to);
    best_log.Record(area, from);
    partition->Move(area, to);
    current_total += delta;
    ++result.accepted;
    if (current_total < best_total - 1e-9) {
      best_total = current_total;
      best_log.MarkBest();
      ++result.improving;
    }
  }

  best_log.Rollback(partition);
  result.final_objective = best_total;
  if (supervisor != nullptr && supervisor->tripped().has_value()) {
    result.termination = *supervisor->tripped();
  }
  return result;
}

}  // namespace emp
