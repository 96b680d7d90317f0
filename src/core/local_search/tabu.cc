#include "core/local_search/tabu.h"

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stopwatch.h"
#include "core/local_search/assignment_undo_log.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/neighborhood.h"
#include "core/local_search/objective.h"
#include "core/run_events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

namespace {

/// Tabu key forbidding `area` to move back into region `region`.
uint64_t TabuKey(int32_t area, int32_t region) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(area)) << 32) |
         static_cast<uint32_t>(region);
}

}  // namespace

Result<TabuResult> TabuSearch(const SolverOptions& options,
                              ConnectivityChecker* connectivity,
                              Partition* partition, Objective* objective,
                              PhaseSupervisor* supervisor,
                              const TabuTestSeam* seam) {
  if (connectivity == nullptr || partition == nullptr) {
    return Status::InvalidArgument("TabuSearch: null argument");
  }
  TabuResult result;
  // Default objective: the paper's heterogeneity H(P).
  std::unique_ptr<HeterogeneityObjective> default_objective;
  if (objective == nullptr) {
    default_objective = std::make_unique<HeterogeneityObjective>(*partition);
    objective = default_objective.get();
  }
  Objective& tracker = *objective;
  result.initial_heterogeneity = tracker.total();

  const int64_t max_no_improve =
      options.tabu_max_no_improve >= 0
          ? options.tabu_max_no_improve
          : static_cast<int64_t>(partition->num_areas());
  const TabuTestSeam no_seam;
  if (seam == nullptr) seam = &no_seam;
  const bool incremental = !seam->full_rebuild;

  double best_total = tracker.total();
  AssignmentUndoLog best_log(partition->num_areas());

  std::deque<uint64_t> tabu_order;
  // Value = number of times the key is currently in the queue (a key can
  // re-enter before expiring).
  std::unordered_map<uint64_t, int> tabu_set;
  auto is_tabu = [&](uint64_t key) {
    auto it = tabu_set.find(key);
    return it != tabu_set.end() && it->second > 0;
  };

  int64_t no_improve = 0;

  // Telemetry. Hot-loop counts accumulate in locals (zero atomic traffic
  // inside the search) and flush once at the end; the heterogeneity
  // trajectory is traced as instant events on each incumbent improvement,
  // and iterations are grouped into epoch spans of 256 for the trace view.
  const RunContext* run_ctx =
      supervisor != nullptr ? supervisor->context() : nullptr;
  obs::TraceBuffer* trace = run_ctx != nullptr ? run_ctx->trace : nullptr;
  const RunEvents events =
      run_ctx != nullptr ? RunEvents(*run_ctx) : RunEvents();
  int64_t tabu_rejected = 0;
  constexpr int64_t kEpochIterations = 256;
  std::optional<obs::ScopedSpan> epoch_span;
  Stopwatch search_timer;

  // Neighborhood engine. The incremental engine builds the candidate set
  // once and re-scores only what each move touches; the full-rebuild
  // engine re-scores everything at the top of every iteration. Both decide
  // each candidate's admissibility (constraints + donor contiguity) when
  // they score it and feed the same canonical-order selection below.
  TabuNeighborhood neighborhood(partition, objective, connectivity,
                                seam->verify_connectivity_cache);
  int64_t pending_scored = incremental ? neighborhood.Rebuild() : 0;

  while (no_improve < max_no_improve &&
         (options.tabu_max_iterations < 0 ||
          result.iterations < options.tabu_max_iterations)) {
    // One checkpoint per iteration; evaluations are charged afterwards,
    // once the scored-candidate count for this iteration is known.
    if (supervisor != nullptr && supervisor->Check(0)) break;
    if (result.iterations % kEpochIterations == 0) {
      if (trace != nullptr) {
        // optional::emplace destroys the previous span (closing it) before
        // opening the next epoch's.
        epoch_span.emplace(trace, "tabu.epoch");
      }
      // Iteration meter at epoch granularity: total is the hard cap when
      // set, -1 (unknown) otherwise.
      events.Work(result.iterations, options.tabu_max_iterations);
    }
    ++result.iterations;

    const int64_t scored =
        incremental ? pending_scored : neighborhood.Rebuild();
    pending_scored = 0;
    if (!neighborhood.status().ok()) return neighborhood.status();
    result.candidates_scored += scored;
    // Each scored candidate is one objective evaluation against the
    // budget; the trip takes effect at the next iteration's checkpoint.
    if (supervisor != nullptr && supervisor->Check(scored)) break;
    // No admissible move in the whole neighborhood.
    if (neighborhood.empty()) break;

    // Take the best admissible candidate in canonical (delta, area, to)
    // order that is non-tabu, or tabu but beating the incumbent
    // (aspiration). The heap holds admissible candidates only.
    std::optional<CandidateMove> chosen;
    neighborhood.VisitInOrder([&](const CandidateMove& mv) {
      ++result.moves_tried;
      const bool improves_best = tracker.total() + mv.delta < best_total - 1e-9;
      if (is_tabu(TabuKey(mv.area, mv.to)) && !improves_best) {
        ++tabu_rejected;
        return true;
      }
      chosen = mv;
      return false;
    });
    if (!chosen.has_value()) break;  // Every admissible move is tabu.
    // The stored verdict must still hold (DESIGN.md §8): one O(1)
    // re-check of the chosen move guards the affected-set argument.
    if (!neighborhood.IsAdmissible(*chosen)) {
      return Status::Internal(
          "stale admissibility verdict for area " +
          std::to_string(chosen->area) + " moving " +
          std::to_string(chosen->from) + " -> " + std::to_string(chosen->to));
    }

    // Apply. Objectives record the move BEFORE the partition mutates.
    const CandidateMove mv = *chosen;
    tracker.ApplyMove(mv.area, mv.from, mv.to);
    best_log.Record(mv.area, mv.from);
    partition->Move(mv.area, mv.to);
    if (incremental) {
      pending_scored = neighborhood.OnMoveApplied(mv.area, mv.from, mv.to);
      if (!neighborhood.status().ok()) return neighborhood.status();
    }
    ++result.moves_applied;
    if (seam->trajectory != nullptr) {
      seam->trajectory->push_back({mv.area, mv.from, mv.to, mv.delta});
    }
    // Forbid the reverse move for `tenure` iterations.
    uint64_t reverse = TabuKey(mv.area, mv.from);
    tabu_order.push_back(reverse);
    ++tabu_set[reverse];
    while (static_cast<int>(tabu_order.size()) > options.tabu_tenure) {
      --tabu_set[tabu_order.front()];
      tabu_order.pop_front();
    }
    if (tracker.total() < best_total - 1e-9) {
      best_total = tracker.total();
      best_log.MarkBest();
      ++result.improving_moves;
      no_improve = 0;
      if (trace != nullptr) {
        trace->RecordInstant("tabu.heterogeneity", best_total);
      }
      events.IncumbentH(best_total);
    } else {
      ++no_improve;
    }
  }

  epoch_span.reset();
  best_log.Rollback(partition);
  result.final_heterogeneity = best_total;
  result.cut_cache_hits = neighborhood.cut_cache().hits();
  result.cut_cache_misses = neighborhood.cut_cache().misses();
  if (supervisor != nullptr && supervisor->tripped().has_value()) {
    result.termination = *supervisor->tripped();
  }

  if (obs::MetricRegistry* metrics =
          run_ctx != nullptr ? run_ctx->metrics : nullptr;
      metrics != nullptr) {
    metrics->GetCounter("emp_tabu_iterations_total")->Add(result.iterations);
    metrics
        ->GetCounter("emp_tabu_moves_tried_total",
                     "Admissible tabu candidates visited by move selection.")
        ->Add(result.moves_tried);
    metrics->GetCounter("emp_tabu_moves_applied_total")
        ->Add(result.moves_applied);
    metrics->GetCounter("emp_tabu_moves_tabu_rejected_total")
        ->Add(tabu_rejected);
    metrics
        ->GetCounter("emp_tabu_moves_invalid_total",
                     "Inadmissible verdicts (constraints or donor "
                     "contiguity) decided when tabu candidates are scored.")
        ->Add(neighborhood.inadmissible_verdicts());
    metrics->GetCounter("emp_tabu_improving_moves_total")
        ->Add(result.improving_moves);
    metrics->GetCounter("emp_tabu_candidates_rescored_total")
        ->Add(result.candidates_scored);
    metrics->GetCounter("emp_tabu_cut_cache_hits_total")
        ->Add(result.cut_cache_hits);
    metrics->GetCounter("emp_tabu_cut_cache_misses_total")
        ->Add(result.cut_cache_misses);
    metrics->GetGauge("emp_tabu_initial_heterogeneity")
        ->Set(result.initial_heterogeneity);
    metrics->GetGauge("emp_tabu_final_heterogeneity")
        ->Set(result.final_heterogeneity);
    const double elapsed = search_timer.ElapsedSeconds();
    if (elapsed > 0) {
      metrics->GetGauge("emp_tabu_evaluations_per_second")
          ->Set(static_cast<double>(result.candidates_scored) / elapsed);
    }
  }
  return result;
}

}  // namespace emp
