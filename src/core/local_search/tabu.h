#ifndef EMP_CORE_LOCAL_SEARCH_TABU_H_
#define EMP_CORE_LOCAL_SEARCH_TABU_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/partition.h"
#include "core/run_context.h"
#include "core/solver_options.h"
#include "graph/connectivity.h"

namespace emp {

/// One applied Tabu move, recorded into TabuTestSeam::trajectory. `delta`
/// is the exact objective change at application time, so two engines
/// agree only if their incremental bookkeeping is bit-identical.
struct TabuMove {
  int32_t area = -1;
  int32_t from = -1;
  int32_t to = -1;
  double delta = 0.0;
};

/// Verification switches for TabuSearch, set only by tests (DESIGN.md
/// §8); no option, flag or request field reaches them.
struct TabuTestSeam {
  /// Re-score the whole neighborhood (and drop the whole cut cache) every
  /// iteration: the reference engine. Same moves, different accounting.
  bool full_rebuild = false;
  /// Cross-check every cached donor-contiguity verdict against the exact
  /// BFS when scored; a disagreement fails the search.
  bool verify_connectivity_cache = false;
  /// When set, receives every applied move in order.
  std::vector<TabuMove>* trajectory = nullptr;
};

/// Outcome of the Tabu local-search phase.
struct TabuResult {
  double initial_heterogeneity = 0.0;
  double final_heterogeneity = 0.0;
  int64_t iterations = 0;
  int64_t moves_applied = 0;
  int64_t improving_moves = 0;
  /// Admissible candidates visited by the selection loop (incl. the ones
  /// rejected as tabu).
  int64_t moves_tried = 0;
  /// Candidates scored by the neighborhood engine (objective evaluations)
  /// — those with a re-decided receiver or donor half, or the full
  /// neighborhood per iteration under TabuTestSeam::full_rebuild.
  int64_t candidates_scored = 0;
  /// Donor-contiguity queries answered from the articulation cache /
  /// requiring a Tarjan recomputation. Both engines decide verdicts
  /// through the cache; the incremental one invalidates only the two
  /// regions each move mutates, the full rebuild all of it every time.
  int64_t cut_cache_hits = 0;
  int64_t cut_cache_misses = 0;

  /// kConverged on a natural stop (no-improve limit / empty neighborhood);
  /// otherwise the supervision verdict that cut the search short. Either
  /// way the best partition found was restored before returning.
  TerminationReason termination = TerminationReason::kConverged;

  /// The paper's reported metric: |H_before − H_after| / H_before
  /// (0 when H_before is 0).
  double ImprovementRatio() const {
    if (initial_heterogeneity <= 0.0) return 0.0;
    double diff = initial_heterogeneity - final_heterogeneity;
    return (diff < 0 ? -diff : diff) / initial_heterogeneity;
  }
};

class Objective;

/// Phase 3 of FaCT (§V-C): Tabu search over single-area moves between
/// adjacent regions. Every move preserves all user-defined constraints in
/// both regions, donor contiguity, and the region count p; worsening moves
/// are allowed to escape local optima, reverse moves are tabu for
/// `options.tabu_tenure` iterations, and a tabu move is still taken when it
/// beats the incumbent (aspiration). Search stops after
/// `options.tabu_max_no_improve` consecutive non-improving moves (default:
/// the number of areas) or when no admissible move exists. The best
/// partition encountered is restored into `partition` before returning.
///
/// Candidates are tried in the canonical (delta, area, to) order, so the
/// move sequence is a pure function of the instance and options —
/// independent of the neighborhood engine: the incremental engine
/// re-scores only candidates incident to the two regions mutated by each
/// move, while the reference engine (`seam->full_rebuild`) re-enumerates
/// everything per iteration. Either way a candidate's admissibility is
/// decided when it is scored (donor contiguity from a per-region
/// articulation-point cache) and selection visits admissible candidates
/// only. Bit-identical trajectories across engines are pinned by
/// tabu_golden_test; see DESIGN.md §8.
///
/// `objective` selects the minimized function; null means the paper's
/// heterogeneity H(P) (the TabuResult fields then really are
/// heterogeneity; with a custom objective they hold that objective's
/// values instead).
///
/// `supervisor` (optional) is polled once per iteration, with one
/// evaluation charged per candidate move scored; a trip stops the search
/// and — like a natural stop — restores the best (always feasible)
/// partition, recording the verdict in TabuResult::termination.
/// `seam` is for tests only; see TabuTestSeam.
Result<TabuResult> TabuSearch(const SolverOptions& options,
                              ConnectivityChecker* connectivity,
                              Partition* partition,
                              Objective* objective = nullptr,
                              PhaseSupervisor* supervisor = nullptr,
                              const TabuTestSeam* seam = nullptr);

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_TABU_H_
