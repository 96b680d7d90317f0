#ifndef EMP_CORE_RUN_EVENTS_H_
#define EMP_CORE_RUN_EVENTS_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "core/run_context.h"

namespace emp {

class AreaSet;
struct FeasibilityReport;
struct Solution;
struct SolverOptions;
struct TabuResult;

namespace obs {
enum class ReplicaState : int32_t;
}  // namespace obs

/// The one emitter of a FaCT run's facts. Solver code makes one call per
/// fact (a phase began, construction found its incumbent p, a replica
/// finished, ...) and this class renders it to whichever of the context's
/// progress board, run journal and anytime curve are attached; it is the
/// only code in src/core that touches them. DESIGN.md §11 tabulates what
/// each event writes to each sink.
///
/// Stateless and cheap to build where needed; sinks that are not attached
/// are skipped, and a default-constructed emitter has none. Thread-safe as
/// far as the sinks are (all three serialize internally).
class RunEvents {
 public:
  RunEvents() = default;
  explicit RunEvents(const RunContext& ctx);

  /// The run bracket, written by FactSolver::Solve(ctx) only.
  void RunBegin(const SolverOptions& options, const AreaSet& areas) const;
  void RunEnd(const Result<Solution>& result, double seconds) const;

  /// Phase brackets. PhaseBegin is for feasibility and tabu; construction
  /// and the portfolio also name their fan-out.
  void PhaseBegin(std::string_view phase) const;
  void ConstructionBegin(int iterations, int threads) const;
  void PortfolioBegin(int32_t replicas, int threads) const;
  void FeasibilityEnd(const FeasibilityReport& report, double seconds) const;
  /// `best_p` is the run's first incumbent; `solution` carries the phase's
  /// seconds, completed iterations and heterogeneity.
  void ConstructionEnd(int32_t best_p, const Solution& solution) const;
  void TabuEnd(const TabuResult& result, double seconds) const;
  void PortfolioEnd(double seconds, int32_t winning_replica,
                    int32_t best_p) const;
  /// Supervision cut `phase` short.
  void Termination(std::string_view phase, TerminationReason reason) const;

  /// Strided supervision checkpoint.
  void Checkpoint(std::string_view phase, int64_t checkpoints) const;
  /// The phase's work meter; `total` = -1 when unknown.
  void Work(int64_t done, int64_t total) const;
  void IncumbentP(int32_t p) const;
  void IncumbentH(double heterogeneity) const;

  /// Live replica state; `p` = -1 leaves the replica's p unchanged.
  void Replica(int32_t replica, obs::ReplicaState state,
               int32_t p = -1) const;
  /// The post-join record of one replica (`solution` null when it
  /// produced none), emitted in replica order.
  void ReplicaSummary(int32_t replica, bool started, bool tabu_skipped,
                      const Solution* solution) const;

 private:
  int64_t evaluations() const;

  obs::ProgressBoard* board_ = nullptr;
  obs::RunJournal* journal_ = nullptr;
  obs::AnytimeCurve* curve_ = nullptr;
  const RunContext* ctx_ = nullptr;
};

}  // namespace emp

#endif  // EMP_CORE_RUN_EVENTS_H_
