#ifndef EMP_OBS_PROGRESS_H_
#define EMP_OBS_PROGRESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace emp {
namespace obs {

/// What one portfolio replica is doing right now.
enum class ReplicaState : int32_t {
  kPending = 0,      // queued, not yet picked up by a worker
  kConstructing,     // feasibility + construction running
  kLocalSearch,      // tabu polish running
  kDone,             // finished (converged or degraded)
  kCancelled,        // cooperatively cancelled (target_p / caller)
  kSkipped,          // local search skipped: p below the portfolio's max
};

/// Canonical lower-case name ("pending", "constructing", ...).
std::string_view ReplicaStateName(ReplicaState state);

/// Point-in-time copy of the board, taken by readers. All fields were
/// written inside one or more version brackets, and the whole snapshot is
/// version-stable: fields written together are read together.
struct ProgressSnapshot {
  /// Board version at the (stable) read; even, monotonically increasing.
  uint64_t version = 0;
  /// Current phase name ("feasibility", "construction", "tabu", ...);
  /// "idle" before the first publish.
  const char* phase = "idle";
  /// Checkpoints observed within the reporting phase instance.
  int64_t checkpoints = 0;
  /// Solve-wide evaluation units consumed so far.
  int64_t evaluations = 0;
  /// Evaluation budget (-1 = unlimited), published at solve start.
  int64_t max_evaluations = -1;
  /// Wall-clock budget in ms (-1 = unlimited), published at solve start.
  int64_t time_budget_ms = -1;
  /// Milliseconds since the board was constructed, sampled at read time.
  int64_t elapsed_ms = 0;
  /// Best p found so far; -1 until construction reports one.
  int32_t best_p = -1;
  /// Best heterogeneity so far; NaN until the local search reports one.
  double heterogeneity = 0.0;
  bool has_heterogeneity = false;
  /// Generic phase work meter (areas scanned, tabu iterations, ...);
  /// -1 when the phase has not published one.
  int64_t work_done = -1;
  int64_t work_total = -1;
  /// Portfolio view: replica count (0 for plain solves) and per-replica
  /// (state, p) pairs. p is -1 until the replica's construction finishes.
  int32_t replicas = 0;
  struct Replica {
    ReplicaState state = ReplicaState::kPending;
    int32_t p = -1;
  };
  std::array<Replica, 128> replica = {};
};

/// Lock-cheap live-progress board: the write side is a seqlock-style
/// versioned record hung off RunContext, published by the solver's run
/// events (core/run_events.h); the read side (HTTP /progress, tests)
/// never blocks a writer.
///
/// Memory-ordering contract (DESIGN.md §11): writers serialize among
/// themselves on an internal mutex and bracket every update between two
/// release increments of the version word (odd = write in flight); every
/// payload field is a relaxed atomic, so concurrent reads are data-race
/// free. Readers load the version with acquire semantics, copy the
/// payload, fence, and re-check the version — retrying until it is even
/// and unchanged, which guarantees the returned snapshot is exactly the
/// state some writer published (fields updated in one bracket are never
/// observed torn). Writers never wait on readers; a reader under constant
/// write pressure retries, which at solver publish rates (phase
/// transitions + one publish per checkpoint stride) terminates promptly.
class ProgressBoard {
 public:
  static constexpr int32_t kMaxReplicas = 128;

  ProgressBoard();
  ProgressBoard(const ProgressBoard&) = delete;
  ProgressBoard& operator=(const ProgressBoard&) = delete;

  // ---- Write side (solver threads). --------------------------------
  /// Publishes the active phase; `phase` is interned against the known
  /// phase-name set so the board never retains caller storage.
  void SetPhase(std::string_view phase);
  /// Strided-checkpoint publish: phase + checkpoint count + solve-wide
  /// evaluations in one bracket (called by PhaseSupervisor's slow path).
  void OnCheckpoint(std::string_view phase, int64_t checkpoints,
                    int64_t evaluations);
  /// Publishes the solve's budgets once at solve start.
  void SetBudgets(int64_t time_budget_ms, int64_t max_evaluations);
  void SetBestP(int32_t p);
  void SetHeterogeneity(double h);
  /// Generic phase work meter; pass total = -1 when unknown.
  void SetWork(int64_t done, int64_t total);
  /// Declares the portfolio size (clamped to kMaxReplicas) and resets the
  /// per-replica slots to kPending.
  void SetReplicaCount(int32_t n);
  /// Publishes one replica's (state, p); p = -1 leaves p unchanged.
  void SetReplicaState(int32_t replica, ReplicaState state, int32_t p = -1);

  // ---- Read side (HTTP server, tests). -----------------------------
  /// Version-stable copy of the board; safe from any thread, never blocks
  /// a writer.
  ProgressSnapshot Read() const;

  /// Total completed write brackets (diagnostics; equals version()/2).
  int64_t publishes() const;

 private:
  template <typename Fn>
  void Publish(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    version_.fetch_add(1, std::memory_order_release);
    fn();
    version_.fetch_add(1, std::memory_order_release);
  }

  using Clock = std::chrono::steady_clock;

  const Clock::time_point epoch_;
  std::mutex writer_mu_;
  std::atomic<uint64_t> version_{0};

  std::atomic<const char*> phase_;
  std::atomic<int64_t> checkpoints_{0};
  std::atomic<int64_t> evaluations_{0};
  std::atomic<int64_t> max_evaluations_{-1};
  std::atomic<int64_t> time_budget_ms_{-1};
  std::atomic<int32_t> best_p_{-1};
  std::atomic<double> heterogeneity_{0.0};
  std::atomic<bool> has_heterogeneity_{false};
  std::atomic<int64_t> work_done_{-1};
  std::atomic<int64_t> work_total_{-1};
  std::atomic<int32_t> replicas_{0};
  std::array<std::atomic<int32_t>, kMaxReplicas> replica_state_;
  std::array<std::atomic<int32_t>, kMaxReplicas> replica_p_;
};

/// Serializes a snapshot as the /progress JSON document: phase, elapsed
/// vs. budgets, best p, heterogeneity (null until known), work meter, and
/// the per-replica portfolio table. Deterministic field order.
std::string ProgressToJson(const ProgressSnapshot& snapshot);

}  // namespace obs
}  // namespace emp

#endif  // EMP_OBS_PROGRESS_H_
