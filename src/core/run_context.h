#ifndef EMP_CORE_RUN_CONTEXT_H_
#define EMP_CORE_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

namespace emp {

namespace obs {
class AnytimeCurve;
class MetricRegistry;
class ProgressBoard;
class RunJournal;
class TraceBuffer;
}  // namespace obs

/// Why a solve (or one of its phases) stopped. Recorded in
/// Solution::termination_reason so callers can tell a converged result
/// from a best-effort one returned under a deadline or cancellation.
enum class TerminationReason {
  /// The phase ran to its natural end (fixpoint, no admissible move, ...).
  kConverged = 0,
  /// The wall-clock deadline expired; the best-so-far state was returned.
  kDeadlineExceeded,
  /// CancellationToken::Cancel() was observed at a checkpoint.
  kCancelled,
  /// The evaluation budget (RunContext::max_evaluations) ran out.
  kBudgetExhausted,
  /// A test fault hook forced termination at an exact checkpoint.
  kFaultInjected,
};

/// Canonical lower-case name ("converged", "deadline-exceeded", ...).
std::string_view TerminationReasonName(TerminationReason reason);

/// A wall-clock point in time after which cooperative loops must stop.
/// Value-semantic and cheap to copy; default-constructed deadlines never
/// expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() : expiry_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now; ms < 0 means infinite.
  static Deadline AfterMillis(int64_t ms);

  bool infinite() const { return expiry_ == Clock::time_point::max(); }
  bool Expired() const { return !infinite() && Clock::now() >= expiry_; }

  /// Milliseconds until expiry (negative once expired); +inf when infinite.
  double RemainingMillis() const;

 private:
  Clock::time_point expiry_;
};

/// Cooperative cancellation flag shared between a requester (e.g. a SIGINT
/// handler or another thread) and the solver's checkpoint network. Copies
/// share the same underlying flag. Cancel() performs a single atomic store
/// and is safe to call from a signal handler or any thread.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Identity of one supervision checkpoint, passed to the fault hook so
/// tests can fire deterministic faults at exact points ("deadline after K
/// checkpoints of phase X", "cancel inside construction iteration 2").
struct SupervisionCheckpoint {
  /// Phase name: "feasibility", "construction", "tabu", "anneal", "exact",
  /// "maxp", "skater".
  std::string_view phase;
  /// 0-based checkpoint count within this phase instance.
  int64_t index = 0;
  /// Construction-iteration id for per-iteration phases, 0 elsewhere.
  int64_t worker = 0;
};

/// Execution-supervision context threaded through every long-running solver
/// loop. Carries a wall-clock deadline, a cooperative cancellation token,
/// an optional evaluation budget, a deterministic fault-injection hook for
/// tests, and optional observation sinks. Copies share the cancellation
/// flag and the evaluation counter.
///
/// All long-running phases poll the context through PhaseSupervisor
/// checkpoints; on expiry each phase stops at the next checkpoint and
/// returns its best-so-far state rather than an error.
struct RunContext {
  /// Wall-clock deadline; infinite by default.
  Deadline deadline;

  /// Cooperative cancellation; Cancel() stops the solve at the next
  /// checkpoint with TerminationReason::kCancelled.
  CancellationToken cancel;

  /// Solve-wide cap on charged evaluation units (roughly: one inner-loop
  /// step); -1 = unlimited.
  int64_t max_evaluations = -1;

  /// Deterministic fault-injection hook for tests: called at EVERY
  /// checkpoint; returning a reason terminates the phase with exactly that
  /// reason. Must be thread-safe under parallel construction. Null in
  /// production (zero overhead beyond the branch).
  std::function<std::optional<TerminationReason>(
      const SupervisionCheckpoint&)>
      fault_hook;

  /// Telemetry sinks (see src/obs/). Null by default: instrumented code
  /// resolves metric handles / spans only when these are attached, so a
  /// disabled run pays ~one branch per instrumentation site. Both must
  /// outlive the solve and are thread-safe under parallel construction.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;

  /// Observation sinks for the run's facts (phases, incumbents, replica
  /// states, terminations), all written through core/run_events.h and
  /// tabulated in DESIGN.md §11: the live-progress board served at
  /// /progress (src/obs/progress.h), the JSONL flight recorder
  /// (src/obs/journal.h) and the anytime-quality curve (src/obs/curve.h).
  /// Null by default; each must outlive the solve and is thread-safe.
  /// They are whole-run state: portfolio child contexts leave them null.
  obs::ProgressBoard* progress_board = nullptr;
  obs::RunJournal* journal = nullptr;
  obs::AnytimeCurve* curve = nullptr;

  /// Solve-wide evaluation counter shared by all copies of this context.
  std::shared_ptr<std::atomic<int64_t>> evaluations_spent =
      std::make_shared<std::atomic<int64_t>>(0);

  int64_t evaluations() const {
    return evaluations_spent->load(std::memory_order_relaxed);
  }
};

/// Per-phase checkpoint driver. Construct one per phase instance (cheap),
/// call Check() once per unit of work, and stop the phase as soon as it
/// returns a reason. The result is sticky: once tripped, every later
/// Check() returns the same reason, and tripped() exposes it to callers
/// after the loops unwind.
///
/// Overhead: the fast path is an integer increment plus one relaxed atomic
/// load; the clock is only read every `time_check_stride` checkpoints (and
/// on checkpoint 0, so an already-expired deadline trips immediately).
/// When a fault hook or an evaluation budget is active, checkpoints are
/// charged exactly so tests get deterministic trip points.
class PhaseSupervisor {
 public:
  /// `ctx` may be null (no supervision; Check() never trips). `ctx` must
  /// outlive the supervisor.
  PhaseSupervisor(const RunContext* ctx, std::string_view phase,
                  int64_t worker = 0, int64_t time_check_stride = 64);
  ~PhaseSupervisor();

  PhaseSupervisor(const PhaseSupervisor&) = delete;
  PhaseSupervisor& operator=(const PhaseSupervisor&) = delete;

  /// Records one checkpoint charging `evaluations` budget units. Returns
  /// the termination reason when the phase must stop, nullopt to continue.
  std::optional<TerminationReason> Check(int64_t evaluations = 1);

  /// Exactly `n` consecutive Check() calls: the fault hook sees the same
  /// indices, the budget trips at the same index, and every stride
  /// crossing reads the clock and fires its Checkpoint event. Loops that
  /// skip entries whose outcome is already known charge them here. O(1)
  /// plus one slow path per stride crossing when no fault hook and no
  /// budget are set; it falls back to n Check() calls otherwise.
  std::optional<TerminationReason> CheckMany(int64_t n);

  /// The sticky verdict (nullopt while the phase may continue).
  std::optional<TerminationReason> tripped() const { return tripped_; }

  int64_t checkpoints() const { return checkpoints_; }

  /// The supervised context (may be null). Instrumented phases use this to
  /// reach RunContext::metrics / trace without widening every signature.
  const RunContext* context() const { return ctx_; }

 private:
  /// The strided slow path of checkpoint `checkpoints_ - 1`.
  std::optional<TerminationReason> StrideCrossing();

  const RunContext* ctx_;
  std::string_view phase_;
  int64_t worker_;
  int64_t stride_;
  int64_t checkpoints_ = 0;
  int64_t pending_evaluations_ = 0;  // flushed to ctx on the slow path
  std::optional<TerminationReason> tripped_;
};

}  // namespace emp

#endif  // EMP_CORE_RUN_CONTEXT_H_
