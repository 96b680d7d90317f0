#ifndef EMP_SERVICE_JOB_MANAGER_H_
#define EMP_SERVICE_JOB_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/solver.h"
#include "core/solver_options.h"
#include "data/area_set.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "service/service_stats.h"

namespace emp {

namespace obs {
class MetricRegistry;
}  // namespace obs

namespace service {

/// Lifecycle of one solve job. `kQueued` and `kRunning` are transient;
/// the other four are terminal. `kRejected` is a *recorded* verdict, not
/// a dropped request: an admission-control refusal still creates a job so
/// the audit trail shows what overload turned away.
///
///   queued ──> running ──> done | failed | cancelled
///     │                               ▲
///     └── cancel before pickup ───────┘
///   (admission refusal) ──> rejected
enum class JobState : int32_t {
  kQueued = 0,
  kRunning,
  kDone,       // solve returned a Solution (possibly degraded by budget)
  kFailed,     // solve returned an error Status (infeasible, invalid, ...)
  kCancelled,  // cancelled before pickup, or solve observed the token
  kRejected,   // refused at admission (queue full)
};

/// Canonical lower-case name ("queued", "running", "done", ...).
std::string_view JobStateName(JobState state);

/// True for done/failed/cancelled/rejected.
bool IsTerminalJobState(JobState state);

/// One solve request, the deserialized form of the POST /solve body.
/// `instance` names a synthetic catalog dataset ("tiny", "2k", ...) or,
/// when no catalog entry matches, a file path — a compact .emp image
/// (mmap'd, shared) or a CSV for the loader. The
/// solver/query/attribute/threshold fields mirror SolverSpec; options
/// carry the supervision budget (time_budget_ms / max_evaluations) the
/// job's RunContext enforces; that context also carries the job's own
/// progress board, journal and curve, which the service serves.
struct JobRequest {
  std::string instance;
  std::string solver = "fact";
  std::string query;
  std::string attribute;
  double threshold = -1.0;
  SolverOptions options;
};

/// Point-in-time copy of one job's public fields. `progress_json` is the
/// live ProgressToJson document of the job's own board (idle snapshot
/// before the job starts); `result_json` is the SolutionToJson report,
/// present only in terminal states that produced a solution (done, and
/// cancelled runs that degraded to a partial solution). Times are
/// milliseconds since the manager was created, -1 where not reached.
struct JobSnapshot {
  int64_t id = 0;
  JobState state = JobState::kQueued;
  std::string solver;
  std::string instance;
  std::string instance_digest;  // 16 hex chars once the instance is bound
  /// 16-hex job trace id (FNV-1a over id, admission time, and instance
  /// digest), assigned at admission and threaded through the job journal
  /// and the Chrome-trace export.
  std::string trace_id;
  std::string error;            // failed/rejected detail
  std::string termination;      // TerminationReasonName once solved
  std::string progress_json;
  std::string result_json;
  int64_t queued_ms = -1;
  int64_t started_ms = -1;
  int64_t finished_ms = -1;
};

/// The solve service's scheduler: a bounded FIFO admission queue in front
/// of a fixed worker pool. Submit() validates the whole request eagerly —
/// instance reference, solver name, S17 query syntax, constraint binding,
/// option domains — so a malformed request fails with the library's exact
/// kInvalidArgument/kNotFound Status (the HTTP layer surfaces it as a
/// 400/404) and never occupies a queue slot. A valid request past a full
/// queue is recorded as a `rejected` job (HTTP 429): overload degrades
/// into fast refusals instead of pileup.
///
/// Each job runs under its own RunContext (deadline + evaluation budget
/// from its SolverOptions, the job's cancellation token, a per-job
/// ProgressBoard, and a per-job RunJournal whose job_start record keys the
/// audit trail by job id + instance digest). Instances are cached twice
/// over: by reference, so N jobs against "2k" synthesize it once, and by
/// instance digest, so different references to the same data — a catalog
/// name, its packed .emp file, an exported CSV — share one image.
///
/// Thread-safety: every public method is safe from any thread. Snapshots
/// are copies; nothing returned borrows manager-internal state.
class JobManager {
 public:
  struct Options {
    /// Worker threads executing jobs; >= 1.
    int workers = 2;
    /// Bounded admission queue: at most this many jobs waiting (running
    /// jobs do not count); >= 1. The (workers + queue_capacity + 1)-th
    /// concurrent submission is rejected.
    int queue_capacity = 8;
    /// Bound for each per-job journal.
    size_t journal_max_records = 4096;
    /// Service-level counters (emp_service_jobs_{submitted,rejected,
    /// finished}_total); may be null.
    obs::MetricRegistry* metrics = nullptr;
    /// Test hook: called on the worker thread right after a job enters
    /// kRunning and before its solve starts. May block — tests use it as
    /// a gate to hold a worker busy deterministically. Null in production.
    std::function<void(int64_t job_id)> on_job_started;
  };

  /// Validates options and starts the worker pool.
  static Result<std::unique_ptr<JobManager>> Create(Options options);

  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits one job. Returns the new job's snapshot — state kQueued, or
  /// kRejected when the queue is full (still a recorded job; the HTTP
  /// layer maps it to 429). Errors mean the request itself is bad
  /// (unknown instance/solver, malformed query, out-of-domain options)
  /// or the manager is shut down; no job is recorded for those.
  Result<JobSnapshot> Submit(const JobRequest& request);

  /// Cooperative cancellation. A queued job goes terminal immediately; a
  /// running job has its token cancelled and goes terminal at the
  /// solver's next supervision checkpoint (the returned snapshot still
  /// says kRunning). Cancelling a terminal job is a no-op. NotFound for
  /// unknown ids.
  Result<JobSnapshot> Cancel(int64_t job_id);

  /// Snapshot of one job (NotFound for unknown ids).
  Result<JobSnapshot> Get(int64_t job_id) const;

  /// Snapshots of every job, without the (possibly large) result_json /
  /// progress_json payloads. Ordering guarantee: ascending job id, which
  /// IS submission order — ids are assigned from a counter under the
  /// manager lock at admission, and the backing map iterates in key
  /// order. Clients (and the /jobs endpoint) may rely on it; pinned by
  /// service_test.
  std::vector<JobSnapshot> List() const;

  /// The job's journal as JSONL (NotFound for unknown ids).
  Result<std::string> JournalJsonl(int64_t job_id) const;

  /// The job's per-job timeline as Chrome-trace JSON — queue wait,
  /// instance bind, solve/construction/tabu spans recorded while it ran —
  /// stamped with its trace id. NotFound for unknown ids.
  Result<std::string> TraceJson(int64_t job_id) const;

  /// The job's anytime-quality curve (obs::AnytimeCurve::ToJson):
  /// (wall_ms, best_p, heterogeneity, evaluations) samples recorded on
  /// every incumbent improvement plus coarse ticks. NotFound for unknown
  /// ids.
  Result<std::string> CurveJson(int64_t job_id) const;

  /// Service-level latency/throughput document (see ServiceStats).
  std::string StatsJson() const { return stats_.ToJson(); }

  /// Streaming latency accounting, fed once per terminal job.
  const ServiceStats& stats() const { return stats_; }

  /// Blocks until the job is terminal or `timeout_ms` elapses (-1 waits
  /// forever). Returns the terminal state, or FailedPrecondition on
  /// timeout, or NotFound for unknown ids.
  Result<JobState> WaitTerminal(int64_t job_id, int64_t timeout_ms = -1);

  /// Cancels all queued and running jobs and joins the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  int queue_capacity() const { return options_.queue_capacity; }
  int workers() const { return options_.workers; }

 private:
  struct Job;

  explicit JobManager(Options options);

  void WorkerLoop();
  void RunJob(Job& job);
  Result<std::shared_ptr<const AreaSet>> LoadInstance(
      const std::string& reference);
  JobSnapshot SnapshotLocked(const Job& job, bool include_payloads) const;
  int64_t NowMs() const;
  void CountFinishedLocked(const Job& job);
  /// Feeds ServiceStats from a job that just went terminal (state and the
  /// queued/started/finished timestamps must be final).
  void RecordTerminalLocked(const Job& job);

  const Options options_;
  const std::chrono::steady_clock::time_point epoch_;
  ServiceStats stats_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // workers wait for queue entries
  std::condition_variable terminal_cv_;  // WaitTerminal waiters
  bool shutdown_ = false;
  int64_t next_id_ = 1;
  std::map<int64_t, std::unique_ptr<Job>> jobs_;
  std::deque<int64_t> queue_;

  std::mutex instances_mu_;
  std::map<std::string, std::shared_ptr<const AreaSet>> instances_;
  // Canonical instance per digest; references dedupe through this map.
  std::map<uint64_t, std::shared_ptr<const AreaSet>> instances_by_digest_;

  std::vector<std::thread> workers_;
};

}  // namespace service
}  // namespace emp

#endif  // EMP_SERVICE_JOB_MANAGER_H_
