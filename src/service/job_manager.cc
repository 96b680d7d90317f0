#include "service/job_manager.h"

#include <utility>

#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "core/report.h"
#include "data/loader.h"
#include "data/synthetic/dataset_catalog.h"
#include "obs/curve.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {
namespace service {

namespace {

/// FNV-1a over (job id, admission time, instance digest): a stable 16-hex
/// id that distinguishes re-submissions of the same instance without any
/// global randomness source.
std::string MakeTraceId(int64_t job_id, int64_t queued_ms,
                        std::string_view instance_digest) {
  uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix_u64 = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }
  };
  mix_u64(static_cast<uint64_t>(job_id));
  mix_u64(static_cast<uint64_t>(queued_ms));
  for (char c : instance_digest) {
    mix_byte(static_cast<unsigned char>(c));
  }
  return obs::DigestHex(h);
}

}  // namespace

std::string_view JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool IsTerminalJobState(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

/// Everything the manager tracks about one job. Guarded by JobManager::mu_
/// except: `board` and `journal` are internally synchronized (the solve
/// writes them without the manager lock), and `cancel` copies share an
/// atomic flag.
struct JobManager::Job {
  explicit Job(size_t journal_max_records) : journal(journal_max_records) {}

  int64_t id = 0;
  JobState state = JobState::kQueued;
  std::string instance;
  std::string instance_digest;
  std::string trace_id;
  std::string error;
  std::string termination;
  std::string result_json;
  int64_t queued_ms = -1;
  int64_t started_ms = -1;
  int64_t finished_ms = -1;

  /// Keeps the cached instance alive for the solver's borrowed pointer.
  std::shared_ptr<const AreaSet> areas;
  std::unique_ptr<Solver> solver;
  std::string solver_name;
  CancellationToken cancel;
  obs::ProgressBoard board;
  obs::RunJournal journal;
  /// Per-job timeline, epoch = admission (construction at Submit), so the
  /// queue-wait span starts at ts 0. Internally synchronized like the
  /// board/journal.
  obs::TraceBuffer trace{4096};
  /// Anytime-quality recorder, wall clock also starting at admission.
  obs::AnytimeCurve curve;
};

JobManager::JobManager(Options options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()),
      stats_(ServiceStats::Options{options_.metrics, {}, nullptr}) {}

Result<std::unique_ptr<JobManager>> JobManager::Create(Options options) {
  if (options.workers < 1) {
    return Status::InvalidArgument("JobManager: workers must be >= 1, got " +
                                   std::to_string(options.workers));
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "JobManager: queue_capacity must be >= 1, got " +
        std::to_string(options.queue_capacity));
  }
  std::unique_ptr<JobManager> manager(new JobManager(std::move(options)));
  manager->workers_.reserve(manager->options_.workers);
  for (int i = 0; i < manager->options_.workers; ++i) {
    manager->workers_.emplace_back([raw = manager.get()] {
      raw->WorkerLoop();
    });
  }
  return manager;
}

JobManager::~JobManager() { Shutdown(); }

int64_t JobManager::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Result<std::shared_ptr<const AreaSet>> JobManager::LoadInstance(
    const std::string& reference) {
  if (reference.empty()) {
    return Status::InvalidArgument("job request: empty instance reference");
  }
  {
    std::lock_guard<std::mutex> lock(instances_mu_);
    auto it = instances_.find(reference);
    if (it != instances_.end()) return it->second;
  }
  // Synthesize / load outside the cache lock — both paths are
  // deterministic for a given reference, so a racing duplicate load
  // produces an identical instance and the loser is simply dropped.
  // Compact digests are re-verified here: the cache below dedupes by
  // digest, so a file whose unverified header claimed another instance's
  // digest would bind every later job to the wrong data.
  LoaderOptions loader_options;
  loader_options.verify_compact_digest = true;
  Result<AreaSet> loaded = synthetic::FindDataset(reference).ok()
                               ? synthetic::MakeCatalogDataset(reference)
                               : LoadAreaSetAuto(reference, loader_options);
  if (!loaded.ok()) {
    return Status::NotFound("instance '" + reference +
                            "' is neither a catalog dataset nor a loadable "
                            "instance file: " + loaded.status().message());
  }
  // Memoized on the instance, so this is paid once per load, not per job
  // (for compact images the verified load above already computed it).
  const uint64_t digest = loaded->InstanceDigest();
  auto areas = std::make_shared<const AreaSet>(*std::move(loaded));
  std::lock_guard<std::mutex> lock(instances_mu_);
  // Dedupe by digest: if any reference already produced this exact
  // instance, every new reference shares that one image.
  auto [digest_it, fresh] = instances_by_digest_.emplace(digest, areas);
  auto [it, inserted] = instances_.emplace(reference, digest_it->second);
  return it->second;
}

Result<JobSnapshot> JobManager::Submit(const JobRequest& request) {
  // Bind the whole request before taking a queue slot, so a bad request
  // fails with the library's exact Status and is never admitted.
  Stopwatch bind_timer;
  EMP_ASSIGN_OR_RETURN(std::shared_ptr<const AreaSet> areas,
                       LoadInstance(request.instance));
  const double bind_ms = bind_timer.ElapsedSeconds() * 1000.0;
  SolverSpec spec;
  spec.solver = request.solver;
  spec.areas = areas.get();
  spec.query = request.query;
  spec.attribute = request.attribute;
  spec.threshold = request.threshold;
  spec.options = request.options;
  EMP_ASSIGN_OR_RETURN(std::unique_ptr<Solver> solver, CreateSolver(spec));

  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("JobManager is shut down");
  }
  auto job = std::make_unique<Job>(options_.journal_max_records);
  job->id = next_id_++;
  job->instance = request.instance;
  job->instance_digest = obs::DigestHex(areas->InstanceDigest());
  job->areas = std::move(areas);
  job->solver_name = std::string(solver->name());
  job->solver = std::move(solver);
  job->queued_ms = NowMs();
  job->trace_id = MakeTraceId(job->id, job->queued_ms, job->instance_digest);
  // Instance bind (load/synthesize or cache hit) happened just before the
  // trace epoch; record it as a point sample carrying its cost in ms.
  job->trace.RecordInstant("instance.bind", bind_ms);

  if (options_.metrics != nullptr) {
    options_.metrics
        ->GetCounter("emp_service_jobs_submitted_total",
                     "Solve jobs admitted or rejected by the service.")
        ->Add(1);
  }

  if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
    job->state = JobState::kRejected;
    job->error = "queue full: " + std::to_string(queue_.size()) +
                 " jobs waiting (capacity " +
                 std::to_string(options_.queue_capacity) + ")";
    job->finished_ms = job->queued_ms;
    if (options_.metrics != nullptr) {
      options_.metrics
          ->GetCounter("emp_service_jobs_rejected_total",
                       "Solve jobs refused at admission (queue full).")
          ->Add(1);
    }
    Job& ref = *job;
    jobs_.emplace(ref.id, std::move(job));
    RecordTerminalLocked(ref);
    terminal_cv_.notify_all();
    return SnapshotLocked(ref, /*include_payloads=*/true);
  }

  Job& ref = *job;
  jobs_.emplace(ref.id, std::move(job));
  queue_.push_back(ref.id);
  work_cv_.notify_one();
  return SnapshotLocked(ref, /*include_payloads=*/true);
}

void JobManager::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_) return;
      const int64_t id = queue_.front();
      queue_.pop_front();
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      // A queued job cancelled before pickup is already terminal.
      if (it->second->state != JobState::kQueued) continue;
      job = it->second.get();
      job->state = JobState::kRunning;
      job->started_ms = NowMs();
    }
    // Queue wait as a first-class span: the trace epoch is admission, so
    // [0, now] is exactly the time this job sat waiting for a worker.
    job->trace.RecordSpan("queue.wait", 0, job->trace.NowMicros(),
                          /*worker=*/0);
    if (options_.on_job_started) options_.on_job_started(job->id);
    RunJob(*job);
  }
}

void JobManager::RunJob(Job& job) {
  // The audit key: job id + instance digest, as the first record of the
  // per-job journal (the solver's own run_start repeats the digest).
  job.journal.Append("job_start", [&job](JsonWriter& w) {
    w.Key("job_id");
    w.Int(job.id);
    w.Key("trace_id");
    w.String(job.trace_id);
    w.Key("instance");
    w.String(job.instance);
    w.Key("instance_digest");
    w.String(job.instance_digest);
    w.Key("solver");
    w.String(job.solver_name);
  });

  RunContext ctx = MakeRunContext(job.solver->options());
  ctx.cancel = job.cancel;  // copies share the flag
  ctx.progress_board = &job.board;
  ctx.journal = &job.journal;
  ctx.trace = &job.trace;
  ctx.curve = &job.curve;
  Result<Solution> result = job.solver->Solve(ctx);

  std::lock_guard<std::mutex> lock(mu_);
  if (result.ok()) {
    const Solution& solution = *result;
    job.termination = std::string(
        TerminationReasonName(solution.termination_reason));
    job.state = solution.termination_reason == TerminationReason::kCancelled
                    ? JobState::kCancelled
                    : JobState::kDone;
    Result<std::string> report = SolutionToJson(
        *job.areas, job.solver->constraints(), solution);
    if (report.ok()) {
      job.result_json = *std::move(report);
    } else {
      job.state = JobState::kFailed;
      job.error = "result serialization failed: " +
                  report.status().message();
    }
  } else {
    job.state = JobState::kFailed;
    job.error = result.status().message();
  }
  job.finished_ms = NowMs();
  // The anytime curve goes into the journal too (forced, like job_end),
  // so the audit trail alone reconstructs quality-vs-time.
  job.journal.Append(
      "anytime_curve",
      [&job](JsonWriter& w) {
        w.Key("job_id");
        w.Int(job.id);
        w.Key("curve");
        w.Raw(job.curve.ToJson());
      },
      /*force=*/true);
  job.journal.Append(
      "job_end",
      [&job](JsonWriter& w) {
        w.Key("job_id");
        w.Int(job.id);
        w.Key("state");
        w.String(JobStateName(job.state));
        if (!job.termination.empty()) {
          w.Key("termination");
          w.String(job.termination);
        }
        if (!job.error.empty()) {
          w.Key("error");
          w.String(job.error);
        }
      },
      /*force=*/true);
  job.solver.reset();  // the solver borrowed areas; drop it first
  CountFinishedLocked(job);
  RecordTerminalLocked(job);
  terminal_cv_.notify_all();
}

void JobManager::CountFinishedLocked(const Job& job) {
  if (options_.metrics == nullptr) return;
  options_.metrics
      ->GetCounter("emp_service_jobs_finished_total",
                   "Solve jobs reaching done/failed/cancelled.")
      ->Add(1);
  (void)job;
}

void JobManager::RecordTerminalLocked(const Job& job) {
  ServiceStats::Outcome outcome;
  switch (job.state) {
    case JobState::kDone:
      outcome = ServiceStats::Outcome::kDone;
      break;
    case JobState::kFailed:
      outcome = ServiceStats::Outcome::kFailed;
      break;
    case JobState::kCancelled:
      outcome = ServiceStats::Outcome::kCancelled;
      break;
    case JobState::kRejected:
      outcome = ServiceStats::Outcome::kRejected;
      break;
    default:
      return;  // not terminal; nothing to record
  }
  // Dimensions a job never reached stay negative and are skipped by the
  // stats: a rejected job has no queue wait or solve time, a job
  // cancelled before pickup no solve time.
  const bool picked_up = job.started_ms >= 0;
  const int64_t queue_wait_ms =
      outcome == ServiceStats::Outcome::kRejected
          ? -1
          : (picked_up ? job.started_ms : job.finished_ms) - job.queued_ms;
  const int64_t solve_ms =
      picked_up ? job.finished_ms - job.started_ms : -1;
  const int64_t e2e_ms = job.finished_ms - job.queued_ms;
  stats_.RecordTerminal(job.solver_name, outcome, queue_wait_ms, solve_ms,
                        e2e_ms);
}

Result<JobSnapshot> JobManager::Cancel(int64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  Job& job = *it->second;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    job.error = "cancelled before pickup";
    job.finished_ms = NowMs();
    job.journal.Append(
        "job_end",
        [&job](JsonWriter& w) {
          w.Key("job_id");
          w.Int(job.id);
          w.Key("state");
          w.String(JobStateName(job.state));
          w.Key("error");
          w.String(job.error);
        },
        /*force=*/true);
    CountFinishedLocked(job);
    RecordTerminalLocked(job);
    terminal_cv_.notify_all();
  } else if (job.state == JobState::kRunning) {
    job.cancel.Cancel();  // observed at the solver's next checkpoint
  }
  return SnapshotLocked(job, /*include_payloads=*/true);
}

JobSnapshot JobManager::SnapshotLocked(const Job& job,
                                       bool include_payloads) const {
  JobSnapshot snapshot;
  snapshot.id = job.id;
  snapshot.state = job.state;
  snapshot.solver = job.solver_name;
  snapshot.instance = job.instance;
  snapshot.instance_digest = job.instance_digest;
  snapshot.trace_id = job.trace_id;
  snapshot.error = job.error;
  snapshot.termination = job.termination;
  snapshot.queued_ms = job.queued_ms;
  snapshot.started_ms = job.started_ms;
  snapshot.finished_ms = job.finished_ms;
  if (include_payloads) {
    snapshot.progress_json = obs::ProgressToJson(job.board.Read());
    snapshot.result_json = job.result_json;
  }
  return snapshot;
}

Result<JobSnapshot> JobManager::Get(int64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  return SnapshotLocked(*it->second, /*include_payloads=*/true);
}

std::vector<JobSnapshot> JobManager::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    out.push_back(SnapshotLocked(*job, /*include_payloads=*/false));
  }
  return out;
}

Result<std::string> JobManager::JournalJsonl(int64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  return it->second->journal.ToJsonl();
}

Result<std::string> JobManager::TraceJson(int64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  // The buffer is internally synchronized, so serializing a running job's
  // live timeline is safe — the export is simply a point-in-time view.
  return it->second->trace.ToJson(it->second->trace_id);
}

Result<std::string> JobManager::CurveJson(int64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  return it->second->curve.ToJson();
}

Result<JobState> JobManager::WaitTerminal(int64_t job_id, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id " + std::to_string(job_id));
  }
  Job* job = it->second.get();
  const auto terminal = [job] { return IsTerminalJobState(job->state); };
  if (timeout_ms < 0) {
    terminal_cv_.wait(lock, terminal);
  } else if (!terminal_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_ms), terminal)) {
    return Status::FailedPrecondition(
        "job " + std::to_string(job_id) + " still " +
        std::string(JobStateName(job->state)) + " after " +
        std::to_string(timeout_ms) + "ms");
  }
  return job->state;
}

void JobManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // fall through to the joins below (idempotent)
    }
    shutdown_ = true;
    for (const int64_t id : queue_) {
      auto it = jobs_.find(id);
      if (it == jobs_.end() || it->second->state != JobState::kQueued) {
        continue;
      }
      Job& job = *it->second;
      job.state = JobState::kCancelled;
      job.error = "cancelled by shutdown";
      job.finished_ms = NowMs();
      CountFinishedLocked(job);
      RecordTerminalLocked(job);
    }
    queue_.clear();
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) job->cancel.Cancel();
    }
    work_cv_.notify_all();
    terminal_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace service
}  // namespace emp
