#include "service/job_manager.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constraints/query_parser.h"
#include "core/fact_solver.h"
#include "core/report.h"
#include "data/synthetic/dataset_catalog.h"
#include "obs/metrics.h"

namespace emp {
namespace service {
namespace {

/// Holds workers at the top of RunJob until released, and records which
/// jobs have started. Lets tests pin the scheduler into a known state
/// (worker busy, queue full) without sleeping.
class StartGate {
 public:
  std::function<void(int64_t)> Hook() {
    return [this](int64_t id) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        started_.push_back(id);
      }
      cv_.notify_all();
      release_.wait();
    };
  }

  void WaitStarted(int64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      for (int64_t s : started_) {
        if (s == id) return true;
      }
      return false;
    });
  }

  /// One-shot: after this, the hook never blocks again.
  void Release() { promise_.set_value(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int64_t> started_;
  std::promise<void> promise_;
  std::shared_future<void> release_ = promise_.get_future().share();
};

JobRequest TinyRequest() {
  JobRequest request;
  request.instance = "tiny";
  request.query = "SUM(TOTALPOP) >= 20000";
  request.options.seed = 123;
  return request;
}

/// Drops the wall-clock timing lines so two reports of the same solution
/// compare bit-identically.
std::string ScrubTimings(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(JobManagerTest, SolvesToDoneWithResultAndJournal) {
  obs::MetricRegistry metrics;
  JobManager::Options options;
  options.workers = 1;
  options.metrics = &metrics;
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  auto submitted = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  EXPECT_EQ(submitted->solver, "fact");
  EXPECT_EQ(submitted->instance, "tiny");
  EXPECT_EQ(submitted->instance_digest.size(), 16u);
  EXPECT_GE(submitted->queued_ms, 0);

  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, JobState::kDone);

  auto snapshot = (*manager)->Get(submitted->id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, JobState::kDone);
  EXPECT_EQ(snapshot->termination, "converged");
  EXPECT_NE(snapshot->result_json.find("\"p\""), std::string::npos);
  EXPECT_GE(snapshot->finished_ms, snapshot->started_ms);

  auto journal = (*manager)->JournalJsonl(submitted->id);
  ASSERT_TRUE(journal.ok());
  EXPECT_NE(journal->find("job_start"), std::string::npos);
  EXPECT_NE(journal->find(snapshot->instance_digest), std::string::npos);
  EXPECT_NE(journal->find("job_end"), std::string::npos);

  EXPECT_EQ(
      metrics.GetCounter("emp_service_jobs_submitted_total")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("emp_service_jobs_finished_total")->value(),
            1);
}

/// The service path must not perturb the solve: the job's result report
/// is bit-identical (modulo wall-clock timings) to what the CLI path
/// produces from the same instance, query, and seed.
TEST(JobManagerTest, ResultIsBitIdenticalToCliPath) {
  auto manager = JobManager::Create({});
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  auto submitted = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(*state, JobState::kDone);
  auto snapshot = (*manager)->Get(submitted->id);
  ASSERT_TRUE(snapshot.ok());

  // The CLI path: load, parse, solve, report — same seed.
  auto areas = synthetic::MakeCatalogDataset("tiny");
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  auto constraints = ParseConstraints("SUM(TOTALPOP) >= 20000");
  ASSERT_TRUE(constraints.ok()) << constraints.status().ToString();
  SolverOptions options;
  options.seed = 123;
  auto solver = FactSolver::Create(&*areas, *constraints, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto solution = solver->Solve();
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  auto report = SolutionToJson(*areas, *constraints, *solution);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(ScrubTimings(snapshot->result_json), ScrubTimings(*report));
}

TEST(JobManagerTest, FullQueueRejectsWithRecordedVerdict) {
  StartGate gate;
  obs::MetricRegistry metrics;
  JobManager::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.metrics = &metrics;
  options.on_job_started = gate.Hook();
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  // A occupies the worker (held at the gate), B the single queue slot.
  auto a = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  gate.WaitStarted(a->id);
  auto b = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->state, JobState::kQueued);

  // C finds the queue full: rejected, but still a recorded job.
  auto c = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->state, JobState::kRejected);
  EXPECT_NE(c->error.find("queue full"), std::string::npos) << c->error;
  auto c_again = (*manager)->Get(c->id);
  ASSERT_TRUE(c_again.ok());
  EXPECT_EQ(c_again->state, JobState::kRejected);
  EXPECT_EQ(metrics.GetCounter("emp_service_jobs_rejected_total")->value(),
            1);

  gate.Release();
  for (int64_t id : {a->id, b->id}) {
    auto state = (*manager)->WaitTerminal(id);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(*state, JobState::kDone);
  }
  EXPECT_EQ((*manager)->List().size(), 3u);
}

TEST(JobManagerTest, CancelQueuedJobIsImmediate) {
  StartGate gate;
  JobManager::Options options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.on_job_started = gate.Hook();
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  auto running = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(running.ok());
  gate.WaitStarted(running->id);
  auto queued = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(queued.ok());

  auto cancelled = (*manager)->Cancel(queued->id);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled->state, JobState::kCancelled);
  EXPECT_LT(cancelled->started_ms, 0);  // never picked up

  gate.Release();
  auto state = (*manager)->WaitTerminal(running->id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, JobState::kDone);
}

TEST(JobManagerTest, CancelRunningJobStopsAtNextCheckpoint) {
  StartGate gate;
  JobManager::Options options;
  options.workers = 1;
  options.on_job_started = gate.Hook();
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  JobRequest request;
  request.instance = "2k";  // big enough that it cannot finish instantly
  request.query = "SUM(TOTALPOP) >= 10000";
  auto submitted = (*manager)->Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  gate.WaitStarted(submitted->id);

  // Cancel while the worker is held at the gate: the token is set before
  // the solve's first supervision checkpoint, so the outcome is
  // deterministic.
  auto ack = (*manager)->Cancel(submitted->id);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->state, JobState::kRunning);  // cooperative, not instant
  gate.Release();

  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, JobState::kCancelled);
  auto snapshot = (*manager)->Get(submitted->id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->termination, "cancelled");

  // Cancelling a terminal job is a no-op, not an error.
  auto again = (*manager)->Cancel(submitted->id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->state, JobState::kCancelled);
}

TEST(JobManagerTest, DeadlineBudgetReportsDeadlineTermination) {
  auto manager = JobManager::Create({});
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  JobRequest request;
  request.instance = "2k";
  request.query = "SUM(TOTALPOP) >= 10000";
  request.options.time_budget_ms = 50;
  // A no-improve limit no budget can reach keeps tabu running until the
  // deadline, however fast the solver gets.
  request.options.tabu_max_no_improve = int64_t{1} << 40;
  auto submitted = (*manager)->Submit(request);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();

  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  auto snapshot = (*manager)->Get(submitted->id);
  ASSERT_TRUE(snapshot.ok());
  // The 50 ms budget cuts the run short and it says so, but it still
  // counts as done (a degraded solution is a result).
  EXPECT_EQ(snapshot->state, JobState::kDone);
  EXPECT_EQ(snapshot->termination, "deadline-exceeded");
}

TEST(JobManagerTest, BadRequestsFailEagerlyWithExactStatus) {
  auto manager = JobManager::Create({});
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  JobRequest unknown_instance = TinyRequest();
  unknown_instance.instance = "atlantis";
  auto a = (*manager)->Submit(unknown_instance);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kNotFound);
  EXPECT_NE(a.status().message().find("instance 'atlantis'"),
            std::string::npos)
      << a.status().message();

  JobRequest bad_query = TinyRequest();
  bad_query.query = "FOO(TOTALPOP) >= 1";
  auto b = (*manager)->Submit(bad_query);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().message(), "unknown aggregate 'FOO'");

  JobRequest bad_attribute = TinyRequest();
  bad_attribute.query = "SUM(NO_SUCH_COLUMN) >= 1";
  auto c = (*manager)->Submit(bad_attribute);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(c.status().message(),
            "no attribute column named 'NO_SUCH_COLUMN'");

  JobRequest bad_solver = TinyRequest();
  bad_solver.solver = "simplex";
  auto d = (*manager)->Submit(bad_solver);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);

  // None of these occupied a queue slot or recorded a job.
  EXPECT_TRUE((*manager)->List().empty());
}

TEST(JobManagerTest, WaitTerminalTimesOutOnHeldJob) {
  StartGate gate;
  JobManager::Options options;
  options.workers = 1;
  options.on_job_started = gate.Hook();
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  auto submitted = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(submitted.ok());
  gate.WaitStarted(submitted->id);

  auto timed_out = (*manager)->WaitTerminal(submitted->id, 20);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kFailedPrecondition);

  auto unknown = (*manager)->WaitTerminal(9999, 20);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  gate.Release();
  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, JobState::kDone);
}

TEST(JobManagerTest, ShutdownCancelsQueuedJobsAndRefusesNewOnes) {
  StartGate gate;
  JobManager::Options options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.on_job_started = gate.Hook();
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  auto running = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(running.ok());
  gate.WaitStarted(running->id);
  auto queued = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(queued.ok());

  // Shut down while the worker is still held at the gate: the queued job
  // must go terminal without ever being picked up, and the running job's
  // token is cancelled before its solve begins.
  std::thread shutdown_thread([&] { (*manager)->Shutdown(); });
  auto queued_state = (*manager)->WaitTerminal(queued->id);
  ASSERT_TRUE(queued_state.ok()) << queued_state.status().ToString();
  EXPECT_EQ(*queued_state, JobState::kCancelled);
  gate.Release();
  shutdown_thread.join();

  auto queued_after = (*manager)->Get(queued->id);
  ASSERT_TRUE(queued_after.ok());
  EXPECT_EQ(queued_after->state, JobState::kCancelled);
  EXPECT_EQ(queued_after->error, "cancelled by shutdown");
  auto running_after = (*manager)->Get(running->id);
  ASSERT_TRUE(running_after.ok());
  EXPECT_EQ(running_after->state, JobState::kCancelled);

  auto refused = (*manager)->Submit(TinyRequest());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

/// The acceptance scenario: more concurrent submitters than worker + queue
/// slots. Every request must come back with a terminal verdict — done or
/// rejected — and nothing may hang. Run under TSan via
/// tools/run_sanitized_tests.sh.
TEST(JobManagerTest, ConcurrentSubmissionsAllReachTerminalVerdicts) {
  JobManager::Options options;
  options.workers = 2;
  options.queue_capacity = 4;
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int64_t> ids(kClients, -1);
  std::vector<JobState> admissions(kClients, JobState::kQueued);
  std::atomic<int> errors{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      JobRequest request = TinyRequest();
      request.options.seed = 1000 + i;
      auto submitted = (*manager)->Submit(request);
      if (!submitted.ok()) {
        errors.fetch_add(1);
        return;
      }
      ids[i] = submitted->id;
      admissions[i] = submitted->state;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);

  int done = 0;
  int rejected = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_GE(ids[i], 0) << "client " << i << " recorded no job";
    if (admissions[i] == JobState::kRejected) {
      ++rejected;
      continue;
    }
    auto state = (*manager)->WaitTerminal(ids[i], 60000);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_EQ(*state, JobState::kDone);
    ++done;
  }
  EXPECT_EQ(done + rejected, kClients);
  EXPECT_GE(done, 1);  // the pool made progress
  EXPECT_EQ((*manager)->List().size(), static_cast<size_t>(kClients));
}

// List()'s documented contract: ascending job id, which is submission
// order — a dashboard polling /jobs sees jobs in the order clients
// submitted them, regardless of completion order.
TEST(JobManagerTest, ListIsSubmissionOrdered) {
  JobManager::Options options;
  options.workers = 2;
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  std::vector<int64_t> submitted_order;
  for (int i = 0; i < 5; ++i) {
    JobRequest request = TinyRequest();
    request.options.seed = 100 + static_cast<uint64_t>(i);
    auto submitted = (*manager)->Submit(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    submitted_order.push_back(submitted->id);
  }
  for (int64_t id : submitted_order) {
    ASSERT_TRUE((*manager)->WaitTerminal(id).ok());
  }
  // Two workers finished these in whatever order; the listing must not
  // reflect that.
  std::vector<JobSnapshot> listed = (*manager)->List();
  ASSERT_EQ(listed.size(), submitted_order.size());
  for (size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i].id, submitted_order[i]) << "position " << i;
    if (i > 0) EXPECT_GT(listed[i].id, listed[i - 1].id);
  }
}

TEST(JobManagerTest, TraceAndCurveSurfaceThroughManager) {
  auto manager = JobManager::Create({});
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  auto submitted = (*manager)->Submit(TinyRequest());
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  // The trace id exists from admission (before the job even runs) and is
  // stable for the job's lifetime.
  EXPECT_EQ(submitted->trace_id.size(), 16u);
  auto state = (*manager)->WaitTerminal(submitted->id);
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(*state, JobState::kDone);
  auto snapshot = (*manager)->Get(submitted->id);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->trace_id, submitted->trace_id);

  auto trace = (*manager)->TraceJson(submitted->id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace->find("\"queue.wait\""), std::string::npos);
  EXPECT_NE(trace->find("\"instance.bind\""), std::string::npos);
  EXPECT_NE(trace->find(submitted->trace_id), std::string::npos);

  auto curve = (*manager)->CurveJson(submitted->id);
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  EXPECT_NE(curve->find("\"samples\""), std::string::npos);
  EXPECT_NE(curve->find("\"best_p\""), std::string::npos);

  // The journal carries the trace id in job_start and the full anytime
  // curve as its own record — with job_end still the last line.
  auto journal = (*manager)->JournalJsonl(submitted->id);
  ASSERT_TRUE(journal.ok());
  EXPECT_NE(journal->find(submitted->trace_id), std::string::npos);
  EXPECT_NE(journal->find("anytime_curve"), std::string::npos);
  const size_t last_line_start =
      journal->rfind('\n', journal->size() - 2);
  EXPECT_NE(journal->find("job_end", last_line_start),
            std::string::npos);

  // Both endpoints 404 for unknown jobs.
  EXPECT_FALSE((*manager)->TraceJson(9999).ok());
  EXPECT_FALSE((*manager)->CurveJson(9999).ok());

  // The terminal job landed in the stats plane.
  EXPECT_EQ((*manager)->stats().recorded_jobs(), 1);
  EXPECT_NE((*manager)->StatsJson().find("\"fact\""), std::string::npos);
}

TEST(JobManagerTest, CreateValidatesPoolShape) {
  JobManager::Options bad_workers;
  bad_workers.workers = 0;
  EXPECT_FALSE(JobManager::Create(bad_workers).ok());
  JobManager::Options bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_FALSE(JobManager::Create(bad_queue).ok());
}

}  // namespace
}  // namespace service
}  // namespace emp
