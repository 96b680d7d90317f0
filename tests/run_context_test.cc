#include "core/run_context.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solver_options.h"
#include "obs/progress.h"

namespace emp {
namespace {

TEST(TerminationReasonTest, NamesAreCanonical) {
  EXPECT_EQ(TerminationReasonName(TerminationReason::kConverged), "converged");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kDeadlineExceeded),
            "deadline-exceeded");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kCancelled), "cancelled");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kBudgetExhausted),
            "budget-exhausted");
  EXPECT_EQ(TerminationReasonName(TerminationReason::kFaultInjected),
            "fault-injected");
}

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(d.RemainingMillis() > 1e18);
}

TEST(DeadlineTest, NegativeMillisMeansInfinite) {
  EXPECT_TRUE(Deadline::AfterMillis(-1).infinite());
  EXPECT_TRUE(Deadline::AfterMillis(-100).infinite());
}

TEST(DeadlineTest, ZeroMillisExpiresImmediately) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 0.0);
}

TEST(CancellationTokenTest, CopiesShareTheFlag) {
  CancellationToken a;
  CancellationToken b = a;
  EXPECT_FALSE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
  b.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(CancellationTokenTest, CancelFromAnotherThreadIsObserved) {
  CancellationToken token;
  std::thread t([token]() mutable { token.Cancel(); });
  t.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(PhaseSupervisorTest, NullContextNeverTrips) {
  PhaseSupervisor supervisor(nullptr, "test");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(supervisor.Check().has_value());
  }
  EXPECT_FALSE(supervisor.tripped().has_value());
  EXPECT_EQ(supervisor.checkpoints(), 1000);
}

TEST(PhaseSupervisorTest, UnboundedContextNeverTrips) {
  RunContext ctx;
  PhaseSupervisor supervisor(&ctx, "test");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(supervisor.Check().has_value());
  }
  EXPECT_FALSE(supervisor.tripped().has_value());
}

TEST(PhaseSupervisorTest, ExpiredDeadlineTripsOnFirstCheckpoint) {
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  PhaseSupervisor supervisor(&ctx, "test");
  auto verdict = supervisor.Check();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, TerminationReason::kDeadlineExceeded);
}

TEST(PhaseSupervisorTest, DeadlineIsOnlyReadOnTheStride) {
  // An expired deadline installed after checkpoint 0 is noticed at the
  // next stride multiple, not in between.
  RunContext ctx;
  ctx.deadline = Deadline::AfterMillis(0);
  PhaseSupervisor supervisor(&ctx, "test", /*worker=*/0,
                             /*time_check_stride=*/8);
  // Checkpoint 0 is a stride point: trips right away with stride 8 too.
  EXPECT_TRUE(supervisor.Check().has_value());
}

TEST(PhaseSupervisorTest, CancellationTripsAtNextCheckpoint) {
  RunContext ctx;
  PhaseSupervisor supervisor(&ctx, "test");
  EXPECT_FALSE(supervisor.Check().has_value());
  ctx.cancel.Cancel();
  auto verdict = supervisor.Check();
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, TerminationReason::kCancelled);
}

TEST(PhaseSupervisorTest, VerdictIsSticky) {
  RunContext ctx;
  ctx.cancel.Cancel();
  PhaseSupervisor supervisor(&ctx, "test");
  EXPECT_EQ(supervisor.Check(), TerminationReason::kCancelled);
  // Un-cancelling cannot happen in the API; the sticky verdict also
  // survives any later state: every Check keeps returning it.
  EXPECT_EQ(supervisor.Check(), TerminationReason::kCancelled);
  EXPECT_EQ(supervisor.tripped(), TerminationReason::kCancelled);
}

TEST(PhaseSupervisorTest, BudgetTripsDeterministically) {
  RunContext ctx;
  ctx.max_evaluations = 10;
  PhaseSupervisor supervisor(&ctx, "test");
  int allowed = 0;
  for (int i = 0; i < 100; ++i) {
    if (supervisor.Check()) break;
    ++allowed;
  }
  // Exactly 10 one-evaluation checkpoints pass; the 11th trips.
  EXPECT_EQ(allowed, 10);
  EXPECT_EQ(supervisor.tripped(), TerminationReason::kBudgetExhausted);
  EXPECT_GE(ctx.evaluations(), 10);
}

TEST(PhaseSupervisorTest, BudgetIsSharedAcrossSupervisors) {
  RunContext ctx;
  ctx.max_evaluations = 10;
  {
    PhaseSupervisor first(&ctx, "phase-one");
    for (int i = 0; i < 6; ++i) EXPECT_FALSE(first.Check().has_value());
  }
  PhaseSupervisor second(&ctx, "phase-two");
  int allowed = 0;
  for (int i = 0; i < 100; ++i) {
    if (second.Check()) break;
    ++allowed;
  }
  EXPECT_EQ(allowed, 4) << "phase two must inherit phase one's spending";
}

TEST(PhaseSupervisorTest, EvaluationsAreFlushedWithoutBudget) {
  RunContext ctx;  // max_evaluations = -1: telemetry only.
  {
    PhaseSupervisor supervisor(&ctx, "test", /*worker=*/0,
                               /*time_check_stride=*/64);
    for (int i = 0; i < 100; ++i) supervisor.Check(3);
  }  // Destructor flushes the non-stride remainder.
  EXPECT_EQ(ctx.evaluations(), 300);
}

TEST(PhaseSupervisorTest, FaultHookFiresAtExactCheckpoint) {
  RunContext ctx;
  std::vector<int64_t> seen;
  ctx.fault_hook =
      [&seen](const SupervisionCheckpoint& cp)
      -> std::optional<TerminationReason> {
    seen.push_back(cp.index);
    if (cp.phase == "target" && cp.index == 5) {
      return TerminationReason::kFaultInjected;
    }
    return std::nullopt;
  };
  PhaseSupervisor other(&ctx, "other");
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(other.Check().has_value()) << "wrong phase must not trip";
  }
  PhaseSupervisor target(&ctx, "target");
  int allowed = 0;
  while (!target.Check()) ++allowed;
  EXPECT_EQ(allowed, 5);
  EXPECT_EQ(target.tripped(), TerminationReason::kFaultInjected);
}

TEST(PhaseSupervisorTest, FaultHookReasonPropagatesVerbatim) {
  RunContext ctx;
  ctx.fault_hook = [](const SupervisionCheckpoint&)
      -> std::optional<TerminationReason> {
    return TerminationReason::kDeadlineExceeded;  // Simulated deadline.
  };
  PhaseSupervisor supervisor(&ctx, "test");
  EXPECT_EQ(supervisor.Check(), TerminationReason::kDeadlineExceeded);
}

TEST(PhaseSupervisorTest, FaultHookSeesWorkerId) {
  RunContext ctx;
  ctx.fault_hook = [](const SupervisionCheckpoint& cp)
      -> std::optional<TerminationReason> {
    if (cp.worker == 2) return TerminationReason::kFaultInjected;
    return std::nullopt;
  };
  PhaseSupervisor w0(&ctx, "construction", /*worker=*/0);
  PhaseSupervisor w2(&ctx, "construction", /*worker=*/2);
  EXPECT_FALSE(w0.Check().has_value());
  EXPECT_TRUE(w2.Check().has_value());
}

TEST(PhaseSupervisorTest, ProgressFiresOnStride) {
  obs::ProgressBoard board;
  RunContext ctx;
  ctx.progress_board = &board;
  PhaseSupervisor supervisor(&ctx, "tabu", /*worker=*/0,
                             /*time_check_stride=*/10);
  for (int i = 0; i < 25; ++i) supervisor.Check();
  EXPECT_EQ(board.publishes(), 3) << "stride points 0, 10, 20";
  const obs::ProgressSnapshot snapshot = board.Read();
  EXPECT_STREQ(snapshot.phase, "tabu");
  EXPECT_EQ(snapshot.checkpoints, 21) << "published at checkpoint index 20";
  EXPECT_EQ(snapshot.evaluations, 21);
}

/// Everything a supervisor's caller and its observers can see of one run.
/// The board is read after every charge; with charges shorter than the
/// stride, each read shows at most one new Checkpoint event, so `board`
/// lists every event's count and evaluation spend. (The anytime curve is
/// fed by the same events but keeps them only as wall time allows, so
/// the board stands for both.)
struct SupervisionRecord {
  std::vector<std::tuple<std::string, int64_t, int64_t>> hook_calls;
  int64_t checkpoints = 0;
  std::optional<TerminationReason> verdict;
  int64_t evaluations = 0;
  std::vector<std::tuple<int64_t, int64_t, int64_t>> board;

  bool operator==(const SupervisionRecord&) const = default;
};

enum class Supervision { kNeither, kFaultHook, kBudget };

constexpr int64_t kStride = 32;

/// Runs the charge sequence `ns` through one supervisor, either as single
/// Check() calls or as one CheckMany(n) per entry, stopping at a trip.
SupervisionRecord RunCharges(Supervision mode, const std::vector<int64_t>& ns,
                             bool bulk) {
  SupervisionRecord record;
  obs::ProgressBoard board;
  RunContext ctx;
  ctx.progress_board = &board;
  if (mode == Supervision::kFaultHook) {
    ctx.fault_hook = [&record](const SupervisionCheckpoint& cp)
        -> std::optional<TerminationReason> {
      record.hook_calls.emplace_back(std::string(cp.phase), cp.index,
                                     cp.worker);
      if (cp.index == 517) return TerminationReason::kFaultInjected;
      return std::nullopt;
    };
  } else if (mode == Supervision::kBudget) {
    ctx.max_evaluations = 389;
  }
  {
    PhaseSupervisor supervisor(&ctx, "construction", /*worker=*/3, kStride);
    for (int64_t n : ns) {
      bool tripped = false;
      if (bulk) {
        tripped = supervisor.CheckMany(n).has_value();
      } else {
        for (int64_t i = 0; i < n && !tripped; ++i) {
          tripped = supervisor.Check().has_value();
        }
      }
      const obs::ProgressSnapshot snapshot = board.Read();
      record.board.emplace_back(board.publishes(), snapshot.checkpoints,
                                snapshot.evaluations);
      if (tripped) break;
    }
    record.checkpoints = supervisor.checkpoints();
    record.verdict = supervisor.tripped();
  }
  record.evaluations = ctx.evaluations();
  return record;
}

TEST(PhaseSupervisorTest, CheckManyEqualsThatManyChecks) {
  // Charges of 0 to 30 checkpoints, so some stay inside a stride and some
  // cross one; 600 checkpoints in all, so the hook (at index 517) and the
  // budget (389 units) both trip mid-run.
  std::vector<int64_t> ns;
  for (int64_t i = 0; i < 48; ++i) ns.push_back((i * 7) % 31);
  int64_t total = 0;
  for (int64_t n : ns) total += n;
  ASSERT_GE(total, 600);

  for (Supervision mode : {Supervision::kNeither, Supervision::kFaultHook,
                           Supervision::kBudget}) {
    const SupervisionRecord single = RunCharges(mode, ns, /*bulk=*/false);
    const SupervisionRecord bulk = RunCharges(mode, ns, /*bulk=*/true);
    EXPECT_TRUE(single == bulk) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(bulk.checkpoints, single.checkpoints);
    EXPECT_EQ(bulk.verdict, single.verdict);
    EXPECT_EQ(bulk.evaluations, single.evaluations);
    EXPECT_EQ(bulk.hook_calls, single.hook_calls);
    EXPECT_EQ(bulk.board, single.board);
    ASSERT_FALSE(single.board.empty());
    EXPECT_GT(std::get<0>(single.board.back()), 10)
        << "several stride crossings";
    switch (mode) {
      case Supervision::kNeither:
        EXPECT_FALSE(single.verdict.has_value());
        EXPECT_EQ(single.checkpoints, total);
        break;
      case Supervision::kFaultHook:
        EXPECT_EQ(single.verdict, TerminationReason::kFaultInjected);
        EXPECT_EQ(single.checkpoints, 518);
        EXPECT_EQ(single.hook_calls.size(), 518u);
        break;
      case Supervision::kBudget:
        EXPECT_EQ(single.verdict, TerminationReason::kBudgetExhausted);
        EXPECT_EQ(single.checkpoints, 390);
        break;
    }
  }
}

TEST(PhaseSupervisorTest, CheckManyObservesCancellationAtItsFirstCheckpoint) {
  RunContext ctx;
  PhaseSupervisor supervisor(&ctx, "test");
  EXPECT_FALSE(supervisor.CheckMany(100).has_value());
  ctx.cancel.Cancel();
  EXPECT_EQ(supervisor.CheckMany(100), TerminationReason::kCancelled);
  EXPECT_EQ(supervisor.checkpoints(), 101);
  EXPECT_EQ(supervisor.CheckMany(5), TerminationReason::kCancelled);
  EXPECT_EQ(supervisor.checkpoints(), 101) << "a tripped supervisor is inert";
}

TEST(PhaseSupervisorTest, CheckManyHitsAnExpiredDeadlineAtTheNextStride) {
  RunContext ctx;
  PhaseSupervisor supervisor(&ctx, "test", /*worker=*/0,
                             /*time_check_stride=*/64);
  EXPECT_FALSE(supervisor.CheckMany(10).has_value());
  ctx.deadline = Deadline::AfterMillis(0);
  EXPECT_FALSE(supervisor.CheckMany(50).has_value()) << "no stride crossed";
  EXPECT_EQ(supervisor.CheckMany(100), TerminationReason::kDeadlineExceeded);
  EXPECT_EQ(supervisor.checkpoints(), 65) << "tripped at index 64";
}

TEST(MakeRunContextTest, TranslatesBudgetFields) {
  SolverOptions options;
  options.time_budget_ms = -1;
  options.max_evaluations = -1;
  RunContext unlimited = MakeRunContext(options);
  EXPECT_TRUE(unlimited.deadline.infinite());
  EXPECT_EQ(unlimited.max_evaluations, -1);

  options.time_budget_ms = 5'000;
  options.max_evaluations = 123;
  RunContext bounded = MakeRunContext(options);
  EXPECT_FALSE(bounded.deadline.infinite());
  EXPECT_GT(bounded.deadline.RemainingMillis(), 0.0);
  EXPECT_EQ(bounded.max_evaluations, 123);
}

}  // namespace
}  // namespace emp
