#include "core/portfolio.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/ticket_pool.h"
#include "core/fact_solver.h"
#include "core/partition.h"
#include "core/run_events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace emp {

bool BeatsInReduction(const ReplicaScore& a, const ReplicaScore& b) {
  if (a.p != b.p) return a.p > b.p;
  if (a.heterogeneity != b.heterogeneity) {
    return a.heterogeneity < b.heterogeneity;
  }
  return a.replica < b.replica;
}

uint64_t ReplicaSeed(uint64_t base_seed, int32_t replica) {
  // Distinct from the two constants the construction phase uses to derive
  // (iteration, attempt) streams, so replica streams never collide with
  // intra-replica ones.
  constexpr uint64_t kReplicaSeedStride = 0xA24BAED4963EE407ULL;
  return base_seed + kReplicaSeedStride * static_cast<uint64_t>(replica);
}

PortfolioSolver::PortfolioSolver(const AreaSet* areas,
                                 std::vector<Constraint> constraints,
                                 SolverOptions options)
    : areas_(areas),
      constraints_(std::move(constraints)),
      options_(options) {}

Result<PortfolioSolver> PortfolioSolver::Create(
    const AreaSet* areas, std::vector<Constraint> constraints,
    SolverOptions options) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (areas == nullptr) {
    return Status::InvalidArgument("PortfolioSolver: null area set");
  }
  Result<BoundConstraints> bound = BoundConstraints::Create(areas, constraints);
  if (!bound.ok()) return bound.status();
  return PortfolioSolver(areas, std::move(constraints), options);
}

Result<Solution> PortfolioSolver::Solve() {
  return Solve(MakeRunContext(options_));
}

Result<Solution> PortfolioSolver::Solve(const RunContext& ctx) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options_));
  if (areas_ == nullptr) {
    return Status::InvalidArgument("PortfolioSolver: null area set");
  }
  // Bind once, before any thread spawns: malformed constraints surface
  // here, and every replica's partitions read this one bound.
  EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                       BoundConstraints::Create(areas_, constraints_));

  const int32_t replicas = options_.portfolio_replicas;
  const int threads = std::max(
      1, std::min(options_.portfolio_threads, static_cast<int>(replicas)));

  Stopwatch portfolio_timer;
  obs::ScopedSpan portfolio_span(ctx.trace, "portfolio");

  RunEvents events(ctx);
  events.PortfolioBegin(replicas, threads);

  // Outcomes land in pre-sized slots, so the only synchronization is the
  // ticket counters, the running maximum p and the joins. `run` holds a
  // replica's constructed partition only while it may still be polished;
  // `solution` holds the final result.
  struct ReplicaOutcome {
    bool started = false;
    bool polishable = false;
    bool tabu_skipped = false;
    int32_t p = -1;
    Status status = Status::OK();
    std::optional<FactSolver::Constructed> run;
    std::optional<Solution> solution;
  };
  std::vector<ReplicaOutcome> outcomes(static_cast<size_t>(replicas));
  std::vector<CancellationToken> replica_tokens(
      static_cast<size_t>(replicas));
  std::atomic<bool> target_hit{false};
  std::atomic<int32_t> running_max_p{-1};

  // Replicas are single-threaded internally (the solve's parallelism
  // budget is portfolio_threads) and never re-enter the portfolio.
  auto replica_solver = [&](int32_t replica) {
    SolverOptions replica_options = options_;
    replica_options.seed = ReplicaSeed(options_.seed, replica);
    replica_options.portfolio_replicas = 1;
    replica_options.construction_threads = 1;
    return FactSolver(areas_, constraints_, replica_options);
  };

  // Child supervision context: shares the caller's deadline, evaluation
  // budget (same counter), metrics and trace, but owns its cancellation
  // token so this replica can be cancelled individually. The caller's
  // token (and fault hook) stay visible through the hook, which
  // PhaseSupervisor polls at every checkpoint. The child carries no
  // board, journal or curve: whole-run facts (phase, incumbents, the run
  // bracket) belong to the portfolio's caller, and N replicas emitting
  // them concurrently would interleave nondeterministically. Replicas
  // surface through the Replica / ReplicaSummary events.
  auto child_context = [&](int32_t replica) {
    RunContext child;
    child.deadline = ctx.deadline;
    child.cancel = replica_tokens[static_cast<size_t>(replica)];
    child.max_evaluations = ctx.max_evaluations;
    child.evaluations_spent = ctx.evaluations_spent;
    child.metrics = ctx.metrics;
    child.trace = ctx.trace;
    CancellationToken parent_cancel = ctx.cancel;
    auto parent_hook = ctx.fault_hook;
    child.fault_hook = [parent_cancel, parent_hook](
                           const SupervisionCheckpoint& checkpoint)
        -> std::optional<TerminationReason> {
      if (parent_cancel.cancelled()) return TerminationReason::kCancelled;
      if (parent_hook) return parent_hook(checkpoint);
      return std::nullopt;
    };
    return child;
  };

  // Moves a replica's assignment into its Solution and drops its
  // partition.
  auto release = [&](ReplicaOutcome& out) {
    if (!out.run.has_value()) return;
    FillAssignmentFromPartition(out.run->partition, &out.run->solution);
    out.solution = std::move(out.run->solution);
    out.run.reset();
  };
  // Publishes a replica's final state. Every replica finishes after the
  // join, so the best p is on the board and the curve before the first
  // portfolio checkpoint.
  std::atomic<int32_t> replicas_finished{0};
  auto finish_replica = [&](int32_t replica) {
    ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    release(out);
    obs::ReplicaState state = obs::ReplicaState::kDone;
    if (out.tabu_skipped) {
      state = obs::ReplicaState::kSkipped;
    } else if (out.solution.has_value() &&
               out.solution->termination_reason ==
                   TerminationReason::kCancelled) {
      state = obs::ReplicaState::kCancelled;
    }
    events.Replica(replica, state, out.p);
    // A finished replica doubles as the portfolio's checkpoint (replica
    // children run without sinks).
    const int32_t finished =
        replicas_finished.fetch_add(1, std::memory_order_relaxed) + 1;
    events.Checkpoint("portfolio", finished);
    events.Work(finished, replicas);
  };

  // Pass 1: construct every replica. p never changes in local search, so
  // a replica below the running maximum can never win the reduction
  // (which orders by p first) and drops its partition at once.
  auto construct_replica = [&](int32_t replica) {
    ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    out.started = true;
    obs::ScopedSpan replica_span(ctx.trace, "portfolio.replica",
                                 /*worker=*/replica);
    events.Replica(replica, obs::ReplicaState::kConstructing);
    const RunContext child = child_context(replica);
    Result<FactSolver::Constructed> constructed = [&] {
      obs::ScopedSpan solve_span(child.trace, "solve");
      return replica_solver(replica).Construct(bound, child);
    }();
    if (!constructed.ok()) {
      out.status = constructed.status();
      return;
    }
    out.p = constructed->partition.NumRegions();
    // Degraded constructions compete with their partition as-is.
    out.polishable = options_.run_local_search && out.p > 0 &&
                     constructed->solution.termination_reason ==
                         TerminationReason::kConverged;
    out.run = std::move(*constructed);
    events.Replica(replica, obs::ReplicaState::kConstructing, out.p);

    int32_t seen_p = running_max_p.load(std::memory_order_relaxed);
    while (out.p > seen_p && !running_max_p.compare_exchange_weak(
                                 seen_p, out.p, std::memory_order_relaxed)) {
    }
    if (options_.portfolio_target_p >= 0 &&
        out.p >= options_.portfolio_target_p &&
        !target_hit.exchange(true, std::memory_order_relaxed)) {
      // Target reached: stop handing out replicas, cancel in-flight
      // stragglers at their next checkpoint and skip pass 2 — the target
      // is a "good enough, return now" bar.
      for (int32_t other = 0; other < replicas; ++other) {
        if (other != replica) {
          replica_tokens[static_cast<size_t>(other)].Cancel();
        }
      }
    }
    if (out.p < seen_p) release(out);
  };
  RunTicketPool(replicas, threads, construct_replica, &target_hit);

  // The join: the maximum p is final, so it is published once, and every
  // replica outside the max-p set finishes unpolished, in replica order.
  const int32_t max_p = running_max_p.load(std::memory_order_relaxed);
  if (max_p >= 0) events.IncumbentP(max_p);
  std::vector<int32_t> polish;
  for (int32_t replica = 0; replica < replicas; ++replica) {
    ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    if (!out.started) continue;
    out.tabu_skipped = out.polishable && out.p < max_p;
    if (out.polishable && out.p == max_p &&
        !target_hit.load(std::memory_order_relaxed)) {
      polish.push_back(replica);
    } else {
      finish_replica(replica);
    }
  }

  // Pass 2: polish exactly the replicas that share the maximum p.
  const int polish_count = static_cast<int>(polish.size());
  RunTicketPool(polish_count, std::min(threads, polish_count), [&](int i) {
    const int32_t replica = polish[static_cast<size_t>(i)];
    ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    obs::ScopedSpan replica_span(ctx.trace, "portfolio.replica",
                                 /*worker=*/replica);
    events.Replica(replica, obs::ReplicaState::kLocalSearch);
    out.status = replica_solver(replica).LocalSearch(
        child_context(replica), /*worker=*/replica, &*out.run);
    finish_replica(replica);
  });

  // Deterministic reduction. Errors first, by replica index, so a failing
  // portfolio reports the same error at any thread count.
  for (const ReplicaOutcome& out : outcomes) {
    EMP_RETURN_IF_ERROR(out.status);
  }
  int32_t winner = -1;
  ReplicaScore best;
  for (int32_t replica = 0; replica < replicas; ++replica) {
    const ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    if (!out.solution.has_value()) continue;
    ReplicaScore score{out.solution->p(), out.solution->heterogeneity,
                       replica};
    if (winner < 0 || BeatsInReduction(score, best)) {
      winner = replica;
      best = score;
    }
  }
  if (winner < 0) {
    return Status::Internal("PortfolioSolver: no replica produced a result");
  }

  stats_ = PortfolioStats{};
  stats_.replicas = replicas;
  stats_.winning_replica = winner;
  stats_.threads = threads;
  stats_.replica_p.assign(static_cast<size_t>(replicas), -1);
  // Post-join, in replica order, so the records and counts are the same
  // at any thread count. A replica "improves" when its p exceeds every
  // lower-indexed replica's.
  int32_t replicas_improved = 0;
  int32_t improved_p = -1;
  for (int32_t replica = 0; replica < replicas; ++replica) {
    const ReplicaOutcome& out = outcomes[static_cast<size_t>(replica)];
    if (out.p > improved_p) {
      ++replicas_improved;
      improved_p = out.p;
    }
    events.ReplicaSummary(replica, out.started, out.tabu_skipped,
                          out.solution.has_value() ? &*out.solution : nullptr);
    if (!out.started) continue;
    ++stats_.replicas_started;
    if (out.tabu_skipped) ++stats_.tabu_skipped;
    if (out.solution.has_value()) {
      stats_.replica_p[static_cast<size_t>(replica)] = out.solution->p();
      if (out.solution->termination_reason == TerminationReason::kCancelled) {
        ++stats_.replicas_cancelled;
      }
    }
  }
  events.PortfolioEnd(portfolio_timer.ElapsedSeconds(), winner, best.p);

  if (obs::MetricRegistry* metrics = ctx.metrics; metrics != nullptr) {
    metrics->GetCounter("emp_portfolio_replicas_started_total")
        ->Add(stats_.replicas_started);
    metrics->GetCounter("emp_portfolio_replicas_cancelled_total")
        ->Add(stats_.replicas_cancelled);
    metrics->GetCounter("emp_portfolio_replicas_improved_total")
        ->Add(replicas_improved);
    metrics->GetCounter("emp_portfolio_tabu_skipped_total")
        ->Add(stats_.tabu_skipped);
    obs::Histogram* replica_p = metrics->GetHistogram(
        "emp_portfolio_replica_p",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
    for (int32_t p : stats_.replica_p) {
      if (p >= 0) replica_p->Observe(static_cast<double>(p));
    }
    metrics->GetGauge("emp_portfolio_threads")->Set(threads);
    metrics->GetGauge("emp_portfolio_best_replica")->Set(winner);
    metrics->GetGauge("emp_portfolio_best_p")->Set(best.p);
    metrics->GetGauge("emp_portfolio_seconds")
        ->Set(portfolio_timer.ElapsedSeconds());
  }

  Solution& solution = *outcomes[static_cast<size_t>(winner)].solution;
  FactSolver::RecordRunMetrics(ctx, solution, portfolio_timer.ElapsedSeconds());
  return std::move(solution);
}

}  // namespace emp
