// PortfolioSolver: the multi-start portfolio extends the construction
// pool's thread-count-invariance guarantee to the whole solve. For a
// fixed (seed, portfolio_replicas) the deterministic reduction — highest
// p, then lowest heterogeneity, then lowest replica index — must return
// a bit-identical solution at 1, 2, and 8 threads. Timing fields differ
// between runs, so the JSON comparison strips *_seconds lines.

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fact_solver.h"
#include "core/portfolio.h"
#include "core/report.h"
#include "core/validate.h"
#include "data/synthetic/dataset_catalog.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace emp {
namespace {

std::string StripTimingLines(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::vector<Constraint> SumConstraint() {
  return {Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)};
}

TEST(ReductionRuleTest, OrdersByPThenHeterogeneityThenIndex) {
  // Higher p always wins, regardless of heterogeneity or index.
  EXPECT_TRUE(BeatsInReduction({5, 99.0, 7}, {4, 1.0, 0}));
  EXPECT_FALSE(BeatsInReduction({4, 1.0, 0}, {5, 99.0, 7}));
  // Equal p: lower heterogeneity wins.
  EXPECT_TRUE(BeatsInReduction({5, 1.0, 7}, {5, 2.0, 0}));
  EXPECT_FALSE(BeatsInReduction({5, 2.0, 0}, {5, 1.0, 7}));
  // Equal p and heterogeneity: lower replica index wins.
  EXPECT_TRUE(BeatsInReduction({5, 1.0, 2}, {5, 1.0, 3}));
  EXPECT_FALSE(BeatsInReduction({5, 1.0, 3}, {5, 1.0, 2}));
  // Nothing beats itself.
  EXPECT_FALSE(BeatsInReduction({5, 1.0, 2}, {5, 1.0, 2}));
}

TEST(PortfolioTest, SameSeedSameSolutionAcrossThreadCounts) {
  auto areas = synthetic::MakeDefaultDataset("pf", 300, /*seed=*/7);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();

  std::string reference_json;
  Solution reference;
  int32_t reference_winner = -1;
  std::vector<int32_t> reference_replica_p;
  for (int threads : {1, 2, 8}) {
    SolverOptions options;
    options.seed = 1234;
    options.portfolio_replicas = 6;
    options.portfolio_threads = threads;
    auto solver = PortfolioSolver::Create(&*areas, cs, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    auto sol = solver->Solve();
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    auto json = SolutionToJson(*areas, cs, *sol);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    const std::string stripped = StripTimingLines(*json);
    if (threads == 1) {
      reference_json = stripped;
      reference = *sol;
      reference_winner = solver->stats().winning_replica;
      reference_replica_p = solver->stats().replica_p;
      continue;
    }
    EXPECT_EQ(stripped, reference_json) << "threads=" << threads;
    EXPECT_EQ(sol->p(), reference.p()) << "threads=" << threads;
    EXPECT_EQ(sol->region_of, reference.region_of) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(sol->heterogeneity, reference.heterogeneity)
        << "threads=" << threads;
    EXPECT_EQ(solver->stats().winning_replica, reference_winner)
        << "threads=" << threads;
    EXPECT_EQ(solver->stats().replica_p, reference_replica_p)
        << "replica_p should itself be thread-count invariant";
  }
}

TEST(PortfolioTest, FactSolverDelegatesWhenReplicasRequested) {
  auto areas = synthetic::MakeDefaultDataset("pf-delegate", 200, /*seed=*/3);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  SolverOptions options;
  options.seed = 99;
  options.portfolio_replicas = 4;
  options.portfolio_threads = 2;

  auto direct = PortfolioSolver::Create(&*areas, cs, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto via_portfolio = direct->Solve();
  ASSERT_TRUE(via_portfolio.ok()) << via_portfolio.status().ToString();

  auto fact = FactSolver::Create(&*areas, cs, options);
  ASSERT_TRUE(fact.ok()) << fact.status().ToString();
  auto via_fact = fact->Solve();
  ASSERT_TRUE(via_fact.ok()) << via_fact.status().ToString();

  EXPECT_EQ(via_fact->p(), via_portfolio->p());
  EXPECT_EQ(via_fact->region_of, via_portfolio->region_of);
  EXPECT_DOUBLE_EQ(via_fact->heterogeneity, via_portfolio->heterogeneity);
}

// One constraint per evaluation family (extrema / centrality / counting),
// as in the paper's enriched queries.
std::vector<Constraint> EnrichedConstraints() {
  return {Constraint::Min("POP16UP", kNoLowerBound, 3000),
          Constraint::Avg("EMPLOYED", 1500, 3500),
          Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)};
}

Solution PlainSolve(const AreaSet& areas, const std::vector<Constraint>& cs,
                    SolverOptions options) {
  options.portfolio_replicas = 1;
  auto solver = FactSolver::Create(&areas, cs, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  auto sol = solver->Solve();
  EXPECT_TRUE(sol.ok()) << sol.status().ToString();
  return std::move(sol).value();
}

TEST(PortfolioTest, OneReplicaPortfolioIsThePlainSolve) {
  // A replica is a plain solve on replica 0's seed, which is the base seed:
  // same assignment, bit-equal heterogeneity, same tabu walk.
  for (int32_t n : {300, 1000}) {
    auto areas = synthetic::MakeDefaultDataset("pf-one", n, /*seed=*/7);
    ASSERT_TRUE(areas.ok()) << areas.status().ToString();
    for (const std::vector<Constraint>& cs :
         {SumConstraint(), EnrichedConstraints()}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SolverOptions options;
        options.seed = seed;
        options.tabu_max_iterations = 2000;
        const Solution plain = PlainSolve(*areas, cs, options);

        options.portfolio_replicas = 1;
        auto portfolio = PortfolioSolver::Create(&*areas, cs, options);
        ASSERT_TRUE(portfolio.ok()) << portfolio.status().ToString();
        auto sol = portfolio->Solve();
        ASSERT_TRUE(sol.ok()) << sol.status().ToString();

        const std::string where = "n=" + std::to_string(n) +
                                  " constraints=" + std::to_string(cs.size()) +
                                  " seed=" + std::to_string(seed);
        EXPECT_EQ(sol->region_of, plain.region_of) << where;
        EXPECT_EQ(sol->heterogeneity, plain.heterogeneity) << where;
        EXPECT_EQ(sol->tabu_result.iterations, plain.tabu_result.iterations)
            << where;
        EXPECT_EQ(sol->tabu_result.moves_applied,
                  plain.tabu_result.moves_applied)
            << where;
      }
    }
  }
}

TEST(PortfolioTest, WinnerIsThePlainSolveOfItsReplicaSeed) {
  // Every replica that can still win runs its full chain, so the portfolio
  // returns the best plain solve over the derived replica seeds.
  constexpr int32_t kReplicas = 4;
  for (int32_t n : {300, 1000}) {
    auto areas = synthetic::MakeDefaultDataset("pf-winner", n, /*seed=*/3);
    ASSERT_TRUE(areas.ok()) << areas.status().ToString();
    std::vector<Constraint> cs = SumConstraint();
    SolverOptions options;
    options.seed = 11;
    options.tabu_max_iterations = 2000;

    int32_t best_replica = -1;
    ReplicaScore best;
    std::vector<Solution> plain;
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      SolverOptions replica_options = options;
      replica_options.seed = ReplicaSeed(options.seed, replica);
      plain.push_back(PlainSolve(*areas, cs, replica_options));
      ReplicaScore score{plain.back().p(), plain.back().heterogeneity,
                         replica};
      if (best_replica < 0 || BeatsInReduction(score, best)) {
        best_replica = replica;
        best = score;
      }
    }

    options.portfolio_replicas = kReplicas;
    options.portfolio_threads = 2;
    auto portfolio = PortfolioSolver::Create(&*areas, cs, options);
    ASSERT_TRUE(portfolio.ok()) << portfolio.status().ToString();
    auto sol = portfolio->Solve();
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();

    EXPECT_EQ(portfolio->stats().winning_replica, best_replica) << "n=" << n;
    const Solution& winner = plain[static_cast<size_t>(best_replica)];
    EXPECT_EQ(sol->region_of, winner.region_of) << "n=" << n;
    EXPECT_EQ(sol->heterogeneity, winner.heterogeneity) << "n=" << n;
    for (int32_t replica = 0; replica < kReplicas; ++replica) {
      EXPECT_EQ(portfolio->stats().replica_p[static_cast<size_t>(replica)],
                plain[static_cast<size_t>(replica)].p())
          << "n=" << n << " replica=" << replica;
    }
  }
}

TEST(PortfolioTest, SkippedSetIsTheReplicasBelowTheMaximumP) {
  // Seed 6 constructs p = 43, 44, 44, 45. Replica 0 has the lowest p, so
  // a cutoff that consulted only the replicas finished so far would
  // polish it whenever it finished first.
  auto areas = synthetic::MakeDefaultDataset("pf-skip", 300, /*seed=*/5);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  constexpr int32_t kReplicas = 4;
  for (int threads : {1, 2, 4}) {
    SolverOptions options;
    options.seed = 6;
    options.tabu_max_iterations = 2000;
    options.portfolio_replicas = kReplicas;
    options.portfolio_threads = threads;
    auto solver = PortfolioSolver::Create(&*areas, cs, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    obs::RunJournal journal;
    RunContext ctx = MakeRunContext(options);
    ctx.journal = &journal;
    auto sol = solver->Solve(ctx);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();

    const std::vector<int32_t>& replica_p = solver->stats().replica_p;
    const int32_t max_p = *std::max_element(replica_p.begin(), replica_p.end());
    ASSERT_LT(replica_p[0], max_p) << "the instance no longer exercises the "
                                      "lowest-p-first case";
    std::vector<bool> expected;
    int32_t expected_count = 0;
    for (int32_t p : replica_p) {
      expected.push_back(p < max_p);
      expected_count += p < max_p ? 1 : 0;
    }
    std::vector<bool> skipped;
    std::istringstream records(journal.ToJsonl());
    for (std::string line; std::getline(records, line);) {
      if (line.find("\"type\": \"replica\"") == std::string::npos) continue;
      skipped.push_back(line.find("\"tabu_skipped\": true") !=
                        std::string::npos);
    }
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(skipped, expected) << where;
    EXPECT_EQ(solver->stats().tabu_skipped, expected_count) << where;
  }
}

TEST(PortfolioTest, TargetPStopsTheQueueAfterTheFirstHit) {
  auto areas = synthetic::MakeDefaultDataset("pf-target", 200, /*seed=*/5);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  SolverOptions options;
  options.portfolio_replicas = 8;
  options.portfolio_threads = 1;  // deterministic completion order
  options.portfolio_target_p = 1;
  auto solver = PortfolioSolver::Create(&*areas, cs, options);
  ASSERT_TRUE(solver.ok());
  auto sol = solver->Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->p(), 1);
  // Replica 0 reaches the (trivial) target, so no further replica starts.
  EXPECT_EQ(solver->stats().replicas_started, 1);
  EXPECT_EQ(solver->stats().winning_replica, 0);
  auto report = ValidateAssignment(*areas, cs, sol->region_of);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->valid) << report->ToString();
}

// Mirrors FactSolverSupervisionTest.FiftyMsBudgetOnLargeInstanceDegrades:
// a tight wall-clock budget over many replicas still returns kOk with a
// feasible, contiguous best-so-far solution.
TEST(PortfolioTest, FiftyMsBudgetOnLargeInstanceDegrades) {
  auto areas = synthetic::MakeDefaultDataset("pf-budget", 3000, 4242);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  SolverOptions options;
  // Enough requested work that 50ms cannot possibly cover it.
  options.portfolio_replicas = 8;
  options.portfolio_threads = 2;
  options.construction_iterations = 100;
  options.tabu_max_iterations = 1000000;
  options.time_budget_ms = 50;
  auto solver = PortfolioSolver::Create(&*areas, cs, options);
  ASSERT_TRUE(solver.ok());
  auto sol = solver->Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kDeadlineExceeded);
  auto report = ValidateAssignment(*areas, cs, sol->region_of);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->valid) << report->ToString();
}

TEST(PortfolioTest, CallerCancellationDegradesEveryReplica) {
  auto areas = synthetic::MakeDefaultDataset("pf-cancel", 300, /*seed=*/9);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  SolverOptions options;
  options.portfolio_replicas = 4;
  options.portfolio_threads = 2;
  auto solver = PortfolioSolver::Create(&*areas, cs, options);
  ASSERT_TRUE(solver.ok());
  RunContext ctx;
  ctx.cancel.Cancel();  // already cancelled: replicas trip immediately
  auto sol = solver->Solve(ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kCancelled);
  EXPECT_EQ(solver->stats().replicas_cancelled,
            solver->stats().replicas_started);
}

TEST(PortfolioTest, MetricsCoverThePortfolioPhase) {
  auto areas = synthetic::MakeDefaultDataset("pf-metrics", 200, /*seed=*/13);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  std::vector<int64_t> improved;
  for (int threads : {1, 2}) {
    SolverOptions options;
    options.portfolio_replicas = 3;
    options.portfolio_threads = threads;

    obs::MetricRegistry registry;
    auto solver = PortfolioSolver::Create(&*areas, cs, options);
    ASSERT_TRUE(solver.ok());
    RunContext ctx = MakeRunContext(options);
    ctx.metrics = &registry;
    auto sol = solver->Solve(ctx);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();

    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(
        registry.GetCounter("emp_portfolio_replicas_started_total")->value(),
        3)
        << where;
    EXPECT_EQ(
        registry.GetCounter("emp_portfolio_replicas_cancelled_total")
            ->value(),
        0)
        << where;
    improved.push_back(
        registry.GetCounter("emp_portfolio_replicas_improved_total")
            ->value());
    EXPECT_GE(improved.back(), 1) << where;
    EXPECT_EQ(registry.GetHistogram("emp_portfolio_replica_p")->count(), 3)
        << where;
    EXPECT_EQ(registry.GetGauge("emp_portfolio_threads")->value(),
              static_cast<double>(threads))
        << where;
    EXPECT_EQ(registry.GetGauge("emp_portfolio_best_p")->value(),
              static_cast<double>(sol->p()))
        << where;
    // Replica solves feed the shared registry too.
    EXPECT_EQ(
        registry.GetCounter("emp_construction_iterations_total")->value(),
        3 * options.construction_iterations)
        << where;
  }
  // Counted after the join in replica order, not in finish order.
  EXPECT_EQ(improved[0], improved[1]);
}

TEST(PortfolioTest, RunLevelMetricsDescribeTheReturnedSolution) {
  // The object that returns the run's Solution writes the run-level
  // metrics once; replicas sharing the registry and the evaluation
  // counter must not overwrite or re-add them.
  auto areas = synthetic::MakeDefaultDataset("pf-run", 1000, /*seed=*/5);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = SumConstraint();
  for (int threads : {1, 4}) {
    for (bool via_fact : {false, true}) {
      SolverOptions options;
      options.seed = 5;
      options.tabu_max_iterations = 2000;
      options.portfolio_replicas = 4;
      options.portfolio_threads = threads;
      obs::MetricRegistry registry;
      RunContext ctx = MakeRunContext(options);
      ctx.metrics = &registry;
      Result<Solution> sol = Status::Internal("not run");
      if (via_fact) {
        auto solver = FactSolver::Create(&*areas, cs, options);
        ASSERT_TRUE(solver.ok()) << solver.status().ToString();
        sol = solver->Solve(ctx);
      } else {
        auto solver = PortfolioSolver::Create(&*areas, cs, options);
        ASSERT_TRUE(solver.ok()) << solver.status().ToString();
        sol = solver->Solve(ctx);
      }
      ASSERT_TRUE(sol.ok()) << sol.status().ToString();
      const std::string where = "threads=" + std::to_string(threads) +
                                (via_fact ? " via FactSolver" : "");
      EXPECT_EQ(registry.GetGauge("emp_solution_p")->value(),
                static_cast<double>(sol->p()))
          << where;
      EXPECT_EQ(registry.GetGauge("emp_solution_heterogeneity")->value(),
                sol->heterogeneity)
          << where;
      EXPECT_EQ(registry.GetCounter("emp_solver_evaluations_total")->value(),
                ctx.evaluations())
          << where;
      EXPECT_GT(ctx.evaluations(), 0) << where;
      EXPECT_GT(registry.GetGauge("emp_solver_seconds")->value(), 0.0)
          << where;
    }
  }
}

TEST(PortfolioTest, CreateRejectsBadOptions) {
  auto areas = synthetic::MakeDefaultDataset("pf-bad", 50, /*seed=*/1);
  ASSERT_TRUE(areas.ok());
  std::vector<Constraint> cs = {
      Constraint::Sum("TOTALPOP", 1000, kNoUpperBound)};

  EXPECT_FALSE(PortfolioSolver::Create(nullptr, cs).ok());

  SolverOptions bad;
  bad.portfolio_replicas = 0;
  EXPECT_FALSE(PortfolioSolver::Create(&*areas, cs, bad).ok());
  bad = SolverOptions{};
  bad.portfolio_threads = 0;
  EXPECT_FALSE(PortfolioSolver::Create(&*areas, cs, bad).ok());
  bad = SolverOptions{};
  bad.portfolio_target_p = -2;
  EXPECT_FALSE(PortfolioSolver::Create(&*areas, cs, bad).ok());

  std::vector<Constraint> bad_attr = {
      Constraint::Sum("NO_SUCH_ATTRIBUTE", 1000, kNoUpperBound)};
  EXPECT_FALSE(PortfolioSolver::Create(&*areas, bad_attr).ok());

  EXPECT_TRUE(PortfolioSolver::Create(&*areas, cs).ok());
}

}  // namespace
}  // namespace emp
