#include "core/fact_solver.h"

#include <gtest/gtest.h>

#include <set>

#include "data/synthetic/dataset_catalog.h"
#include "graph/connectivity.h"
#include "test_util.h"

namespace emp {
namespace {

/// End-to-end output validation: disjoint regions, contiguity, constraint
/// satisfaction, U0 bookkeeping.
void ValidateSolution(const AreaSet& areas,
                      const std::vector<Constraint>& constraints,
                      const Solution& sol) {
  // Region/unassigned partition covers every area exactly once.
  ASSERT_EQ(sol.region_of.size(), static_cast<size_t>(areas.num_areas()));
  std::set<int32_t> seen;
  for (size_t rid = 0; rid < sol.regions.size(); ++rid) {
    for (int32_t a : sol.regions[rid]) {
      EXPECT_TRUE(seen.insert(a).second) << "area in two regions";
      EXPECT_EQ(sol.region_of[static_cast<size_t>(a)],
                static_cast<int32_t>(rid));
    }
  }
  for (int32_t a : sol.unassigned) {
    EXPECT_TRUE(seen.insert(a).second) << "unassigned area also in a region";
    EXPECT_EQ(sol.region_of[static_cast<size_t>(a)], -1);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(areas.num_areas()));

  // Contiguity and constraints per region.
  auto bc = BoundConstraints::Create(&areas, constraints);
  ASSERT_TRUE(bc.ok());
  ConnectivityChecker connectivity(&areas.graph());
  for (const auto& region : sol.regions) {
    EXPECT_FALSE(region.empty());
    EXPECT_TRUE(connectivity.IsConnected(region));
    RegionStats stats(&*bc);
    for (int32_t a : region) stats.Add(a);
    EXPECT_TRUE(stats.SatisfiesAll());
  }
}

TEST(FactSolverTest, SingleSumConstraintPartitionsEverything) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
                6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 25, kNoUpperBound)};
  auto sol = SolveEmp(areas, cs);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->p(), 2);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverTest, InfeasibleInstanceReturnsInfeasible) {
  AreaSet areas = test::PathAreaSet({1, 2, 3});
  auto sol = SolveEmp(areas, {Constraint::Sum("s", 1000, kNoUpperBound)});
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(FactSolverTest, UnknownAttributeRejected) {
  AreaSet areas = test::PathAreaSet({1, 2, 3});
  auto sol = SolveEmp(areas, {Constraint::Sum("ghost", 1, kNoUpperBound)});
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kNotFound);
}

TEST(FactSolverTest, FilterDisabledRejectsInvalidAreas) {
  AreaSet areas = test::PathAreaSet({1, 5, 6, 7});
  SolverOptions options;
  options.filter_invalid_areas = false;
  // MIN lower bound 4 makes area 0 invalid.
  auto sol = SolveEmp(areas, {Constraint::Min("s", 4, 6)}, options);
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(FactSolverTest, InvalidAreasLandInU0) {
  AreaSet areas = test::PathAreaSet({1, 5, 6, 7, 20});
  // MIN filters s<4; MAX filters s>8.
  std::vector<Constraint> cs = {Constraint::Min("s", 4, 6),
                                Constraint::Max("s", 5, 8)};
  auto sol = SolveEmp(areas, cs);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  // Areas 0 (s=1) and 4 (s=20) must be unassigned.
  EXPECT_EQ(sol->region_of[0], -1);
  EXPECT_EQ(sol->region_of[4], -1);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverTest, MultiConstraintQueryAllFamilies) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", {3, 8, 5, 2, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8,
                2, 5, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8, 2, 5}},
       {"emp", {5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6,
                5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6, 5, 4, 6}}});
  std::vector<Constraint> cs = {
      Constraint::Min("pop", 2, 5),
      Constraint::Avg("emp", 4.5, 5.5),
      Constraint::Sum("pop", 15, kNoUpperBound),
      Constraint::Count(2, 12),
  };
  auto sol = SolveEmp(areas, cs);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->p(), 1);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverTest, LocalSearchNeverWorsensHeterogeneity) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
                6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  auto sol = SolveEmp(areas, {Constraint::Sum("pop", 30, kNoUpperBound)});
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->heterogeneity, sol->heterogeneity_before_local_search + 1e-9);
  EXPECT_GE(sol->HeterogeneityImprovement(), 0.0);
}

TEST(FactSolverTest, DisablingLocalSearchSkipsTabu) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4), {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9,
                                       10, 7, 12, 6, 9, 11}}});
  SolverOptions options;
  options.run_local_search = false;
  auto sol =
      SolveEmp(areas, {Constraint::Sum("pop", 25, kNoUpperBound)}, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->tabu_result.moves_applied, 0);
  EXPECT_DOUBLE_EQ(sol->heterogeneity,
                   sol->heterogeneity_before_local_search);
}

TEST(FactSolverTest, DeterministicForFixedSeed) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
                6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  SolverOptions options;
  options.seed = 7;
  auto a = SolveEmp(areas, {Constraint::Sum("pop", 25, kNoUpperBound)},
                    options);
  auto b = SolveEmp(areas, {Constraint::Sum("pop", 25, kNoUpperBound)},
                    options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->p(), b->p());
  EXPECT_EQ(a->region_of, b->region_of);
  EXPECT_DOUBLE_EQ(a->heterogeneity, b->heterogeneity);
}

TEST(FactSolverTest, MultipleConnectedComponentsSupported) {
  // Two disjoint 0-1-2 / 3-4-5 paths; regions never span components.
  auto graph =
      ContiguityGraph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  AreaSet areas = test::MakeAreaSet(std::move(graph).value(),
                                    {{"pop", {5, 6, 7, 5, 6, 7}}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  auto sol = SolveEmp(areas, cs);
  ASSERT_TRUE(sol.ok());
  EXPECT_GE(sol->p(), 2);
  ValidateSolution(areas, cs, *sol);
  for (const auto& region : sol->regions) {
    bool first_comp = region.front() <= 2;
    for (int32_t a : region) {
      EXPECT_EQ(a <= 2, first_comp) << "region spans components";
    }
  }
}

TEST(FactSolverTest, AvgOnlyQueryMayLeaveAreasUnassigned) {
  // Tight AVG range reachable only by a few pairings.
  AreaSet areas = test::PathAreaSet({1, 1, 1, 1, 100, 1, 1, 1, 1});
  std::vector<Constraint> cs = {Constraint::Avg("s", 45, 55)};
  auto sol = SolveEmp(areas, cs);
  ASSERT_TRUE(sol.ok());
  ValidateSolution(areas, cs, *sol);
  EXPECT_GT(sol->num_unassigned(), 0);
}

TEST(FactSolverTest, MoreConstraintsNeverIncreaseP) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", {3, 8, 5, 2, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8,
                2, 5, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8, 2, 5}}});
  auto single = SolveEmp(areas, {Constraint::Min("pop", 2, 5)});
  auto combo = SolveEmp(areas, {Constraint::Min("pop", 2, 5),
                                Constraint::Sum("pop", 20, kNoUpperBound)});
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(combo.ok());
  EXPECT_LE(combo->p(), single->p());
}

TEST(FactSolverTest, ParallelConstructionMatchesSequential) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", {3, 8, 5, 2, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8,
                2, 5, 9, 4, 7, 3, 6, 8, 2, 5, 9, 4, 7, 3, 6, 8, 2, 5}}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 20, kNoUpperBound),
                                Constraint::Min("pop", 2, 6)};
  SolverOptions sequential;
  sequential.construction_iterations = 4;
  SolverOptions parallel = sequential;
  parallel.construction_threads = 4;
  auto a = SolveEmp(areas, cs, sequential);
  auto b = SolveEmp(areas, cs, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Thread count must not change the result (deterministic selection).
  EXPECT_EQ(a->p(), b->p());
  EXPECT_EQ(a->region_of, b->region_of);
}

TEST(FactSolverTest, SummaryMentionsKeyNumbers) {
  AreaSet areas = test::PathAreaSet({5, 6, 7});
  auto sol = SolveEmp(areas, {Constraint::Sum("s", 5, kNoUpperBound)});
  ASSERT_TRUE(sol.ok());
  std::string summary = sol->Summary();
  EXPECT_NE(summary.find("p="), std::string::npos);
  EXPECT_NE(summary.find("unassigned="), std::string::npos);
}

// ---- Options validation (satellite: reject bad options up front). -------

TEST(FactSolverOptionsTest, BadOptionsNameTheField) {
  AreaSet areas = test::PathAreaSet({5, 6, 7});
  std::vector<Constraint> cs = {Constraint::Sum("s", 5, kNoUpperBound)};
  struct Case {
    void (*corrupt)(SolverOptions*);
    const char* field;
  };
  const Case cases[] = {
      {[](SolverOptions* o) { o->construction_iterations = 0; },
       "construction_iterations"},
      {[](SolverOptions* o) { o->construction_threads = 0; },
       "construction_threads"},
      {[](SolverOptions* o) { o->avg_merge_limit = -2; }, "avg_merge_limit"},
      {[](SolverOptions* o) { o->tabu_tenure = -1; }, "tabu_tenure"},
      {[](SolverOptions* o) { o->tabu_max_no_improve = -2; },
       "tabu_max_no_improve"},
      {[](SolverOptions* o) { o->tabu_max_iterations = -2; },
       "tabu_max_iterations"},
      {[](SolverOptions* o) { o->time_budget_ms = -2; }, "time_budget_ms"},
      {[](SolverOptions* o) { o->max_evaluations = -2; }, "max_evaluations"},
  };
  for (const Case& c : cases) {
    SolverOptions options;
    c.corrupt(&options);
    auto sol = SolveEmp(areas, cs, options);
    ASSERT_FALSE(sol.ok()) << c.field;
    EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(sol.status().message().find(c.field), std::string::npos)
        << "message should name '" << c.field
        << "': " << sol.status().ToString();
  }
}

// ---- Supervision / degradation (tentpole). ------------------------------

RunContext FaultAt(std::string phase, int64_t index) {
  RunContext ctx;
  ctx.fault_hook = [phase = std::move(phase), index](
                       const SupervisionCheckpoint& cp)
      -> std::optional<TerminationReason> {
    if (cp.phase == phase && cp.index >= index) {
      return TerminationReason::kFaultInjected;
    }
    return std::nullopt;
  };
  return ctx;
}

TEST(FactSolverSupervisionTest, PreCancelledRunReturnsDegradedEmpty) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"pop", {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  RunContext ctx;
  ctx.cancel.Cancel();
  auto sol = SolveEmp(areas, cs, SolverOptions{}, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kCancelled);
  EXPECT_EQ(sol->p(), 0);
  EXPECT_EQ(sol->num_unassigned(), areas.num_areas());
}

TEST(FactSolverSupervisionTest, FaultInFeasibilityDegradesToEmpty) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"pop", {5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  RunContext ctx = FaultAt("feasibility", 3);
  auto sol = SolveEmp(areas, cs, SolverOptions{}, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kFaultInjected);
  EXPECT_EQ(sol->p(), 0);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, FaultInConstructionKeepsFeasibleBestSoFar) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", std::vector<double>(36, 5.0)}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  SolverOptions options;
  options.construction_iterations = 4;
  options.construction_threads = 1;
  RunContext ctx = FaultAt("construction", 10);
  auto sol = SolveEmp(areas, cs, options, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kFaultInjected);
  EXPECT_LT(sol->completed_construction_iterations, 4);
  // Whatever was built when the fault hit must still be a valid partial
  // regionalization: disjoint, contiguous, constraint-satisfying.
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, FaultInTabuKeepsConstructionResult) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", std::vector<double>(36, 5.0)}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  RunContext ctx = FaultAt("tabu", 0);
  auto sol = SolveEmp(areas, cs, SolverOptions{}, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kFaultInjected);
  EXPECT_GT(sol->p(), 0) << "construction completed before the tabu fault";
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, EvaluationBudgetExhaustionIsReported) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", std::vector<double>(36, 5.0)}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  SolverOptions options;
  options.construction_iterations = 8;
  options.construction_threads = 1;
  options.max_evaluations = 200;  // Enough for feasibility, not the rest.
  auto sol = SolveEmp(areas, cs, options);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kBudgetExhausted);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, InterruptionIsNeverRetried) {
  // A fault at construction checkpoint 0 trips every attempt immediately;
  // with retries enabled the solver must still do exactly one attempt per
  // iteration (retries target errors/empty results, not interruptions) and
  // return the degraded solution promptly.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", std::vector<double>(25, 5.0)}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  SolverOptions options;
  options.construction_iterations = 2;
  options.construction_threads = 1;
  RunContext ctx = FaultAt("construction", 0);
  auto sol = SolveEmp(areas, cs, options, &ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kFaultInjected);
  EXPECT_EQ(sol->completed_construction_iterations, 0);
  ValidateSolution(areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, DeterministicUnderFaultInjection) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"pop", std::vector<double>(36, 5.0)}});
  std::vector<Constraint> cs = {Constraint::Sum("pop", 10, kNoUpperBound)};
  SolverOptions options;
  options.construction_iterations = 4;
  options.construction_threads = 1;
  RunContext ctx_a = FaultAt("construction", 25);
  auto a = SolveEmp(areas, cs, options, &ctx_a);
  RunContext ctx_b = FaultAt("construction", 25);
  auto b = SolveEmp(areas, cs, options, &ctx_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->p(), b->p());
  EXPECT_EQ(a->region_of, b->region_of);
  EXPECT_EQ(a->termination_reason, b->termination_reason);
}

// Acceptance criterion: a tight wall-clock budget on a large instance
// still returns kOk with a feasible, contiguous best-so-far.
TEST(FactSolverSupervisionTest, FiftyMsBudgetOnLargeInstanceDegrades) {
  auto areas = synthetic::MakeDefaultDataset("budget-demo", 3000, 4242);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  std::vector<Constraint> cs = {
      Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)};
  SolverOptions options;
  // Enough requested work that 50ms cannot possibly cover it.
  options.construction_iterations = 500;
  options.tabu_max_iterations = 1000000;
  options.time_budget_ms = 50;
  auto sol = SolveEmp(*areas, cs, options);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->termination_reason, TerminationReason::kDeadlineExceeded);
  EXPECT_LT(sol->completed_construction_iterations, 500);
  ValidateSolution(*areas, cs, *sol);
}

TEST(FactSolverSupervisionTest, ReportCarriesTerminationReason) {
  AreaSet areas = test::PathAreaSet({5, 6, 7});
  std::vector<Constraint> cs = {Constraint::Sum("s", 5, kNoUpperBound)};
  RunContext ctx;
  ctx.cancel.Cancel();
  auto sol = SolveEmp(areas, cs, SolverOptions{}, &ctx);
  ASSERT_TRUE(sol.ok());
  std::string summary = sol->Summary();
  EXPECT_NE(summary.find("cancelled"), std::string::npos) << summary;
  EXPECT_NE(summary.find("best-effort"), std::string::npos) << summary;
}

}  // namespace
}  // namespace emp
