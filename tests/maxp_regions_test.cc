#include "baseline/maxp_regions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/fact_solver.h"
#include "data/synthetic/dataset_catalog.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace emp {
namespace {

void ValidateMaxP(const AreaSet& areas, double threshold,
                  const Solution& sol) {
  auto bc = BoundConstraints::Create(
      &areas, {Constraint::Sum("pop", threshold, kNoUpperBound)});
  ASSERT_TRUE(bc.ok());
  ConnectivityChecker connectivity(&areas.graph());
  std::set<int32_t> seen;
  for (const auto& region : sol.regions) {
    EXPECT_FALSE(region.empty());
    EXPECT_TRUE(connectivity.IsConnected(region));
    RegionStats stats(&*bc);
    for (int32_t a : region) {
      stats.Add(a);
      EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_GE(stats.AggregateValue(0), threshold);
  }
}

AreaSet Grid5(const char* name = "g") {
  (void)name;
  return test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
                6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
}

TEST(MaxPRegionsTest, ProducesValidRegions) {
  AreaSet areas = Grid5();
  MaxPRegionsSolver solver(&areas, "pop", 25);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->p(), 2);
  ValidateMaxP(areas, 25, *sol);
}

TEST(MaxPRegionsTest, AssignsEveryAreaWhenFeasible) {
  AreaSet areas = Grid5();
  MaxPRegionsSolver solver(&areas, "pop", 25);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  // Classic max-p has no U0: total pop (234) >> threshold, grid connected,
  // so everything should be absorbed.
  EXPECT_EQ(sol->num_unassigned(), 0);
}

TEST(MaxPRegionsTest, InfeasibleWhenTotalBelowThreshold) {
  AreaSet areas = test::PathAreaSet({1, 2, 3});
  MaxPRegionsSolver solver(&areas, "s", 100);
  auto sol = solver.Solve();
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(MaxPRegionsTest, HigherThresholdFewerRegions) {
  AreaSet areas = Grid5();
  auto low = MaxPRegionsSolver(&areas, "pop", 20).Solve();
  auto high = MaxPRegionsSolver(&areas, "pop", 60).Solve();
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GT(low->p(), high->p());
}

TEST(MaxPRegionsTest, TabuImprovesOrKeepsHeterogeneity) {
  AreaSet areas = Grid5();
  auto sol = MaxPRegionsSolver(&areas, "pop", 30).Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->heterogeneity, sol->heterogeneity_before_local_search + 1e-9);
}

TEST(MaxPRegionsTest, ComparableToFactOnSameSingleSumQuery) {
  // The paper reports FaCT's `S` row tracks the MP baseline closely
  // (Table IV). Verify p values are within a modest factor on a synthetic
  // map large enough to be meaningful.
  auto areas = synthetic::MakeCatalogDataset("small");
  ASSERT_TRUE(areas.ok());
  const double threshold = 20000;
  auto mp = MaxPRegionsSolver(&*areas, "TOTALPOP", threshold).Solve();
  auto fact =
      SolveEmp(*areas, {Constraint::Sum("TOTALPOP", threshold, kNoUpperBound)});
  ASSERT_TRUE(mp.ok());
  ASSERT_TRUE(fact.ok());
  EXPECT_GT(mp->p(), 0);
  EXPECT_GT(fact->p(), 0);
  double ratio = static_cast<double>(fact->p()) / mp->p();
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.67);
}

TEST(MaxPRegionsTest, DeterministicForFixedSeed) {
  AreaSet areas = Grid5();
  SolverOptions options;
  options.seed = 3;
  auto a = MaxPRegionsSolver(&areas, "pop", 25, options).Solve();
  auto b = MaxPRegionsSolver(&areas, "pop", 25, options).Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->region_of, b->region_of);
}

TEST(MaxPRegionsTest, WritesRunLevelMetrics) {
  AreaSet areas = Grid5();
  MaxPRegionsSolver solver(&areas, "pop", 25);
  obs::MetricRegistry registry;
  RunContext ctx = MakeRunContext(solver.options());
  ctx.metrics = &registry;
  auto sol = solver.Solve(ctx);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  // The run bracket and the shared phases write the same run-level
  // metrics as a FaCT run.
  EXPECT_EQ(registry.GetGauge("emp_solution_p")->value(), sol->p());
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const char* gauge : {"emp_feasibility_seconds", "emp_tabu_seconds",
                            "emp_solver_seconds"}) {
    EXPECT_TRUE(std::any_of(
        snapshot.gauges.begin(), snapshot.gauges.end(),
        [&](const auto& entry) { return entry.first == gauge; }))
        << gauge;
  }
}

TEST(MaxPRegionsTest, CreateValidatesEagerly) {
  AreaSet areas = Grid5();
  EXPECT_FALSE(MaxPRegionsSolver::Create(nullptr, "pop", 25).ok());
  EXPECT_FALSE(MaxPRegionsSolver::Create(&areas, "no_such_attr", 25).ok());
  EXPECT_FALSE(MaxPRegionsSolver::Create(&areas, "pop", 0).ok());
  EXPECT_FALSE(MaxPRegionsSolver::Create(&areas, "pop", -5).ok());
  SolverOptions bad;
  bad.construction_iterations = 0;
  EXPECT_FALSE(MaxPRegionsSolver::Create(&areas, "pop", 25, bad).ok());

  auto solver = MaxPRegionsSolver::Create(&areas, "pop", 25);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto sol = solver->Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_GE(sol->p(), 1);
}

}  // namespace
}  // namespace emp
