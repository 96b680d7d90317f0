#include "baseline/skater.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/maxp_regions.h"
#include "data/synthetic/dataset_catalog.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace emp {
namespace {

void ValidateSkater(const AreaSet& areas, const std::string& attr,
                    double threshold, const Solution& sol) {
  auto bc = BoundConstraints::Create(
      &areas, {Constraint::Sum(attr, threshold, kNoUpperBound)});
  ASSERT_TRUE(bc.ok());
  ConnectivityChecker connectivity(&areas.graph());
  std::set<int32_t> seen;
  for (const auto& region : sol.regions) {
    ASSERT_FALSE(region.empty());
    EXPECT_TRUE(connectivity.IsConnected(region));
    RegionStats stats(&*bc);
    for (int32_t a : region) {
      stats.Add(a);
      EXPECT_TRUE(seen.insert(a).second);
    }
    EXPECT_GE(stats.AggregateValue(0), threshold);
  }
}

TEST(SkaterTest, PartitionsAPath) {
  AreaSet areas = test::PathAreaSet({6, 6, 6, 6, 6, 6});
  SkaterMaxPSolver solver(&areas, "s", 12);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->p(), 3);
  EXPECT_EQ(sol->num_unassigned(), 0);
  ValidateSkater(areas, "s", 12, *sol);
}

TEST(SkaterTest, LeftoverAttachesToARegion) {
  // Total 15, threshold 6: two regions (12 used) + leftover 3 attaches.
  AreaSet areas = test::PathAreaSet({3, 3, 3, 3, 3});
  SkaterMaxPSolver solver(&areas, "s", 6);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->p(), 2);
  EXPECT_EQ(sol->num_unassigned(), 0);
  ValidateSkater(areas, "s", 6, *sol);
}

TEST(SkaterTest, InfeasibleComponentStaysUnassigned) {
  // Component {0,1} totals 4 < 10; component {2,3} totals 20.
  auto graph = ContiguityGraph::FromEdges(4, {{0, 1}, {2, 3}});
  AreaSet areas =
      test::MakeAreaSet(std::move(graph).value(), {{"s", {2, 2, 10, 10}}});
  SkaterMaxPSolver solver(&areas, "s", 10);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->p(), 2);
  EXPECT_EQ(sol->num_unassigned(), 2);
  ValidateSkater(areas, "s", 10, *sol);
}

TEST(SkaterTest, FullyInfeasibleRejected) {
  AreaSet areas = test::PathAreaSet({1, 1});
  SkaterMaxPSolver solver(&areas, "s", 100);
  auto sol = solver.Solve();
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInfeasible);
}

TEST(SkaterTest, ComparableToMaxPOnSyntheticMap) {
  auto areas = synthetic::MakeCatalogDataset("small");
  ASSERT_TRUE(areas.ok());
  const double threshold = 20000;
  SolverOptions options;
  options.tabu_max_no_improve = 100;
  auto skater =
      SkaterMaxPSolver(&*areas, "TOTALPOP", threshold, options).Solve();
  auto mp = MaxPRegionsSolver(&*areas, "TOTALPOP", threshold, options).Solve();
  ASSERT_TRUE(skater.ok()) << skater.status().ToString();
  ASSERT_TRUE(mp.ok());
  ValidateSkater(*areas, "TOTALPOP", threshold, *skater);
  double ratio = static_cast<double>(skater->p()) / mp->p();
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 1.5);
}

TEST(SkaterTest, TabuPolishNeverWorsens) {
  auto areas = synthetic::MakeCatalogDataset("tiny");
  ASSERT_TRUE(areas.ok());
  SkaterMaxPSolver solver(&*areas, "TOTALPOP", 30000);
  auto sol = solver.Solve();
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->heterogeneity,
            sol->heterogeneity_before_local_search + 1e-9);
}

TEST(SkaterTest, DeterministicAcrossRuns) {
  AreaSet areas = test::PathAreaSet({4, 8, 2, 9, 5, 7, 3});
  auto a = SkaterMaxPSolver(&areas, "s", 10).Solve();
  auto b = SkaterMaxPSolver(&areas, "s", 10).Solve();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->region_of, b->region_of);
}

TEST(SkaterTest, WritesRunLevelMetrics) {
  AreaSet areas = test::PathAreaSet({4, 8, 2, 9, 5, 7, 3});
  SkaterMaxPSolver solver(&areas, "s", 10);
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

TEST(SkaterTest, CreateValidatesEagerly) {
  AreaSet areas = test::PathAreaSet({6, 6, 6, 6, 6, 6});
  EXPECT_FALSE(SkaterMaxPSolver::Create(nullptr, "s", 12).ok());
  EXPECT_FALSE(SkaterMaxPSolver::Create(&areas, "no_such_attr", 12).ok());
  EXPECT_FALSE(SkaterMaxPSolver::Create(&areas, "s", 0).ok());
  SolverOptions bad;
  bad.construction_threads = 0;
  EXPECT_FALSE(SkaterMaxPSolver::Create(&areas, "s", 12, bad).ok());

  auto solver = SkaterMaxPSolver::Create(&areas, "s", 12);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto sol = solver->Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(sol->p(), 3);
}

}  // namespace
}  // namespace emp
