#include "core/construction/unified_growth.h"

#include <gtest/gtest.h>

#include "core/fact_solver.h"
#include "core/feasibility.h"
#include "data/synthetic/dataset_catalog.h"
#include "graph/connectivity.h"
#include "test_util.h"

namespace emp {
namespace {

struct UnifiedSetup {
  UnifiedSetup(const AreaSet* areas, std::vector<Constraint> cs)
      : bound(std::move(BoundConstraints::Create(areas, std::move(cs)))
                  .value()),
        feasibility(std::move(CheckFeasibility(bound)).value()),
        seeding(SelectSeeds(bound, feasibility)),
        partition(&bound) {
    for (int32_t a : feasibility.invalid_areas) partition.Deactivate(a);
  }

  Status Grow(uint64_t seed = 1) {
    Rng rng(seed);
    return GrowUnified(seeding, {}, &rng, &partition, &stats);
  }

  BoundConstraints bound;
  FeasibilityReport feasibility;
  SeedingResult seeding;
  Partition partition;
  UnifiedGrowthStats stats;
};

TEST(ConstraintViolationTest, ZeroWhenSatisfied) {
  AreaSet areas = test::PathAreaSet({5, 6, 7});
  auto bc = BoundConstraints::Create(
      &areas, {Constraint::Sum("s", 10, 20), Constraint::Count(1, 3)});
  ASSERT_TRUE(bc.ok());
  RegionStats stats(&*bc);
  stats.Add(0);
  stats.Add(1);
  EXPECT_DOUBLE_EQ(ConstraintViolation(*bc, stats), 0.0);
}

TEST(ConstraintViolationTest, NormalizedBreaches) {
  AreaSet areas = test::PathAreaSet({5, 6, 7});
  auto bc = BoundConstraints::Create(&areas,
                                     {Constraint::Sum("s", 10, 20)});
  ASSERT_TRUE(bc.ok());
  RegionStats stats(&*bc);
  stats.Add(0);  // sum 5, breach (10-5)/10 = 0.5
  EXPECT_NEAR(ConstraintViolation(*bc, stats), 0.5, 1e-12);
  stats.Add(1);
  stats.Add(2);  // sum 18, in range
  EXPECT_DOUBLE_EQ(ConstraintViolation(*bc, stats), 0.0);
}

TEST(UnifiedGrowthTest, GrowsFeasibleRegions) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"pop", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
                6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  UnifiedSetup setup(&areas, {Constraint::Sum("pop", 25, kNoUpperBound)});
  ASSERT_TRUE(setup.Grow().ok());
  EXPECT_GT(setup.partition.NumRegions(), 1);
  ConnectivityChecker check(&areas.graph());
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    EXPECT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
    EXPECT_TRUE(check.IsConnected(setup.partition.region(rid).areas));
  }
}

TEST(UnifiedGrowthTest, HandlesAllConstraintFamilies) {
  auto areas = synthetic::MakeCatalogDataset("tiny");
  ASSERT_TRUE(areas.ok());
  UnifiedSetup setup(&*areas, {
      Constraint::Min("POP16UP", kNoLowerBound, 4000),
      Constraint::Avg("EMPLOYED", 1200, 3500),
      Constraint::Sum("TOTALPOP", 15000, kNoUpperBound),
      Constraint::Count(2, 30),
  });
  ASSERT_TRUE(setup.Grow().ok());
  ConnectivityChecker check(&areas->graph());
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    EXPECT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
    EXPECT_TRUE(check.IsConnected(setup.partition.region(rid).areas));
  }
}

TEST(UnifiedGrowthTest, AbandonsHopelessSeeds) {
  // Threshold unreachable from the left component.
  auto graph = ContiguityGraph::FromEdges(4, {{0, 1}, {2, 3}});
  AreaSet areas =
      test::MakeAreaSet(std::move(graph).value(), {{"s", {2, 2, 9, 9}}});
  UnifiedSetup setup(&areas, {Constraint::Sum("s", 10, kNoUpperBound)});
  ASSERT_TRUE(setup.Grow().ok());
  EXPECT_EQ(setup.partition.NumRegions(), 1);
  EXPECT_GT(setup.stats.regions_abandoned, 0);
}

TEST(UnifiedGrowthTest, RequiresEmptyPartition) {
  AreaSet areas = test::PathAreaSet({1, 2});
  UnifiedSetup setup(&areas, {});
  setup.partition.CreateRegion();
  setup.partition.Assign(0, 0);
  Rng rng(1);
  EXPECT_EQ(GrowUnified(setup.seeding, {}, &rng, &setup.partition).code(),
            StatusCode::kFailedPrecondition);
}

TEST(UnifiedGrowthTest, SolverStrategyOptionProducesValidSolutions) {
  auto areas = synthetic::MakeCatalogDataset("small");
  ASSERT_TRUE(areas.ok());
  UnifiedSetup setup(&*areas,
                     {Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)});
  ASSERT_TRUE(setup.Grow(/*seed=*/42).ok());
  EXPECT_GT(setup.partition.NumRegions(), 0);
  ConnectivityChecker check(&areas->graph());
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    EXPECT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
    EXPECT_TRUE(check.IsConnected(setup.partition.region(rid).areas));
  }
}

TEST(UnifiedGrowthTest, FactStrategyCoversMoreAreasOnMultiConstraint) {
  // Measured trade-off (see bench/ablation_strategy): the single-step
  // baseline reaches comparable p but strands noticeably more areas;
  // FaCT's dedicated enclave machinery is what drives coverage
  // (construction objective (c) in §V-B: "minimizes the number of
  // unassigned areas").
  auto areas = synthetic::MakeCatalogDataset("small");
  ASSERT_TRUE(areas.ok());
  std::vector<Constraint> cs = {
      Constraint::Min("POP16UP", kNoLowerBound, 3000),
      Constraint::Avg("EMPLOYED", 1500, 3500),
      Constraint::Sum("TOTALPOP", 20000, kNoUpperBound),
  };
  SolverOptions base;
  base.run_local_search = false;
  auto fact = SolveEmp(*areas, cs, base);
  ASSERT_TRUE(fact.ok());
  UnifiedSetup setup(&*areas, cs);
  ASSERT_TRUE(setup.Grow(base.seed).ok());
  Solution uni;
  FillAssignmentFromPartition(setup.partition, &uni);
  EXPECT_LE(fact->num_unassigned(), uni.num_unassigned());
  // And p stays in the same ballpark (within 2x either way).
  EXPECT_LT(fact->p(), uni.p() * 2 + 1);
  EXPECT_LT(uni.p(), fact->p() * 2 + 1);
}

}  // namespace
}  // namespace emp
