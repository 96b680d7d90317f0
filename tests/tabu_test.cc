#include "core/local_search/tabu.h"

#include <gtest/gtest.h>

#include "core/local_search/assignment_undo_log.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/objective.h"
#include "test_util.h"

namespace emp {
namespace {

struct TabuSetup {
  TabuSetup(const AreaSet* areas_in, std::vector<Constraint> cs)
      : areas(areas_in),
        bound(std::move(BoundConstraints::Create(areas_in, std::move(cs)))
                  .value()),
        partition(&bound),
        connectivity(&areas_in->graph()) {}

  const AreaSet* areas;
  BoundConstraints bound;
  Partition partition;
  ConnectivityChecker connectivity;
};

TEST(TabuTest, ImprovesAPoorInitialSplit) {
  // 1D map with values 1 1 1 9 9 9; optimal two-region split groups equal
  // values (H = 0); start from the interleaving split.
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  TabuSetup setup(&areas, {Constraint::Count(1, 6)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r1);
  for (int32_t a : {2, 3, 4, 5}) setup.partition.Assign(a, r2);

  SolverOptions options;
  options.tabu_max_no_improve = 50;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->final_heterogeneity, result->initial_heterogeneity);
  // Best split is {1,1,1} | {9,9,9}: H = 0.
  EXPECT_NEAR(result->final_heterogeneity, 0.0, 1e-9);
  EXPECT_EQ(setup.partition.RegionOf(2), r1);
  EXPECT_NEAR(ComputeHeterogeneity(setup.partition),
              result->final_heterogeneity, 1e-9);
}

TEST(TabuTest, PreservesRegionCountAndConstraints) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2}}});
  TabuSetup setup(&areas, {Constraint::Sum("s", 10, kNoUpperBound)});
  // Four quadrant regions.
  int32_t r[4];
  for (int i = 0; i < 4; ++i) r[i] = setup.partition.CreateRegion();
  const int32_t quadrant_of[16] = {0, 0, 1, 1, 0, 0, 1, 1,
                                   2, 2, 3, 3, 2, 2, 3, 3};
  for (int32_t a = 0; a < 16; ++a) {
    setup.partition.Assign(a, r[quadrant_of[a]]);
  }
  const int32_t p_before = setup.partition.NumRegions();

  SolverOptions options;
  options.tabu_max_no_improve = 64;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(setup.partition.NumRegions(), p_before);
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    EXPECT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
    EXPECT_TRUE(
        setup.connectivity.IsConnected(setup.partition.region(rid).areas));
  }
  EXPECT_LE(result->final_heterogeneity, result->initial_heterogeneity);
  EXPECT_TRUE(setup.partition.ValidateInvariants().ok());
}

TEST(TabuTest, NoAdmissibleMovesTerminatesImmediately) {
  // Two singleton regions cannot exchange anything (donor would empty).
  AreaSet areas = test::PathAreaSet({1, 9});
  TabuSetup setup(&areas, {Constraint::Count(1, 2)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  setup.partition.Assign(0, r1);
  setup.partition.Assign(1, r2);
  auto result = TabuSearch({}, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->moves_applied, 0);
  EXPECT_DOUBLE_EQ(result->final_heterogeneity,
                   result->initial_heterogeneity);
}

TEST(TabuTest, RespectsConstraintValidityOfMoves) {
  // SUM >= 10 with region sums exactly 10: no area may move anywhere.
  AreaSet areas = test::PathAreaSet({5, 5, 5, 5});
  TabuSetup setup(&areas, {Constraint::Sum("s", 10, kNoUpperBound)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r1);
  for (int32_t a : {2, 3}) setup.partition.Assign(a, r2);
  auto result = TabuSearch({}, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->moves_applied, 0);
}

TEST(TabuTest, MaxIterationsCapRespected) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
              14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}}});
  TabuSetup setup(&areas, {Constraint::Count(1, 25)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 25; ++a) {
    setup.partition.Assign(a, a % 5 < 2 ? r1 : r2);
  }
  SolverOptions options;
  options.tabu_max_iterations = 3;
  options.tabu_max_no_improve = 1000;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, 3);
}

TEST(TabuTest, ImprovementRatioComputedAgainstInitial) {
  TabuResult r;
  r.initial_heterogeneity = 200;
  r.final_heterogeneity = 150;
  EXPECT_NEAR(r.ImprovementRatio(), 0.25, 1e-12);
  TabuResult zero;
  zero.initial_heterogeneity = 0;
  zero.final_heterogeneity = 0;
  EXPECT_DOUBLE_EQ(zero.ImprovementRatio(), 0.0);
}

TEST(TabuTest, RestoresBestNotLast) {
  // With worsening moves allowed, the returned partition must equal the
  // best snapshot: its heterogeneity equals final_heterogeneity exactly.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(3, 4),
      {{"s", {5, 3, 8, 1, 9, 2, 7, 4, 6, 1, 8, 3}}});
  TabuSetup setup(&areas, {Constraint::Count(1, 12)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 12; ++a) {
    setup.partition.Assign(a, a < 6 ? r1 : r2);
  }
  SolverOptions options;
  options.tabu_max_no_improve = 30;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(ComputeHeterogeneity(setup.partition),
              result->final_heterogeneity, 1e-9);
  EXPECT_LE(result->final_heterogeneity, result->initial_heterogeneity);
}

TEST(TabuTest, UndoLogRestoreMatchesSnapshotRestore) {
  // A run that ends on non-improving moves hands back its best partition
  // by undoing them. Replaying the trajectory on a second partition, a
  // snapshot of the best state plus RestoreAssignment must land on the
  // same assignment, the same member lists (order included) and the same
  // RegionStats.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2}}});
  const std::vector<Constraint> cs = {Constraint::Sum("s", 10, kNoUpperBound),
                                      Constraint::Min("s", kNoLowerBound, 4)};
  const int32_t quadrant_of[16] = {0, 0, 1, 1, 0, 0, 1, 1,
                                   2, 2, 3, 3, 2, 2, 3, 3};
  auto seed = [&](Partition* partition) {
    int32_t r[4];
    for (int i = 0; i < 4; ++i) r[i] = partition->CreateRegion();
    for (int32_t a = 0; a < 16; ++a) partition->Assign(a, r[quadrant_of[a]]);
  };
  TabuSetup searched(&areas, cs);
  seed(&searched.partition);
  SolverOptions options;
  options.tabu_max_no_improve = 20;
  std::vector<TabuMove> trajectory;
  TabuTestSeam seam;
  seam.trajectory = &trajectory;
  auto result = TabuSearch(options, &searched.connectivity,
                           &searched.partition, /*objective=*/nullptr,
                           /*supervisor=*/nullptr, &seam);
  ASSERT_TRUE(result.ok());

  TabuSetup replayed(&areas, cs);
  seed(&replayed.partition);
  HeterogeneityObjective objective(replayed.partition);
  double best_total = objective.total();
  std::vector<int32_t> best(16);
  auto snapshot = [&] {
    for (int32_t a = 0; a < 16; ++a) best[a] = replayed.partition.RegionOf(a);
  };
  snapshot();
  size_t moves_after_best = 0;
  for (const TabuMove& mv : trajectory) {
    objective.ApplyMove(mv.area, mv.from, mv.to);
    replayed.partition.Move(mv.area, mv.to);
    if (objective.total() < best_total - 1e-9) {
      best_total = objective.total();
      snapshot();
      moves_after_best = 0;
    } else {
      ++moves_after_best;
    }
  }
  ASSERT_EQ(moves_after_best, 20u) << "the run must end on a non-improving "
                                      "streak for the restore to matter";
  RestoreAssignment(best, &replayed.partition);

  for (int32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(searched.partition.RegionOf(a), replayed.partition.RegionOf(a))
        << "area " << a;
  }
  for (int32_t rid : replayed.partition.AliveRegionIds()) {
    const Region& want = replayed.partition.region(rid);
    const Region& got = searched.partition.region(rid);
    EXPECT_EQ(got.areas, want.areas) << "region " << rid;
    ASSERT_EQ(got.stats.count(), want.stats.count()) << "region " << rid;
    for (int ci = 0; ci < static_cast<int>(cs.size()); ++ci) {
      EXPECT_EQ(got.stats.AggregateValue(ci), want.stats.AggregateValue(ci))
          << "region " << rid << " constraint " << ci;
    }
  }
  EXPECT_EQ(result->final_heterogeneity, best_total);
}

TEST(TabuTest, NullArgumentsRejected) {
  AreaSet areas = test::PathAreaSet({1, 2});
  TabuSetup setup(&areas, {});
  EXPECT_FALSE(TabuSearch({}, nullptr, &setup.partition).ok());
  EXPECT_FALSE(TabuSearch({}, &setup.connectivity, nullptr).ok());
}

TEST(TabuTest, DefaultNoImproveCapIsTheAreaCount) {
  // tabu_max_no_improve = -1 means "number of areas" (paper's default).
  // On an instance where every applied move worsens H, the search must
  // stop after exactly num_areas non-improving iterations — here 12 —
  // rather than looping forever or reading -1 literally.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(3, 4),
      {{"s", {5, 3, 8, 1, 9, 2, 7, 4, 6, 1, 8, 3}}});
  TabuSetup setup(&areas, {Constraint::Count(1, 12)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 12; ++a) {
    setup.partition.Assign(a, a < 6 ? r1 : r2);
  }
  SolverOptions defaults;  // tabu_max_no_improve = -1
  ASSERT_EQ(defaults.tabu_max_no_improve, -1);
  auto result = TabuSearch(defaults, &setup.connectivity, &setup.partition);
  ASSERT_TRUE(result.ok());
  // The run terminated (no infinite loop) and did at least one iteration;
  // each iteration either improves (resetting the counter) or counts
  // toward the 12-iteration cap, so iterations is finite and bounded by
  // improving_moves-resets plus num_areas.
  EXPECT_GE(result->iterations, 1);
  EXPECT_LE(result->iterations,
            (result->improving_moves + 1) *
                static_cast<int64_t>(areas.num_areas()) +
                result->improving_moves + 1);
}

TEST(TabuTest, FaultInjectionRestoresBestFeasibleState) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2}}});
  TabuSetup setup(&areas, {Constraint::Sum("s", 10, kNoUpperBound)});
  int32_t r[4];
  for (int i = 0; i < 4; ++i) r[i] = setup.partition.CreateRegion();
  const int32_t quadrant_of[16] = {0, 0, 1, 1, 0, 0, 1, 1,
                                   2, 2, 3, 3, 2, 2, 3, 3};
  for (int32_t a = 0; a < 16; ++a) {
    setup.partition.Assign(a, r[quadrant_of[a]]);
  }
  const int32_t p_before = setup.partition.NumRegions();

  RunContext ctx;
  ctx.fault_hook = [](const SupervisionCheckpoint& cp)
      -> std::optional<TerminationReason> {
    if (cp.phase == "tabu" && cp.index >= 3) {
      return TerminationReason::kFaultInjected;
    }
    return std::nullopt;
  };
  PhaseSupervisor supervisor(&ctx, "tabu");
  SolverOptions options;
  options.tabu_max_no_improve = 64;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition,
                           /*objective=*/nullptr, &supervisor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kFaultInjected);
  // The interrupted search hands back its best snapshot: region count
  // unchanged, all constraints and contiguity intact, H no worse than
  // the starting point.
  EXPECT_EQ(setup.partition.NumRegions(), p_before);
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    EXPECT_TRUE(setup.partition.region(rid).stats.SatisfiesAll());
    EXPECT_TRUE(
        setup.connectivity.IsConnected(setup.partition.region(rid).areas));
  }
  EXPECT_LE(result->final_heterogeneity, result->initial_heterogeneity);
  EXPECT_TRUE(setup.partition.ValidateInvariants().ok());
}

TEST(TabuTest, CancellationStopsTheSearch) {
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  TabuSetup setup(&areas, {Constraint::Count(1, 6)});
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r1);
  for (int32_t a : {2, 3, 4, 5}) setup.partition.Assign(a, r2);

  RunContext ctx;
  ctx.cancel.Cancel();
  PhaseSupervisor supervisor(&ctx, "tabu");
  auto result = TabuSearch({}, &setup.connectivity, &setup.partition,
                           /*objective=*/nullptr, &supervisor);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->termination, TerminationReason::kCancelled);
  EXPECT_EQ(result->iterations, 0);
  // Untouched: the initial assignment survives verbatim.
  EXPECT_DOUBLE_EQ(result->final_heterogeneity,
                   result->initial_heterogeneity);
}

}  // namespace
}  // namespace emp
