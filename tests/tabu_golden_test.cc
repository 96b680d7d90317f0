#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/local_search/heterogeneity.h"
#include "core/local_search/tabu.h"
#include "core/solver.h"
#include "data/synthetic/dataset_catalog.h"
#include "test_util.h"

namespace emp {
namespace {

// The incremental neighborhood engine must be a pure optimization: for any
// instance and options, the (move, delta) trajectory it produces is
// bit-identical to the full-rebuild engine's. These tests pin that
// guarantee (DESIGN.md §8) on tie-heavy instances where any ordering
// nondeterminism would immediately diverge.

struct GoldenSetup {
  GoldenSetup(const AreaSet* areas_in, std::vector<Constraint> cs)
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

/// Runs TabuSearch with the given engine, recording the trajectory and
/// cross-checking the articulation cache against BFS on every verdict.
TabuResult RunEngine(const AreaSet& areas, std::vector<Constraint> cs,
                     const std::vector<std::pair<int32_t, int32_t>>& seed_plan,
                     int32_t num_regions, TabuEngine engine) {
  GoldenSetup setup(&areas, std::move(cs));
  std::vector<int32_t> rids;
  for (int32_t i = 0; i < num_regions; ++i) {
    rids.push_back(setup.partition.CreateRegion());
  }
  for (const auto& [area, region_index] : seed_plan) {
    setup.partition.Assign(area, rids[static_cast<size_t>(region_index)]);
  }
  SolverOptions options;
  options.tabu_max_no_improve = 64;
  options.tabu_engine = engine;
  options.tabu_record_trajectory = true;
  options.tabu_verify_connectivity_cache = true;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(ComputeHeterogeneity(setup.partition),
              result->final_heterogeneity, 1e-9);
  return std::move(result).value();
}

void ExpectIdenticalTrajectories(const TabuResult& full,
                                 const TabuResult& incremental) {
  EXPECT_EQ(incremental.iterations, full.iterations);
  EXPECT_EQ(incremental.moves_applied, full.moves_applied);
  EXPECT_EQ(incremental.moves_tried, full.moves_tried);
  EXPECT_EQ(incremental.improving_moves, full.improving_moves);
  // Bit-identical objective, not NEAR: both engines apply the same deltas
  // in the same order to the same incremental totals.
  EXPECT_EQ(incremental.final_heterogeneity, full.final_heterogeneity);
  ASSERT_EQ(incremental.trajectory.size(), full.trajectory.size());
  for (size_t i = 0; i < full.trajectory.size(); ++i) {
    EXPECT_EQ(incremental.trajectory[i].area, full.trajectory[i].area)
        << "move " << i;
    EXPECT_EQ(incremental.trajectory[i].from, full.trajectory[i].from)
        << "move " << i;
    EXPECT_EQ(incremental.trajectory[i].to, full.trajectory[i].to)
        << "move " << i;
    EXPECT_EQ(incremental.trajectory[i].delta, full.trajectory[i].delta)
        << "move " << i;
  }
}

TEST(TabuGoldenTest, PathInstancePinnedMovePrefix) {
  // Hand-computed golden prefix for s = {1,1,1,9,9,9}, initial split
  // {0,1} | {2,3,4,5} (H = 24):
  //   move 0: area 2, r1 -> r0, delta -24  (splits become {1,1,1}|{9,9,9})
  //   move 1: area 3, r1 -> r0, delta +24  (area 2's return is tabu)
  //   move 2: area 4, r1 -> r0, delta +24  (area 3's return is tabu)
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  std::vector<std::pair<int32_t, int32_t>> seed = {
      {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 1}, {5, 1}};
  TabuResult full = RunEngine(areas, {Constraint::Count(1, 6)}, seed, 2,
                              TabuEngine::kFullRebuild);
  TabuResult incremental = RunEngine(areas, {Constraint::Count(1, 6)}, seed,
                                     2, TabuEngine::kIncremental);
  ExpectIdenticalTrajectories(full, incremental);

  ASSERT_GE(incremental.trajectory.size(), 3u);
  EXPECT_EQ(incremental.trajectory[0].area, 2);
  EXPECT_EQ(incremental.trajectory[0].from, 1);
  EXPECT_EQ(incremental.trajectory[0].to, 0);
  EXPECT_DOUBLE_EQ(incremental.trajectory[0].delta, -24.0);
  EXPECT_EQ(incremental.trajectory[1].area, 3);
  EXPECT_EQ(incremental.trajectory[1].from, 1);
  EXPECT_EQ(incremental.trajectory[1].to, 0);
  EXPECT_DOUBLE_EQ(incremental.trajectory[1].delta, 24.0);
  EXPECT_EQ(incremental.trajectory[2].area, 4);
  EXPECT_EQ(incremental.trajectory[2].from, 1);
  EXPECT_EQ(incremental.trajectory[2].to, 0);
  EXPECT_DOUBLE_EQ(incremental.trajectory[2].delta, 24.0);
  EXPECT_DOUBLE_EQ(incremental.final_heterogeneity, 0.0);
}

TEST(TabuGoldenTest, TieHeavyGridTrajectoriesIdentical) {
  // Many duplicate attribute values = many candidates with equal deltas;
  // the canonical (delta, area, to) tie-break must make both engines pick
  // identically anyway.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {2, 2, 2, 5, 5, 2, 2, 5, 5, 5, 2, 5, 5, 5, 8,
              2, 5, 5, 8, 8, 5, 5, 8, 8, 8}}});
  std::vector<std::pair<int32_t, int32_t>> seed;
  for (int32_t a = 0; a < 25; ++a) seed.push_back({a, a % 5 < 2 ? 0 : 1});
  TabuResult full = RunEngine(areas, {Constraint::Count(1, 25)}, seed, 2,
                              TabuEngine::kFullRebuild);
  TabuResult incremental = RunEngine(areas, {Constraint::Count(1, 25)}, seed,
                                     2, TabuEngine::kIncremental);
  EXPECT_GT(full.moves_applied, 0);
  ExpectIdenticalTrajectories(full, incremental);
}

TEST(TabuGoldenTest, SumConstrainedThreeRegionTrajectoriesIdentical) {
  // A binding SUM constraint makes many candidates inadmissible, so both
  // engines must also agree on which candidates they tried and rejected.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(6, 6),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2, 5, 9,
              1, 6, 4, 7, 2, 8, 3, 5, 9, 1, 6, 4, 2, 7, 8, 3, 5, 9}}});
  std::vector<std::pair<int32_t, int32_t>> seed;
  for (int32_t a = 0; a < 36; ++a) seed.push_back({a, a / 12});
  TabuResult full =
      RunEngine(areas, {Constraint::Sum("s", 30, kNoUpperBound)}, seed, 3,
                TabuEngine::kFullRebuild);
  TabuResult incremental =
      RunEngine(areas, {Constraint::Sum("s", 30, kNoUpperBound)}, seed, 3,
                TabuEngine::kIncremental);
  EXPECT_GT(full.moves_applied, 0);
  ExpectIdenticalTrajectories(full, incremental);
}

TEST(TabuGoldenTest, IncrementalEngineIsTheDefault) {
  SolverOptions defaults;
  EXPECT_EQ(defaults.tabu_engine, TabuEngine::kIncremental);
  EXPECT_FALSE(defaults.tabu_verify_connectivity_cache);
  EXPECT_FALSE(defaults.tabu_record_trajectory);
}

TEST(TabuGoldenTest, CandidateAccountingDiffersButMovesDoNot) {
  // The incremental engine re-scores strictly fewer candidates; the
  // trajectory must not change. (Budget-supervised runs may therefore trip
  // at different points between engines — golden runs use no supervisor.)
  // Savings require frontiers away from the mutated pair, so use an 8x8
  // grid with four quadrant regions: a move between two quadrants leaves
  // most of the other quadrants' frontier candidates untouched.
  std::vector<double> values;
  for (int32_t a = 0; a < 64; ++a) {
    values.push_back(static_cast<double>((a * 37) % 11));
  }
  AreaSet areas = test::MakeAreaSet(test::GridGraph(8, 8), {{"s", values}});
  std::vector<std::pair<int32_t, int32_t>> seed;
  for (int32_t a = 0; a < 64; ++a) {
    const int32_t row = a / 8;
    const int32_t col = a % 8;
    seed.push_back({a, (row / 4) * 2 + (col / 4)});
  }
  TabuResult full = RunEngine(areas, {Constraint::Count(1, 64)}, seed, 4,
                              TabuEngine::kFullRebuild);
  TabuResult incremental = RunEngine(areas, {Constraint::Count(1, 64)}, seed,
                                     4, TabuEngine::kIncremental);
  ExpectIdenticalTrajectories(full, incremental);
  EXPECT_GT(full.candidates_scored, 0);
  EXPECT_GT(incremental.candidates_scored, 0);
  EXPECT_LT(incremental.candidates_scored, full.candidates_scored);
  // Both engines decide donor contiguity through the articulation cache,
  // but the full engine drops all of it on every rebuild, so it pays more
  // Tarjan passes.
  EXPECT_GT(full.cut_cache_misses, 0);
  EXPECT_GT(incremental.cut_cache_misses, 0);
  EXPECT_LT(incremental.cut_cache_misses, full.cut_cache_misses);
}

TEST(TabuGoldenTest, EnrichedQueryTrajectoriesIdentical) {
  // One constraint of each family (MIN, AVG, SUM), as in the paper's
  // enriched queries, with bounds that leave most candidates inadmissible:
  // both engines must decide the same verdicts and so take the same moves.
  // 8x8 grid in four 4x4 quadrants; every quadrant starts feasible.
  std::vector<double> m, v, s;
  for (int32_t a = 0; a < 64; ++a) {
    m.push_back(static_cast<double>((a * 29 + 3) % 17));
    v.push_back(static_cast<double>(10 + (a * 13 + 5) % 11));
    s.push_back(static_cast<double>(5 + (a * 37 + 11) % 23));
  }
  AreaSet areas = test::MakeAreaSet(test::GridGraph(8, 8),
                                    {{"m", m}, {"v", v}, {"s", s}}, "v");
  std::vector<std::pair<int32_t, int32_t>> seed;
  for (int32_t a = 0; a < 64; ++a) {
    seed.push_back({a, (a / 32) * 2 + (a % 8) / 4});
  }
  const std::vector<Constraint> query = {
      Constraint::Min("m", kNoLowerBound, 2),
      Constraint::Avg("v", 13, 17),
      Constraint::Sum("s", 230, kNoUpperBound)};
  TabuResult full =
      RunEngine(areas, query, seed, 4, TabuEngine::kFullRebuild);
  TabuResult incremental =
      RunEngine(areas, query, seed, 4, TabuEngine::kIncremental);
  EXPECT_GT(full.moves_applied, 0);
  ExpectIdenticalTrajectories(full, incremental);
}

// --- Construction-path golden pins ---------------------------------------
//
// The SoA RegionStats layout, the construction arena scratch, and the
// batched candidate rescoring are pure data-layout optimizations: a fixed
// seed must produce the bit-identical solution before and after. These pins
// freeze the full solve (feasibility -> construction -> tabu) for all three
// registered solvers on a 300-area synthetic instance. If a refactor
// changes any byte of the assignment or any bit of the final
// heterogeneity, the fingerprint string changes and the test names the
// divergence directly.

uint64_t Fnv1aAssignment(const Solution& s) {
  uint64_t h = 1469598103934665603ULL;
  for (int32_t r : s.region_of) {
    uint64_t x = static_cast<uint32_t>(r);
    for (int b = 0; b < 4; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string SolveFingerprint(const std::string& solver_name) {
  auto areas = synthetic::MakeDefaultDataset("golden9", 300, /*seed=*/17);
  EXPECT_TRUE(areas.ok());
  SolverSpec spec;
  spec.solver = solver_name;
  spec.areas = &*areas;
  if (solver_name == "fact") {
    // One constraint per evaluation family (extrema / centrality /
    // counting) so every SoA group participates in the pinned solve.
    spec.constraints = {Constraint::Min("POP16UP", kNoLowerBound, 3000),
                        Constraint::Avg("EMPLOYED", 1500, 3500),
                        Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)};
  } else {
    spec.attribute = "TOTALPOP";
    spec.threshold = 20000.0;
  }
  spec.options.seed = 1234;
  auto solver = CreateSolver(spec);
  if (!solver.ok()) return "create-error: " + solver.status().ToString();
  auto sol = (*solver)->Solve();
  if (!sol.ok()) return "solve-error: " + sol.status().ToString();
  char buf[128];
  std::snprintf(buf, sizeof buf, "p=%d u=%lld hash=%016llx het=%.17g",
                sol->p(), static_cast<long long>(sol->num_unassigned()),
                static_cast<unsigned long long>(Fnv1aAssignment(*sol)),
                sol->heterogeneity);
  return buf;
}

TEST(ConstructionGoldenTest, FactFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("fact"), "p=32 u=0 hash=a6d8ceeab99800be het=485642.03758292162");
}

TEST(ConstructionGoldenTest, MaxpFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("maxp"), "p=47 u=0 hash=4ccef91757c425e9 het=239130.23636412367");
}

TEST(ConstructionGoldenTest, SkaterFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("skater"), "p=50 u=0 hash=32f1c416700cb1b7 het=219945.6657012068");
}

}  // namespace
}  // namespace emp
