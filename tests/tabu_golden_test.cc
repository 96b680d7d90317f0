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

enum class Engine { kIncremental, kFullRebuild };

/// A tabu run's result plus the moves it applied.
struct EngineWalk : TabuResult {
  std::vector<TabuMove> trajectory;
};

/// Runs TabuSearch with the given engine through the test seam, recording
/// the trajectory and cross-checking the articulation cache against BFS
/// on every verdict.
EngineWalk RunEngine(const AreaSet& areas, std::vector<Constraint> cs,
                     const std::vector<std::pair<int32_t, int32_t>>& seed_plan,
                     int32_t num_regions, Engine engine) {
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
  EngineWalk walk;
  TabuTestSeam seam;
  seam.full_rebuild = engine == Engine::kFullRebuild;
  seam.verify_connectivity_cache = true;
  seam.trajectory = &walk.trajectory;
  auto result = TabuSearch(options, &setup.connectivity, &setup.partition,
                           /*objective=*/nullptr, /*supervisor=*/nullptr,
                           &seam);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(ComputeHeterogeneity(setup.partition),
              result->final_heterogeneity, 1e-9);
  static_cast<TabuResult&>(walk) = std::move(result).value();
  return walk;
}

void ExpectIdenticalTrajectories(const EngineWalk& full,
                                 const EngineWalk& incremental) {
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
  EngineWalk full = RunEngine(areas, {Constraint::Count(1, 6)}, seed, 2,
                              Engine::kFullRebuild);
  EngineWalk incremental = RunEngine(areas, {Constraint::Count(1, 6)}, seed,
                                     2, Engine::kIncremental);
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
  EngineWalk full = RunEngine(areas, {Constraint::Count(1, 25)}, seed, 2,
                              Engine::kFullRebuild);
  EngineWalk incremental = RunEngine(areas, {Constraint::Count(1, 25)}, seed,
                                     2, Engine::kIncremental);
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
  EngineWalk full =
      RunEngine(areas, {Constraint::Sum("s", 30, kNoUpperBound)}, seed, 3,
                Engine::kFullRebuild);
  EngineWalk incremental =
      RunEngine(areas, {Constraint::Sum("s", 30, kNoUpperBound)}, seed, 3,
                Engine::kIncremental);
  EXPECT_GT(full.moves_applied, 0);
  ExpectIdenticalTrajectories(full, incremental);
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
  EngineWalk full = RunEngine(areas, {Constraint::Count(1, 64)}, seed, 4,
                              Engine::kFullRebuild);
  EngineWalk incremental = RunEngine(areas, {Constraint::Count(1, 64)}, seed,
                                     4, Engine::kIncremental);
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
  EngineWalk full = RunEngine(areas, query, seed, 4, Engine::kFullRebuild);
  EngineWalk incremental =
      RunEngine(areas, query, seed, 4, Engine::kIncremental);
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

std::string SolveFingerprint(const std::string& solver_name,
                             int32_t portfolio_replicas = 1) {
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
  if (portfolio_replicas > 1) {
    spec.options.portfolio_replicas = portfolio_replicas;
    spec.options.portfolio_threads = 2;
  }
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

/// FaCT construction only (no tabu), best of 4 iterations on `threads`
/// workers. The thread count must not change the answer; both are pinned.
std::string ConstructionFingerprint(const AreaSet& areas,
                                    std::vector<Constraint> constraints,
                                    int threads) {
  SolverSpec spec;
  spec.solver = "fact";
  spec.areas = &areas;
  spec.constraints = std::move(constraints);
  spec.options.seed = 1234;
  spec.options.construction_iterations = 4;
  spec.options.construction_threads = threads;
  spec.options.run_local_search = false;
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

const AreaSet& Golden9() {
  static const AreaSet* areas = [] {
    auto made = synthetic::MakeDefaultDataset("golden9", 300, /*seed=*/17);
    if (!made.ok()) std::abort();
    return new AreaSet(std::move(made).value());
  }();
  return *areas;
}

/// golden9 plus a "NET" column that is negative on about a third of the
/// areas, so SUM lower bounds see donors whose removal raises the sum.
const AreaSet& Golden9WithNegatives() {
  static const AreaSet* areas = [] {
    const AreaSet& base = Golden9();
    AttributeTable table = base.attributes();
    const int pop = table.ColumnIndex("TOTALPOP").value();
    std::vector<double> net;
    for (int32_t a = 0; a < base.num_areas(); ++a) {
      const double scale = static_cast<double>((a * 37) % 11 - 3) / 4.0;
      net.push_back(table.Value(pop, a) * scale);
    }
    if (!table.AddColumn("NET", std::move(net)).ok()) std::abort();
    auto made = AreaSet::CreateWithoutGeometry(
        "golden9-net", base.graph(), std::move(table), "HOUSEHOLDS");
    if (!made.ok()) std::abort();
    return new AreaSet(std::move(made).value());
  }();
  return *areas;
}

struct ConstructionCase {
  const char* name;
  const AreaSet& (*areas)();
  std::vector<Constraint> query;
  const char* expected;
};

/// One query shape per construction path: the enriched query (every
/// family), AVG only (round-2 merges), SUM >= l only (merge repair), COUNT
/// with both bounds (upper-bound evictions), a MIN lower bound beside a MAX
/// (extrema combining) and SUM over a column with negative values (swaps
/// whose donors can gain from losing an area).
std::vector<ConstructionCase> ConstructionCases() {
  return {
      {"enriched", Golden9,
       {Constraint::Min("POP16UP", kNoLowerBound, 3000),
        Constraint::Avg("EMPLOYED", 1500, 3500),
        Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)},
       "p=32 u=0 hash=7f801c183af0800d het=1181489.0425095507"},
      {"avg-only", Golden9,
       {Constraint::Avg("EMPLOYED", 1900, 2100)},
       "p=52 u=19 hash=216ef755121edbb8 het=3240972.6971800723"},
      {"sum-lower", Golden9,
       {Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)},
       "p=44 u=0 hash=41c001fa7da882fd het=475034.48813905026"},
      {"count-bounded", Golden9,
       {Constraint::Count(3, 6), Constraint::Avg("EMPLOYED", 1700, 2300)},
       "p=45 u=100 hash=fb44b1997a2df4fc het=167835.05216220653"},
      {"min-lower", Golden9,
       {Constraint::Min("POP16UP", 1000, 2800),
        Constraint::Max("EMPLOYED", 2200, kNoUpperBound),
        Constraint::Sum("TOTALPOP", 15000, kNoUpperBound)},
       "p=34 u=7 hash=ebaf2cbfdb7ea073 het=1212159.0642966088"},
      {"sum-negative", Golden9WithNegatives,
       {Constraint::Avg("EMPLOYED", 1500, 3500),
        Constraint::Sum("NET", 4000, kNoUpperBound)},
       "p=71 u=16 hash=e14f8423cfebe4c7 het=1117601.3044760078"},
  };
}

TEST(ConstructionGoldenTest, FactConstructionOnlyPinnedPerQueryShape) {
  for (const ConstructionCase& c : ConstructionCases()) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(ConstructionFingerprint(c.areas(), c.query, threads),
                c.expected)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(ConstructionGoldenTest, FactFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("fact"), "p=32 u=0 hash=a6d8ceeab99800be het=485642.03758292162");
}

TEST(ConstructionGoldenTest, FactFourReplicaPortfolioSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("fact", /*portfolio_replicas=*/4),
            "p=34 u=0 hash=ed5907e71f34708d het=608514.6816570852");
}

TEST(ConstructionGoldenTest, MaxpFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("maxp"), "p=47 u=0 hash=4ccef91757c425e9 het=239130.23636412367");
}

TEST(ConstructionGoldenTest, SkaterFixedSeedSolutionPinned) {
  EXPECT_EQ(SolveFingerprint("skater"), "p=50 u=0 hash=32f1c416700cb1b7 het=219945.6657012068");
}

}  // namespace
}  // namespace emp
