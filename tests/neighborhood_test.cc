#include "core/local_search/neighborhood.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/move.h"
#include "core/local_search/objective.h"
#include "test_util.h"

namespace emp {
namespace {

struct NeighborhoodSetup {
  NeighborhoodSetup(const AreaSet* areas_in, std::vector<Constraint> cs)
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

/// Drains a neighborhood in canonical order into a vector.
std::vector<CandidateMove> Dump(TabuNeighborhood* nbhd) {
  std::vector<CandidateMove> out;
  nbhd->VisitInOrder([&](const CandidateMove& mv) {
    out.push_back(mv);
    return true;
  });
  return out;
}

/// Candidate sets must agree exactly: same moves in the same canonical
/// order with bit-identical deltas.
void ExpectSameCandidates(const std::vector<CandidateMove>& incremental,
                          const std::vector<CandidateMove>& fresh) {
  ASSERT_EQ(incremental.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(incremental[i].area, fresh[i].area) << "candidate " << i;
    EXPECT_EQ(incremental[i].from, fresh[i].from) << "candidate " << i;
    EXPECT_EQ(incremental[i].to, fresh[i].to) << "candidate " << i;
    // Bit-identical, not approximately equal: unaffected candidates must
    // keep their previously computed deltas verbatim.
    EXPECT_EQ(incremental[i].delta, fresh[i].delta) << "candidate " << i;
  }
}

/// Every scored candidate of every area with its verdict, sorted by
/// (area, to): the full state behind the heap.
struct Verdict {
  int32_t area;
  int32_t to;
  double delta;
  bool admissible;
};

std::vector<Verdict> Verdicts(const TabuNeighborhood& nbhd,
                              int32_t num_areas) {
  std::vector<Verdict> out;
  for (int32_t a = 0; a < num_areas; ++a) {
    for (const TabuNeighborhood::Target& t : nbhd.targets_of(a)) {
      out.push_back({a, t.to, t.delta, t.admissible});
    }
  }
  std::sort(out.begin(), out.end(), [](const Verdict& x, const Verdict& y) {
    return x.area != y.area ? x.area < y.area : x.to < y.to;
  });
  return out;
}

void ExpectSameVerdicts(const std::vector<Verdict>& incremental,
                        const std::vector<Verdict>& fresh) {
  ASSERT_EQ(incremental.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(incremental[i].area, fresh[i].area) << "candidate " << i;
    EXPECT_EQ(incremental[i].to, fresh[i].to) << "candidate " << i;
    EXPECT_EQ(incremental[i].delta, fresh[i].delta) << "candidate " << i;
    EXPECT_EQ(incremental[i].admissible, fresh[i].admissible)
        << "area " << fresh[i].area << " -> region " << fresh[i].to;
  }
}

TEST(TabuNeighborhoodTest, RebuildYieldsCanonicalOrder) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(3, 3), {{"s", {4, 4, 1, 4, 2, 2, 7, 7, 2}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 9)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  for (int32_t a : {3, 4, 5}) setup.partition.Assign(a, r1);
  for (int32_t a : {6, 7, 8}) setup.partition.Assign(a, r2);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  const int64_t scored = nbhd.Rebuild();
  std::vector<CandidateMove> dump = Dump(&nbhd);
  EXPECT_EQ(nbhd.live_candidates(), static_cast<int64_t>(dump.size()));
  for (size_t i = 1; i < dump.size(); ++i) {
    EXPECT_TRUE(CandidateOrderLess(dump[i - 1], dump[i]))
        << "out of order at " << i;
  }
  // Every boundary area of every (size > 1) region contributes one
  // candidate per distinct adjacent foreign region; the heap yields
  // exactly the admissible ones. Each row region is a 3-area path, so
  // its middle area is a cut vertex and can never donate.
  const std::vector<Verdict> verdicts = Verdicts(nbhd, 9);
  EXPECT_EQ(static_cast<int64_t>(verdicts.size()), scored);
  int64_t admissible = 0;
  for (const Verdict& v : verdicts) {
    const int32_t from = setup.partition.RegionOf(v.area);
    EXPECT_NE(from, v.to);
    EXPECT_DOUBLE_EQ(v.delta, objective.MoveDelta(v.area, from, v.to));
    EXPECT_EQ(v.admissible,
              ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                       v.area, from, v.to))
        << "area " << v.area << " -> region " << v.to;
    EXPECT_EQ(v.admissible, v.area % 3 != 1) << "area " << v.area;
    admissible += v.admissible ? 1 : 0;
  }
  EXPECT_EQ(admissible, static_cast<int64_t>(dump.size()));
  EXPECT_EQ(nbhd.inadmissible_verdicts(), scored - admissible);
  for (const CandidateMove& mv : dump) {
    EXPECT_EQ(setup.partition.RegionOf(mv.area), mv.from);
  }
}

TEST(TabuNeighborhoodTest, VisitingDoesNotConsumeCandidates) {
  AreaSet areas = test::PathAreaSet({1, 1, 1, 9, 9, 9});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 6)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  for (int32_t a : {3, 4, 5}) setup.partition.Assign(a, r1);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  nbhd.Rebuild();
  std::vector<CandidateMove> first = Dump(&nbhd);
  std::vector<CandidateMove> second = Dump(&nbhd);
  ExpectSameCandidates(second, first);

  // An early-stopping visit also leaves the structure intact.
  int visited = 0;
  nbhd.VisitInOrder([&](const CandidateMove&) { return ++visited < 1; });
  EXPECT_EQ(visited, 1);
  ExpectSameCandidates(Dump(&nbhd), first);
}

TEST(TabuNeighborhoodTest, IncrementalMatchesFreshRebuildAfterEachMove) {
  // Random-walk a 5x5 grid partition; after every applied move the
  // incrementally maintained candidate set must equal a from-scratch
  // rebuild, deltas bit-for-bit.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
              6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 25)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  int32_t r2 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 25; ++a) {
    setup.partition.Assign(a, a % 5 < 2 ? r0 : (a < 13 ? r1 : r2));
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  nbhd.Rebuild();

  Rng rng(123);
  for (int applied = 0; applied < 40; ++applied) {
    // Every candidate the heap yields is a legal Tabu move; apply a random
    // one.
    std::vector<CandidateMove> all = Dump(&nbhd);
    ASSERT_FALSE(all.empty());
    const CandidateMove mv = all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
    ASSERT_TRUE(ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                         mv.area, mv.from, mv.to));
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);

    TabuNeighborhood fresh(&setup.partition, &objective,
                           &setup.connectivity);
    fresh.Rebuild();
    ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
    ExpectSameVerdicts(Verdicts(nbhd, 25), Verdicts(fresh, 25));
    EXPECT_EQ(nbhd.live_candidates(), fresh.live_candidates());
  }
}

TEST(TabuNeighborhoodTest, EnrichedVerdictsMatchFreshRebuildAfterEachMove) {
  // MIN + AVG + SUM on a 6x6 grid in four 3x3 quadrants, with bounds taken
  // from the quadrants so the start is feasible and tight: most candidates
  // are constraint-rejected, as under the paper's enriched queries. After
  // every applied move the heap-eligible set and every stored verdict must
  // equal a from-scratch rebuild, and each verdict must match the exact
  // constraint + BFS check.
  const std::vector<double> m = {5, 3, 8, 6, 2, 7, 4, 9, 1, 3, 8, 5,
                                 7, 2, 6, 9, 4, 1, 3, 8, 5, 2, 7, 6,
                                 9, 1, 4, 8, 3, 5, 2, 6, 7, 1, 9, 4};
  const std::vector<double> v = {12, 18, 15, 20, 11, 14, 16, 13, 19,
                                 17, 12, 15, 14, 20, 11, 13, 18, 16,
                                 15, 13, 17, 12, 19, 14, 18, 11, 16,
                                 20, 15, 13, 11, 17, 14, 16, 12, 18};
  const std::vector<double> s = {30, 12, 25, 8, 40, 22, 18, 35, 10,
                                 27, 15, 33, 21, 9, 38, 14, 29, 24,
                                 11, 36, 19, 31, 7, 26, 34, 16, 23,
                                 13, 28, 20, 39, 17, 32, 6, 37, 25};
  AreaSet areas = test::MakeAreaSet(test::GridGraph(6, 6),
                                    {{"m", m}, {"v", v}, {"s", s}}, "v");
  auto quadrant = [](int32_t a) { return (a / 18) * 2 + (a % 6) / 3; };
  std::vector<double> q_min(4, 1e9), q_avg(4, 0), q_sum(4, 0);
  for (int32_t a = 0; a < 36; ++a) {
    const size_t q = static_cast<size_t>(quadrant(a));
    q_min[q] = std::min(q_min[q], m[static_cast<size_t>(a)]);
    q_avg[q] += v[static_cast<size_t>(a)] / 9.0;
    q_sum[q] += s[static_cast<size_t>(a)];
  }
  NeighborhoodSetup setup(
      &areas,
      {Constraint::Min("m", kNoLowerBound,
                       *std::max_element(q_min.begin(), q_min.end())),
       Constraint::Avg("v", *std::min_element(q_avg.begin(), q_avg.end()) - 1,
                       *std::max_element(q_avg.begin(), q_avg.end()) + 1),
       Constraint::Sum("s", *std::min_element(q_sum.begin(), q_sum.end()) - 20,
                       kNoUpperBound)});
  std::vector<int32_t> rids;
  for (int i = 0; i < 4; ++i) rids.push_back(setup.partition.CreateRegion());
  for (int32_t a = 0; a < 36; ++a) {
    setup.partition.Assign(a, rids[static_cast<size_t>(quadrant(a))]);
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity,
                        /*verify_cut_cache=*/true);
  nbhd.Rebuild();

  Rng rng(11);
  int applied = 0;
  for (; applied < 40; ++applied) {
    std::vector<CandidateMove> all = Dump(&nbhd);
    if (all.empty()) break;
    const CandidateMove mv = all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
    ASSERT_TRUE(nbhd.status().ok()) << nbhd.status().ToString();

    TabuNeighborhood fresh(&setup.partition, &objective,
                           &setup.connectivity);
    fresh.Rebuild();
    ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
    const std::vector<Verdict> verdicts = Verdicts(nbhd, 36);
    ExpectSameVerdicts(verdicts, Verdicts(fresh, 36));
    for (const Verdict& verdict : verdicts) {
      ASSERT_EQ(verdict.admissible,
                ConstraintPreservingMove(
                    setup.partition, &setup.connectivity, verdict.area,
                    setup.partition.RegionOf(verdict.area), verdict.to))
          << "move " << applied << " area " << verdict.area;
    }
  }
  EXPECT_GE(applied, 10);
  EXPECT_GT(nbhd.inadmissible_verdicts(), 0);
}

TEST(TabuNeighborhoodTest, DonorCapabilityTransitions) {
  // Moving the donor's penultimate member away kills the last member's
  // candidates (size-1 regions cannot donate); moving one back revives
  // them. Both transitions must match a fresh rebuild. 2x2 grid
  // (0 1 / 2 3): area 0 always borders r1 through area 2.
  AreaSet areas = test::MakeAreaSet(test::GridGraph(2, 2),
                                    {{"s", {1, 2, 3, 4}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 4)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r0);
  for (int32_t a : {2, 3}) setup.partition.Assign(a, r1);

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  nbhd.Rebuild();

  auto apply = [&](int32_t area, int32_t from, int32_t to) {
    objective.ApplyMove(area, from, to);
    setup.partition.Move(area, to);
    nbhd.OnMoveApplied(area, from, to);
    TabuNeighborhood fresh(&setup.partition, &objective,
                           &setup.connectivity);
    fresh.Rebuild();
    ExpectSameCandidates(Dump(&nbhd), Dump(&fresh));
  };

  apply(1, r0, r1);  // r0 = {0}: area 0 must lose its candidate.
  for (const CandidateMove& mv : Dump(&nbhd)) EXPECT_NE(mv.area, 0);
  apply(1, r1, r0);  // r0 = {0, 1}: area 0's candidate returns.
  bool area0_present = false;
  for (const CandidateMove& mv : Dump(&nbhd)) {
    if (mv.area == 0) area0_present = true;
  }
  EXPECT_TRUE(area0_present);
}

TEST(TabuNeighborhoodTest, DecliningVisitorSeesEveryAdmissibleTarget) {
  // Nine 2x2-ish blocks on a 6x6 grid, so corner areas border two or three
  // foreign regions (several candidates per area) and dozens of areas sit
  // in the heap (the visit must expand heap children, not just the root).
  // After every random move, a visitor that declines everything must see
  // exactly the admissible entries of targets_of(), in canonical order.
  std::vector<double> s;
  for (int32_t a = 0; a < 36; ++a) {
    s.push_back(static_cast<double>((a * 17 + 5) % 13));
  }
  AreaSet areas = test::MakeAreaSet(test::GridGraph(6, 6), {{"s", s}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 36)});
  std::vector<int32_t> rids;
  for (int i = 0; i < 9; ++i) rids.push_back(setup.partition.CreateRegion());
  for (int32_t a = 0; a < 36; ++a) {
    const int32_t block = (a / 6 / 2) * 3 + (a % 6) / 2;
    setup.partition.Assign(a, rids[static_cast<size_t>(block)]);
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  nbhd.Rebuild();

  Rng rng(2024);
  bool saw_multi_target_area = false;
  for (int applied = 0; applied < 60; ++applied) {
    std::vector<CandidateMove> expected;
    for (int32_t a = 0; a < 36; ++a) {
      int admissible = 0;
      for (const TabuNeighborhood::Target& t : nbhd.targets_of(a)) {
        if (!t.admissible) continue;
        expected.push_back({t.delta, a, setup.partition.RegionOf(a), t.to});
        ++admissible;
      }
      saw_multi_target_area = saw_multi_target_area || admissible > 1;
    }
    std::sort(expected.begin(), expected.end(), CandidateOrderLess);
    const std::vector<CandidateMove> visited = Dump(&nbhd);
    ExpectSameCandidates(visited, expected);
    ASSERT_EQ(nbhd.live_candidates(), static_cast<int64_t>(expected.size()));
    if (visited.empty()) break;

    const CandidateMove mv = visited[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(visited.size()) - 1))];
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
  }
  EXPECT_TRUE(saw_multi_target_area);
}

TEST(ArticulationCacheTest, AgreesWithBfsOnEveryQuery) {
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"s", {4, 9, 1, 7, 2, 8, 5, 3, 9, 1, 6, 4, 7, 3, 8, 2}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 16)});
  // An L-shaped region (articulated at the corner) plus the rest.
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 4, 8, 12, 13, 14}) setup.partition.Assign(a, r0);
  for (int32_t a : {1, 2, 3, 5, 6, 7, 9, 10, 11, 15}) {
    setup.partition.Assign(a, r1);
  }

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  for (int32_t rid : setup.partition.AliveRegionIds()) {
    for (int32_t member : setup.partition.region(rid).areas) {
      EXPECT_EQ(cache.DonorKeepsContiguity(rid, member),
                setup.connectivity.IsConnectedWithout(
                    setup.partition.region(rid).areas, member))
          << "region " << rid << " area " << member;
    }
  }
  // One Tarjan pass per region; every further query is a cache hit.
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 16 - 2);
}

TEST(ArticulationCacheTest, InvalidateForcesRecomputation) {
  AreaSet areas = test::PathAreaSet({1, 2, 3, 4});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 4)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1, 2}) setup.partition.Assign(a, r0);
  setup.partition.Assign(3, r1);

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  // Middle of a path is a cut vertex; the ends are not.
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 0));
  EXPECT_FALSE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 2));
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 2);

  // Mutate r0 (2 leaves for r1) and invalidate: the stale answer for
  // area 1 (a cut vertex of {0,1,2} but not of {0,1}) must be recomputed.
  setup.partition.Move(2, r1);
  cache.Invalidate(r0);
  cache.Invalidate(r1);
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ArticulationCacheTest, TwoMemberRegionsAlwaysSurviveDonation) {
  AreaSet areas = test::PathAreaSet({1, 2, 3});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 3)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a : {0, 1}) setup.partition.Assign(a, r0);
  setup.partition.Assign(2, r1);

  ArticulationCache cache(&setup.partition, &setup.connectivity);
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 0));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r0, 1));
  EXPECT_TRUE(cache.DonorKeepsContiguity(r1, 2));  // singleton -> empty
}

TEST(ArticulationCacheTest, RandomizedAgreementUnderMutation) {
  // Random walk with invalidation after every move; every (region, member)
  // query must keep matching the exact BFS throughout.
  AreaSet areas = test::MakeAreaSet(
      test::GridGraph(5, 5),
      {{"s", {12, 7, 9, 14, 6, 8, 11, 5, 13, 9, 10, 7, 12,
              6, 9, 11, 8, 14, 5, 10, 7, 13, 9, 6, 12}}});
  NeighborhoodSetup setup(&areas, {Constraint::Count(1, 25)});
  int32_t r0 = setup.partition.CreateRegion();
  int32_t r1 = setup.partition.CreateRegion();
  for (int32_t a = 0; a < 25; ++a) {
    setup.partition.Assign(a, a < 13 ? r0 : r1);
  }

  HeterogeneityObjective objective(setup.partition);
  TabuNeighborhood nbhd(&setup.partition, &objective, &setup.connectivity);
  nbhd.Rebuild();
  ArticulationCache cache(&setup.partition, &setup.connectivity);
  Rng rng(7);
  for (int step = 0; step < 60; ++step) {
    for (int32_t rid : setup.partition.AliveRegionIds()) {
      for (int32_t member : setup.partition.region(rid).areas) {
        ASSERT_EQ(cache.DonorKeepsContiguity(rid, member),
                  setup.connectivity.IsConnectedWithout(
                      setup.partition.region(rid).areas, member))
            << "step " << step << " region " << rid << " area " << member;
      }
    }
    std::vector<CandidateMove> all = Dump(&nbhd);
    if (all.empty()) break;
    const CandidateMove mv = all[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))];
    if (!ConstraintPreservingMove(setup.partition, &setup.connectivity,
                                  mv.area, mv.from, mv.to)) {
      continue;
    }
    objective.ApplyMove(mv.area, mv.from, mv.to);
    setup.partition.Move(mv.area, mv.to);
    nbhd.OnMoveApplied(mv.area, mv.from, mv.to);
    cache.Invalidate(mv.from);
    cache.Invalidate(mv.to);
  }
}

}  // namespace
}  // namespace emp
