#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace emp {
namespace {

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest()
      : areas_(test::MakeAreaSet(test::GridGraph(3, 3),
                                 {{"s", {1, 2, 3, 4, 5, 6, 7, 8, 9}}})),
        bound_(std::move(BoundConstraints::Create(
                             &areas_, {Constraint::Sum("s", 0, 1000)}))
                   .value()) {}

  AreaSet areas_;
  BoundConstraints bound_;
};

TEST_F(PartitionTest, StartsUnassigned) {
  Partition p(&bound_);
  EXPECT_EQ(p.num_areas(), 9);
  EXPECT_EQ(p.NumRegions(), 0);
  EXPECT_EQ(p.RegionOf(4), -1);
  EXPECT_EQ(p.UnassignedAreas().size(), 9u);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST_F(PartitionTest, AssignAndUnassign) {
  Partition p(&bound_);
  int32_t r = p.CreateRegion();
  p.Assign(0, r);
  p.Assign(1, r);
  EXPECT_EQ(p.RegionOf(0), r);
  EXPECT_EQ(p.region(r).size(), 2);
  EXPECT_DOUBLE_EQ(p.region(r).stats.AggregateValue(0), 3);
  EXPECT_TRUE(p.ValidateInvariants().ok());
  p.Unassign(0);
  EXPECT_EQ(p.RegionOf(0), -1);
  EXPECT_DOUBLE_EQ(p.region(r).stats.AggregateValue(0), 2);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST_F(PartitionTest, MoveBetweenRegions) {
  Partition p(&bound_);
  int32_t r1 = p.CreateRegion();
  int32_t r2 = p.CreateRegion();
  p.Assign(0, r1);
  p.Assign(1, r1);
  p.Assign(2, r2);
  p.Move(1, r2);
  EXPECT_EQ(p.RegionOf(1), r2);
  EXPECT_EQ(p.region(r1).size(), 1);
  EXPECT_EQ(p.region(r2).size(), 2);
  EXPECT_DOUBLE_EQ(p.region(r2).stats.AggregateValue(0), 5);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST_F(PartitionTest, MergeRegions) {
  Partition p(&bound_);
  int32_t r1 = p.CreateRegion();
  int32_t r2 = p.CreateRegion();
  p.Assign(0, r1);
  p.Assign(1, r2);
  p.Assign(2, r2);
  int32_t winner = p.MergeRegions(r1, r2);
  EXPECT_EQ(winner, r1);
  EXPECT_FALSE(p.IsAlive(r2));
  EXPECT_EQ(p.region(r1).size(), 3);
  EXPECT_EQ(p.RegionOf(2), r1);
  EXPECT_EQ(p.NumRegions(), 1);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST_F(PartitionTest, DissolveReturnsAreasToPool) {
  Partition p(&bound_);
  int32_t r = p.CreateRegion();
  p.Assign(3, r);
  p.Assign(4, r);
  p.DissolveRegion(r);
  EXPECT_FALSE(p.IsAlive(r));
  EXPECT_EQ(p.RegionOf(3), -1);
  EXPECT_EQ(p.NumRegions(), 0);
  EXPECT_EQ(p.UnassignedAreas().size(), 9u);
  EXPECT_TRUE(p.ValidateInvariants().ok());
}

TEST_F(PartitionTest, DeactivateExcludesFromUnassigned) {
  Partition p(&bound_);
  p.Deactivate(8);
  EXPECT_FALSE(p.IsActive(8));
  auto u = p.UnassignedAreas();
  EXPECT_EQ(u.size(), 8u);
  EXPECT_TRUE(std::find(u.begin(), u.end(), 8) == u.end());
}

TEST_F(PartitionTest, NeighborRegionQueriesOnGrid) {
  // Grid ids: 0 1 2 / 3 4 5 / 6 7 8.
  Partition p(&bound_);
  int32_t left = p.CreateRegion();   // column 0
  int32_t right = p.CreateRegion();  // column 2
  for (int32_t a : {0, 3, 6}) p.Assign(a, left);
  for (int32_t a : {2, 5, 8}) p.Assign(a, right);
  // Middle column unassigned: regions are NOT adjacent.
  EXPECT_TRUE(p.NeighborRegionsOf(left).empty());
  // Area 1 borders left (0) and right (2).
  auto nbrs = p.NeighborRegionsOfArea(1);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<int32_t>{left, right}));
  // Assign the middle column to left; now regions touch.
  for (int32_t a : {1, 4, 7}) p.Assign(a, left);
  EXPECT_EQ(p.NeighborRegionsOf(left), (std::vector<int32_t>{right}));
  EXPECT_EQ(p.NeighborRegionsOf(right), (std::vector<int32_t>{left}));
}

TEST_F(PartitionTest, BoundaryAreas) {
  Partition p(&bound_);
  int32_t r = p.CreateRegion();
  for (int32_t a : {0, 1, 3, 4}) p.Assign(a, r);  // 2x2 block top-left
  auto boundary = p.BoundaryAreas(r);
  std::sort(boundary.begin(), boundary.end());
  // Corner area 0 only touches 1 and 3 (both inside); the rest touch out.
  EXPECT_EQ(boundary, (std::vector<int32_t>{1, 3, 4}));

  // A full-grid region has no boundary areas.
  Partition q(&bound_);
  int32_t all = q.CreateRegion();
  for (int32_t a = 0; a < 9; ++a) q.Assign(a, all);
  EXPECT_TRUE(q.BoundaryAreas(all).empty());
}

TEST(PartitionStarTest, NeighborRegionQueriesDedupeOnStar) {
  // Star graph: center 0 adjacent to leaves 1..8 and nothing else. The
  // center sees many neighbors in the SAME region, exercising the
  // epoch-tagged dedup that replaced the quadratic std::find scan.
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t leaf = 1; leaf <= 8; ++leaf) edges.push_back({0, leaf});
  AreaSet areas = test::MakeAreaSet(
      std::move(ContiguityGraph::FromEdges(9, edges)).value(),
      {{"s", {1, 2, 3, 4, 5, 6, 7, 8, 9}}});
  BoundConstraints bound =
      std::move(BoundConstraints::Create(&areas, {Constraint::Count(1, 9)}))
          .value();
  Partition p(&bound);
  int32_t rc = p.CreateRegion();  // center
  int32_t ra = p.CreateRegion();  // four leaves
  int32_t rb = p.CreateRegion();  // three leaves; leaf 8 stays unassigned
  p.Assign(0, rc);
  for (int32_t a : {1, 2, 3, 6}) p.Assign(a, ra);
  for (int32_t a : {4, 5, 7}) p.Assign(a, rb);

  // Center touches ra four times and rb three times: each reported once,
  // own region and the unassigned leaf excluded.
  auto center_nbrs = p.NeighborRegionsOfArea(0);
  std::sort(center_nbrs.begin(), center_nbrs.end());
  EXPECT_EQ(center_nbrs, (std::vector<int32_t>{ra, rb}));

  // Every ra member touches only the center: one region, reported once.
  EXPECT_EQ(p.NeighborRegionsOf(ra), (std::vector<int32_t>{rc}));
  EXPECT_EQ(p.NeighborRegionsOf(rb), (std::vector<int32_t>{rc}));
  // The center region borders both leaf regions.
  auto rc_nbrs = p.NeighborRegionsOf(rc);
  std::sort(rc_nbrs.begin(), rc_nbrs.end());
  EXPECT_EQ(rc_nbrs, (std::vector<int32_t>{ra, rb}));

  // Absorb the center into ra: its leaves now have no foreign neighbor,
  // so the only boundary area of ra is the center itself.
  p.Move(0, ra);
  EXPECT_EQ(p.NeighborRegionsOfArea(0), (std::vector<int32_t>{rb}));
  EXPECT_EQ(p.NeighborRegionsOf(ra), (std::vector<int32_t>{rb}));
  EXPECT_EQ(p.BoundaryAreas(ra), (std::vector<int32_t>{0}));
  // A leaf inside ra has no neighbor regions at all.
  EXPECT_TRUE(p.NeighborRegionsOfArea(1).empty());
}

TEST_F(PartitionTest, CompactAssignmentSkipsDeadRegions) {
  Partition p(&bound_);
  int32_t r1 = p.CreateRegion();
  int32_t r2 = p.CreateRegion();
  int32_t r3 = p.CreateRegion();
  p.Assign(0, r1);
  p.Assign(1, r2);
  p.Assign(2, r3);
  p.DissolveRegion(r2);
  auto compact = p.CompactAssignment();
  EXPECT_EQ(compact[0], 0);
  EXPECT_EQ(compact[1], -1);
  EXPECT_EQ(compact[2], 1);  // r3 renumbered to 1
  EXPECT_EQ(compact[5], -1);
}

// Recomputes constraint `ci`'s aggregate over `members` minus the entry at
// `skip` (-1 skips nothing).
double Recompute(const BoundConstraints& bound, int ci,
                 const std::vector<int32_t>& members, int skip) {
  const Aggregate agg = bound.constraint(ci).aggregate;
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  int n = 0;
  for (int i = 0; i < static_cast<int>(members.size()); ++i) {
    if (i == skip) continue;
    const double v = bound.ValueOf(ci, members[static_cast<size_t>(i)]);
    lo = n == 0 ? v : std::min(lo, v);
    hi = n == 0 ? v : std::max(hi, v);
    sum += v;
    ++n;
  }
  switch (agg) {
    case Aggregate::kMin:
      return lo;
    case Aggregate::kMax:
      return hi;
    case Aggregate::kAvg:
      return sum / n;
    case Aggregate::kSum:
      return sum;
    case Aggregate::kCount:
      return n;
  }
  return 0.0;
}

// Checks every alive region's current and remove-side aggregates against a
// recomputation over its members; returns the first disagreement.
std::string CheckRegionsAgainstMembers(const Partition& p) {
  const BoundConstraints& bound = p.bound();
  for (int32_t rid : p.AliveRegionIds()) {
    const Region& r = p.region(rid);
    const int size = r.size();
    const std::string where = "region " + std::to_string(rid);
    for (int ci = 0; ci < bound.size(); ++ci) {
      if (r.stats.AggregateValue(ci) != Recompute(bound, ci, r.areas, -1)) {
        return where + " AggregateValue ci=" + std::to_string(ci);
      }
    }
    for (int i = 0; i < size; ++i) {
      const int32_t area = r.areas[static_cast<size_t>(i)];
      bool all_ok = size > 1;
      for (int ci = 0; ci < bound.size(); ++ci) {
        const Aggregate agg = bound.constraint(ci).aggregate;
        const double want = Recompute(bound, ci, r.areas, i);
        if (size > 1 || agg == Aggregate::kSum || agg == Aggregate::kCount) {
          if (r.stats.AggregateAfterRemove(ci, area) != want) {
            return where + " AggregateAfterRemove ci=" + std::to_string(ci) +
                   " area=" + std::to_string(area);
          }
        }
        if (size > 1) all_ok &= bound.constraint(ci).Contains(want);
      }
      if (r.stats.SatisfiesAllAfterRemove(area) != all_ok) {
        return where + " SatisfiesAllAfterRemove area=" +
               std::to_string(area);
      }
    }
  }
  return "";
}

// Randomized oracle over the mutation API: duplicate-heavy integer columns
// (so every aggregate is exact) under MIN, MAX, AVG, SUM and COUNT, with
// extremum holders added, removed, moved, merged and dissolved in turn.
TEST(PartitionOracleTest, RandomMutationsMatchRecomputation) {
  constexpr int32_t kSide = 6;
  constexpr int32_t kN = kSide * kSide;
  Rng values(7);
  std::vector<double> d(kN);
  std::vector<double> w(kN);
  for (int32_t a = 0; a < kN; ++a) {
    d[static_cast<size_t>(a)] = static_cast<double>(values.UniformInt(1, 4));
    w[static_cast<size_t>(a)] = static_cast<double>(values.UniformInt(0, 5));
  }
  AreaSet areas = test::MakeAreaSet(test::GridGraph(kSide, kSide),
                                    {{"d", d}, {"w", w}});
  auto bound = BoundConstraints::Create(
      &areas, {Constraint::Min("d", 2, 4), Constraint::Max("d", 1, 3),
               Constraint::Min("w", 1, 5), Constraint::Max("w", 0, 4),
               Constraint::Avg("w", 1.5, 3.5), Constraint::Sum("w", 3, 12),
               Constraint::Count(2, 6)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  Partition p(&*bound);
  p.Deactivate(0);
  p.Deactivate(kN - 1);

  Rng rng(2026);
  auto pick = [&rng](const std::vector<int32_t>& v) {
    return v[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
  };
  std::vector<int32_t> alive;
  std::vector<int32_t> assigned;
  for (int step = 0; step < 4000; ++step) {
    alive.clear();
    for (int32_t rid = 0; rid < p.NumRegionSlots(); ++rid) {
      if (p.IsAlive(rid)) alive.push_back(rid);
    }
    assigned.clear();
    for (int32_t a = 0; a < kN; ++a) {
      if (p.RegionOf(a) != -1) assigned.push_back(a);
    }
    const std::vector<int32_t> unassigned = p.UnassignedAreas();
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 40 && !unassigned.empty()) {
      const int32_t rid =
          alive.empty() || rng.Bernoulli(0.1) ? p.CreateRegion() : pick(alive);
      p.Assign(pick(unassigned), rid);
    } else if (op < 60 && !assigned.empty()) {
      p.Unassign(pick(assigned));
    } else if (op < 90 && !assigned.empty() && alive.size() > 1) {
      const int32_t area = pick(assigned);
      int32_t to = pick(alive);
      if (to == p.RegionOf(area)) continue;
      p.Move(area, to);
    } else if (op < 97 && alive.size() > 1) {
      const int32_t winner = pick(alive);
      const int32_t loser = pick(alive);
      if (winner == loser) continue;
      p.MergeRegions(winner, loser);
    } else if (!alive.empty()) {
      p.DissolveRegion(pick(alive));
    }
    const Status st = p.ValidateInvariants();
    ASSERT_TRUE(st.ok()) << "step " << step << ": " << st.ToString();
    ASSERT_EQ(CheckRegionsAgainstMembers(p), "") << "step " << step;
  }
}

}  // namespace
}  // namespace emp
