#include "graph/connectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>

#include "common/rng.h"
#include "data/synthetic/dataset_catalog.h"
#include "graph/components.h"

namespace emp {
namespace {

ContiguityGraph Path(int32_t n) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return std::move(ContiguityGraph::FromEdges(n, edges)).value();
}

ContiguityGraph Cycle(int32_t n) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return std::move(ContiguityGraph::FromEdges(n, edges)).value();
}

ContiguityGraph Grid(int32_t rows, int32_t cols) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      int32_t id = r * cols + c;
      if (c + 1 < cols) edges.push_back({id, id + 1});
      if (r + 1 < rows) edges.push_back({id, id + cols});
    }
  }
  return std::move(ContiguityGraph::FromEdges(rows * cols, edges)).value();
}

TEST(ConnectivityTest, SingletonAndEmptyAreConnected) {
  ContiguityGraph g = Path(3);
  ConnectivityChecker check(&g);
  EXPECT_TRUE(check.IsConnected({}));
  EXPECT_TRUE(check.IsConnected({1}));
}

TEST(ConnectivityTest, PathSubsetsConnectivity) {
  ContiguityGraph g = Path(5);
  ConnectivityChecker check(&g);
  EXPECT_TRUE(check.IsConnected({1, 2, 3}));
  EXPECT_FALSE(check.IsConnected({0, 2}));
  EXPECT_FALSE(check.IsConnected({0, 1, 3, 4}));
}

TEST(ConnectivityTest, RemovingMiddleOfPathDisconnects) {
  ContiguityGraph g = Path(5);
  ConnectivityChecker check(&g);
  std::vector<int32_t> all = {0, 1, 2, 3, 4};
  EXPECT_FALSE(check.IsConnectedWithout(all, 2));
  EXPECT_TRUE(check.IsConnectedWithout(all, 0));
  EXPECT_TRUE(check.IsConnectedWithout(all, 4));
}

TEST(ConnectivityTest, CycleToleratesAnyRemoval) {
  ContiguityGraph g = Cycle(6);
  ConnectivityChecker check(&g);
  std::vector<int32_t> all = {0, 1, 2, 3, 4, 5};
  for (int32_t v : all) {
    EXPECT_TRUE(check.IsConnectedWithout(all, v)) << v;
  }
}

TEST(ConnectivityTest, TinySetsAlwaysSurviveRemoval) {
  ContiguityGraph g = Path(4);
  ConnectivityChecker check(&g);
  EXPECT_TRUE(check.IsConnectedWithout({0, 1}, 0));
  EXPECT_TRUE(check.IsConnectedWithout({2}, 2));
}

TEST(ConnectivityTest, CutVertexMatchesIsConnectedWithout) {
  ContiguityGraph g = Path(5);
  ConnectivityChecker check(&g);
  std::vector<int32_t> all = {0, 1, 2, 3, 4};
  EXPECT_TRUE(check.IsCutVertex(all, 1));
  EXPECT_FALSE(check.IsCutVertex(all, 4));
}

TEST(ConnectivityTest, ArticulationPointsOfPath) {
  ContiguityGraph g = Path(5);
  ConnectivityChecker check(&g);
  std::vector<int32_t> cuts = check.ArticulationPoints({0, 1, 2, 3, 4});
  EXPECT_EQ(cuts, (std::vector<int32_t>{1, 2, 3}));
}

TEST(ConnectivityTest, ArticulationPointsOfCycleAreEmpty) {
  ContiguityGraph g = Cycle(8);
  ConnectivityChecker check(&g);
  EXPECT_TRUE(
      check.ArticulationPoints({0, 1, 2, 3, 4, 5, 6, 7}).empty());
}

TEST(ConnectivityTest, ArticulationRestrictedToSubset) {
  // Cycle 0..5, but member subset {0,1,2,3} is a path -> 1, 2 are cuts.
  ContiguityGraph g = Cycle(6);
  ConnectivityChecker check(&g);
  std::vector<int32_t> cuts = check.ArticulationPoints({0, 1, 2, 3});
  EXPECT_EQ(cuts, (std::vector<int32_t>{1, 2}));
}

TEST(ConnectivityTest, ArticulationPointsAgreeWithBfsOnRandomGridRegions) {
  ContiguityGraph g = Grid(8, 8);
  ConnectivityChecker check(&g);
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    // Random connected-ish member set: a BFS ball around a random node.
    std::vector<int32_t> members;
    int32_t start = static_cast<int32_t>(rng.UniformInt(0, 63));
    members.push_back(start);
    for (int grow = 0; grow < 20; ++grow) {
      int32_t base = members[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(members.size()) - 1))];
      for (int32_t nb : g.NeighborsOf(base)) {
        if (std::find(members.begin(), members.end(), nb) == members.end()) {
          members.push_back(nb);
          break;
        }
      }
    }
    std::sort(members.begin(), members.end());
    if (!check.IsConnected(members)) continue;
    std::vector<int32_t> cuts = check.ArticulationPoints(members);
    for (int32_t v : members) {
      bool is_cut =
          std::find(cuts.begin(), cuts.end(), v) != cuts.end();
      EXPECT_EQ(is_cut, !check.IsConnectedWithout(members, v))
          << "node " << v << " trial " << trial;
    }
  }
}

/// Grows a random connected member set of up to `size` nodes from a random
/// start by repeatedly adding a random unvisited neighbor of a random
/// member (so the sets are irregular, with holes and bottlenecks).
std::vector<int32_t> RandomConnectedSet(const ContiguityGraph& g,
                                        int32_t size, Rng* rng) {
  std::vector<int32_t> members = {
      static_cast<int32_t>(rng->UniformInt(0, g.num_nodes() - 1))};
  for (int attempt = 0; attempt < 8 * size &&
                        static_cast<int32_t>(members.size()) < size;
       ++attempt) {
    const int32_t base = members[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(members.size()) - 1))];
    const auto neighbors = g.NeighborsOf(base);
    if (neighbors.empty()) continue;
    const int32_t nb = neighbors[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(neighbors.size()) - 1))];
    if (std::find(members.begin(), members.end(), nb) == members.end()) {
      members.push_back(nb);
    }
  }
  return members;
}

/// Checks every member of many random connected sets: whenever the ring
/// test (the members adjacent to the removed node are connected among
/// themselves, as construction's swaps and evictions test it) calls a
/// removal safe, the BFS must agree. Returns the share of removals the
/// ring test decided (the BFS calls it saves).
double RingTestAgreesWithBfs(const ContiguityGraph& g, uint64_t seed,
                             int trials, int32_t max_size) {
  ConnectivityChecker check(&g);
  Rng rng(seed);
  int64_t removals = 0;
  int64_t ring_decided = 0;
  int64_t cut = 0;
  std::vector<int32_t> ring;
  for (int trial = 0; trial < trials; ++trial) {
    const int32_t size = static_cast<int32_t>(rng.UniformInt(2, max_size));
    const std::vector<int32_t> members = RandomConnectedSet(g, size, &rng);
    if (!check.IsConnected(members)) {
      ADD_FAILURE() << "generator produced a disconnected set";
      continue;
    }
    for (int32_t removed : members) {
      ring.clear();
      for (int32_t nb : g.NeighborsOf(removed)) {
        if (std::find(members.begin(), members.end(), nb) != members.end()) {
          ring.push_back(nb);
        }
      }
      const bool ring_safe = check.IsConnected(ring);
      const bool bfs_safe = check.IsConnectedWithout(members, removed);
      ++removals;
      if (ring_safe) ++ring_decided;
      if (!bfs_safe) ++cut;
      EXPECT_TRUE(!ring_safe || bfs_safe)
          << "ring test calls a cut vertex safe: node " << removed
          << " trial " << trial;
    }
  }
  EXPECT_GT(cut, 0) << "the sets must contain cut vertices";
  EXPECT_GT(ring_decided, 0);
  return static_cast<double>(ring_decided) / static_cast<double>(removals);
}

/// Grid with queen (8-neighbor) adjacency: rings of interior cells are
/// cycles, unlike the triangle-free rook grid.
ContiguityGraph QueenGrid(int32_t rows, int32_t cols) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      const int32_t id = r * cols + c;
      if (c + 1 < cols) edges.push_back({id, id + 1});
      if (r + 1 < rows) edges.push_back({id, id + cols});
      if (r + 1 < rows && c + 1 < cols) edges.push_back({id, id + cols + 1});
      if (r + 1 < rows && c > 0) edges.push_back({id, id + cols - 1});
    }
  }
  return std::move(ContiguityGraph::FromEdges(rows * cols, edges)).value();
}

TEST(ConnectivityTest, RingTestIsSoundOnRandomGridSets) {
  // On the rook grid no two neighbors of a cell touch, so only leaves
  // pass the ring test; the queen grid exercises real rings.
  const double rook = RingTestAgreesWithBfs(Grid(12, 12), 91, 400, 60);
  const double queen = RingTestAgreesWithBfs(QueenGrid(12, 12), 93, 400, 60);
  std::cout << "ring test skipped the BFS on " << rook * 100
            << "% of removals (rook grid), " << queen * 100
            << "% (queen grid)\n";
}

TEST(ConnectivityTest, RingTestIsSoundOnRandomSetsOfTheSmallMap) {
  auto areas = synthetic::MakeCatalogDataset("small");
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  const double skipped =
      RingTestAgreesWithBfs(areas->graph(), 92, 400, 60);
  std::cout << "small map: ring test skipped the BFS on " << skipped * 100
            << "% of removals\n";
}

TEST(ConnectivityTest, ArticulationRootIsCutVertex) {
  // Star: center 0 adjacent to leaves 1..4. Tarjan roots its DFS at the
  // lowest member id, so the center is the root here — the root-is-cut
  // special case (>= 2 DFS children) must still report it.
  std::vector<std::pair<int32_t, int32_t>> edges = {
      {0, 1}, {0, 2}, {0, 3}, {0, 4}};
  ContiguityGraph g = std::move(ContiguityGraph::FromEdges(5, edges)).value();
  ConnectivityChecker check(&g);
  EXPECT_EQ(check.ArticulationPoints({0, 1, 2, 3, 4}),
            (std::vector<int32_t>{0}));
  // A root with exactly one child in the induced subgraph is not a cut.
  EXPECT_TRUE(check.ArticulationPoints({0, 1}).empty());
}

TEST(ConnectivityTest, ArticulationToleratesDuplicateMembers) {
  ContiguityGraph g = Path(5);
  ConnectivityChecker check(&g);
  // Duplicates of interior AND extremal ids must not change the answer or
  // double-report a cut vertex.
  std::vector<int32_t> dup = {0, 0, 1, 2, 2, 3, 4, 4};
  EXPECT_EQ(check.ArticulationPoints(dup), (std::vector<int32_t>{1, 2, 3}));
  std::vector<int32_t> out;
  EXPECT_EQ(check.ArticulationPointsInto(dup, &out), 1);
  EXPECT_EQ(out, (std::vector<int32_t>{1, 2, 3}));
  // A single member listed twice: one component, no cuts.
  EXPECT_EQ(check.ArticulationPointsInto({3, 3}, &out), 1);
  EXPECT_TRUE(out.empty());
}

TEST(ConnectivityTest, ArticulationPointsIntoCountsComponents) {
  ContiguityGraph g = Path(6);
  ConnectivityChecker check(&g);
  std::vector<int32_t> out;
  EXPECT_EQ(check.ArticulationPointsInto({}, &out), 0);
  EXPECT_EQ(check.ArticulationPointsInto({2}, &out), 1);
  EXPECT_TRUE(out.empty());
  // {0,1} ∪ {3,4} -> two components; neither pair has a cut vertex.
  EXPECT_EQ(check.ArticulationPointsInto({0, 1, 3, 4}, &out), 2);
  EXPECT_TRUE(out.empty());
  // Three isolated members.
  EXPECT_EQ(check.ArticulationPointsInto({0, 2, 4}, &out), 3);
  EXPECT_TRUE(out.empty());
  // Disconnected set with a cut inside one component: {0,1,2} ∪ {4,5}.
  EXPECT_EQ(check.ArticulationPointsInto({0, 1, 2, 4, 5}, &out), 2);
  EXPECT_EQ(out, (std::vector<int32_t>{1}));
  // Two-member adjacency fast path.
  EXPECT_EQ(check.ArticulationPointsInto({2, 3}, &out), 1);
  EXPECT_EQ(check.ArticulationPointsInto({2, 4}, &out), 2);
}

TEST(ConnectivityTest, ArticulationPointsIntoMatchesAllocatingVariant) {
  ContiguityGraph g = Grid(6, 6);
  ConnectivityChecker check(&g);
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    // Random member set of random density — connected or not.
    std::vector<int32_t> members;
    for (int32_t v = 0; v < 36; ++v) {
      if (rng.UniformInt(0, 2) != 0) members.push_back(v);
    }
    std::vector<int32_t> out;
    const int32_t components = check.ArticulationPointsInto(members, &out);
    EXPECT_EQ(out, check.ArticulationPoints(members)) << "trial " << trial;
    // Cross-check every member against the exact BFS when connected; a
    // cut vertex and a disconnecting removal are the same thing there.
    if (components == 1) {
      for (int32_t v : members) {
        bool is_cut = std::find(out.begin(), out.end(), v) != out.end();
        if (members.size() <= 2) is_cut = false;  // removal leaves <= 1 node
        EXPECT_EQ(is_cut, !check.IsConnectedWithout(members, v))
            << "node " << v << " trial " << trial;
      }
    }
  }
}

TEST(ConnectivityTest, ReusableAcrossManyCalls) {
  ContiguityGraph g = Grid(5, 5);
  ConnectivityChecker check(&g);
  std::vector<int32_t> row = {0, 1, 2, 3, 4};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(check.IsConnected(row));
    EXPECT_FALSE(check.IsConnectedWithout(row, 2));
  }
}

}  // namespace
}  // namespace emp
