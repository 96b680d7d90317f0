#include "graph/contiguity_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/components.h"

namespace emp {
namespace {

/// 0-1-2
/// |   |
/// 3-4-5   (a 2x3 grid, rook adjacency)
ContiguityGraph Grid2x3() {
  auto g = ContiguityGraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 3}, {2, 5}, {3, 4}, {4, 5}, {1, 4}});
  return std::move(g).value();
}

TEST(GraphTest, FromEdgesBuildsSymmetricAdjacency) {
  ContiguityGraph g = Grid2x3();
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 5));
}

TEST(GraphTest, NeighborListsAreSortedAndDeduped) {
  auto g = ContiguityGraph::FromNeighborLists({{1, 1, 2}, {0}, {0, 1}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3);
  std::vector<int32_t> expected = {1, 2};
  EXPECT_TRUE(std::ranges::equal(g->NeighborsOf(0), expected));
}

TEST(GraphTest, MissingReverseEdgesAreAdded) {
  auto g = ContiguityGraph::FromNeighborLists({{1}, {}, {}});
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->HasEdge(1, 0));
}

TEST(GraphTest, NeighborListsEqualTheUnionOfBothDirections) {
  // Random one-sided lists with repeats, checked against a std::set
  // reference: node u's list is every v with u -> v or v -> u, ascending.
  Rng rng(17);
  const int32_t n = 300;
  std::vector<std::vector<int32_t>> lists(n);
  std::vector<std::set<int32_t>> reference(n);
  for (int32_t u = 0; u < n; ++u) {
    const int64_t degree = rng.UniformInt(0, 8);
    for (int64_t k = 0; k < degree; ++k) {
      const int32_t v = static_cast<int32_t>(rng.UniformInt(0, n - 1));
      if (v == u) continue;
      lists[static_cast<size_t>(u)].push_back(v);
      reference[static_cast<size_t>(u)].insert(v);
      reference[static_cast<size_t>(v)].insert(u);
    }
  }
  auto g = ContiguityGraph::FromNeighborLists(lists);
  ASSERT_TRUE(g.ok());
  int64_t degree_sum = 0;
  for (int32_t u = 0; u < n; ++u) {
    const std::set<int32_t>& want = reference[static_cast<size_t>(u)];
    EXPECT_TRUE(std::ranges::equal(g->NeighborsOf(u), want)) << "node " << u;
    degree_sum += static_cast<int64_t>(want.size());
  }
  EXPECT_EQ(g->num_edges(), degree_sum / 2);
}

TEST(GraphTest, RejectsSelfLoops) {
  EXPECT_FALSE(ContiguityGraph::FromNeighborLists({{0}}).ok());
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(ContiguityGraph::FromNeighborLists({{5}}).ok());
  EXPECT_FALSE(ContiguityGraph::FromEdges(2, {{0, 2}}).ok());
  EXPECT_FALSE(ContiguityGraph::FromEdges(-1, {}).ok());
}

TEST(GraphTest, DegreeAndAverageDegree) {
  ContiguityGraph g = Grid2x3();
  EXPECT_EQ(g.DegreeOf(4), 3);
  EXPECT_EQ(g.DegreeOf(0), 2);
  EXPECT_NEAR(g.AverageDegree(), 14.0 / 6.0, 1e-12);
}

TEST(GraphTest, EmptyGraph) {
  auto g = ContiguityGraph::FromNeighborLists({});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0);
  EXPECT_DOUBLE_EQ(g->AverageDegree(), 0.0);
}

TEST(GraphTest, InducedSubgraphRenumbers) {
  ContiguityGraph g = Grid2x3();
  auto [sub, mapping] = g.InducedSubgraph({0, 1, 4});
  EXPECT_EQ(sub.num_nodes(), 3);
  // Edges kept: 0-1 and 1-4 (old), renumbered 0-1, 1-2.
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(0, 2));
  EXPECT_EQ(mapping[2], 4);
}

TEST(ComponentsTest, SingleComponentGrid) {
  ComponentLabels labels = ConnectedComponents(Grid2x3());
  EXPECT_EQ(labels.count, 1);
  for (int32_t l : labels.label) EXPECT_EQ(l, 0);
}

TEST(ComponentsTest, TwoIslands) {
  auto g = ContiguityGraph::FromEdges(5, {{0, 1}, {2, 3}, {3, 4}});
  ASSERT_TRUE(g.ok());
  ComponentLabels labels = ConnectedComponents(*g);
  EXPECT_EQ(labels.count, 2);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_EQ(labels.label[2], labels.label[3]);
  EXPECT_NE(labels.label[0], labels.label[2]);
  auto groups = labels.Groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<int32_t>{2, 3, 4}));
}

TEST(ComponentsTest, IsolatedNodesAreSingletonComponents) {
  auto g = ContiguityGraph::FromEdges(3, {});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(ConnectedComponents(*g).count, 3);
}

TEST(ComponentsTest, WithinSubsetIgnoresOutsideNodes) {
  // Path 0-1-2-3; members {0, 1, 3}: removing 2 splits them.
  auto g = ContiguityGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.ok());
  ComponentLabels labels = ConnectedComponentsWithin(*g, {0, 1, 3});
  EXPECT_EQ(labels.count, 2);
  EXPECT_EQ(labels.label[0], labels.label[1]);
  EXPECT_NE(labels.label[0], labels.label[3]);
  EXPECT_EQ(labels.label[2], -1);  // not a member
}

}  // namespace
}  // namespace emp
