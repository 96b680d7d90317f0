#include "geometry/voronoi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"

namespace emp {
namespace {

Box Frame(double w, double h) {
  Box b;
  b.Extend(Point{0, 0});
  b.Extend(Point{w, h});
  return b;
}

/// `cols` x `rows` grid sites of pitch 1, each jittered by up to 0.45 in x
/// and y, inside Frame(cols, rows).
std::vector<Point> JitteredGrid(int cols, int rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> sites;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      sites.push_back({c + 0.5 + rng.Uniform(-0.45, 0.45),
                       r + 0.5 + rng.Uniform(-0.45, 0.45)});
    }
  }
  return sites;
}

/// FNV-1a over every neighbor list, in site order.
uint64_t NeighborDigest(const std::vector<std::vector<int32_t>>& neighbors) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const std::vector<int32_t>& list : neighbors) {
    mix(list.size());
    for (int32_t j : list) mix(static_cast<uint64_t>(j));
  }
  return h;
}

TEST(VoronoiTest, SingleSiteOwnsWholeFrame) {
  auto d = ComputeVoronoi({{1, 1}}, Frame(2, 2));
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->cells.size(), 1u);
  EXPECT_NEAR(d->cells[0].Area(), 4.0, 1e-9);
  EXPECT_TRUE(d->neighbors[0].empty());
}

TEST(VoronoiTest, TwoSitesSplitFrameAtBisector) {
  auto d = ComputeVoronoi({{1, 1}, {3, 1}}, Frame(4, 2));
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d->cells[0].Area(), 4.0, 1e-9);
  EXPECT_NEAR(d->cells[1].Area(), 4.0, 1e-9);
  ASSERT_EQ(d->neighbors[0].size(), 1u);
  EXPECT_EQ(d->neighbors[0][0], 1);
  EXPECT_EQ(d->neighbors[1][0], 0);
}

TEST(VoronoiTest, GridSitesHaveGridAdjacency) {
  // 3x3 regular grid: the center cell neighbors exactly the 4 edge cells.
  std::vector<Point> sites;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      sites.push_back({c + 0.5, r + 0.5});
    }
  }
  auto d = ComputeVoronoi(sites, Frame(3, 3));
  ASSERT_TRUE(d.ok());
  // Site 4 is the center.
  std::vector<int32_t> expected = {1, 3, 5, 7};
  EXPECT_EQ(d->neighbors[4], expected);
}

TEST(VoronoiTest, CellsTileTheFrame) {
  Rng rng(101);
  std::vector<Point> sites;
  for (int i = 0; i < 200; ++i) {
    sites.push_back({rng.Uniform(0.01, 9.99), rng.Uniform(0.01, 4.99)});
  }
  auto d = ComputeVoronoi(sites, Frame(10, 5));
  ASSERT_TRUE(d.ok());
  double total = 0.0;
  for (const Polygon& cell : d->cells) {
    EXPECT_GT(cell.Area(), 0.0);
    EXPECT_TRUE(cell.IsConvex());
    total += cell.Area();
  }
  EXPECT_NEAR(total, 50.0, 1e-6);
}

TEST(VoronoiTest, EachSiteInsideItsOwnCell) {
  Rng rng(7);
  std::vector<Point> sites;
  for (int i = 0; i < 100; ++i) {
    sites.push_back({rng.Uniform(0.1, 9.9), rng.Uniform(0.1, 9.9)});
  }
  auto d = ComputeVoronoi(sites, Frame(10, 10));
  ASSERT_TRUE(d.ok());
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_TRUE(d->cells[i].Contains(sites[i])) << "site " << i;
  }
}

TEST(VoronoiTest, AdjacencyIsSymmetricAndIrreflexive) {
  Rng rng(55);
  std::vector<Point> sites;
  for (int i = 0; i < 150; ++i) {
    sites.push_back({rng.Uniform(0.1, 11.9), rng.Uniform(0.1, 7.9)});
  }
  auto d = ComputeVoronoi(sites, Frame(12, 8));
  ASSERT_TRUE(d.ok());
  for (size_t i = 0; i < sites.size(); ++i) {
    for (int32_t j : d->neighbors[i]) {
      EXPECT_NE(j, static_cast<int32_t>(i));
      const auto& back = d->neighbors[static_cast<size_t>(j)];
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<int32_t>(i)) != back.end());
    }
  }
}

TEST(VoronoiTest, AverageDegreeIsTractLike) {
  // Voronoi diagrams of generic points have average degree near 6 in the
  // interior; with boundary effects expect roughly 5-6.5.
  Rng rng(3);
  std::vector<Point> sites;
  for (int i = 0; i < 400; ++i) {
    sites.push_back({rng.Uniform(0.1, 19.9), rng.Uniform(0.1, 19.9)});
  }
  auto d = ComputeVoronoi(sites, Frame(20, 20));
  ASSERT_TRUE(d.ok());
  double total_degree = 0;
  for (const auto& nb : d->neighbors) total_degree += nb.size();
  double avg = total_degree / sites.size();
  EXPECT_GT(avg, 4.5);
  EXPECT_LT(avg, 7.0);
}

TEST(VoronoiTest, RejectsEmptySites) {
  EXPECT_FALSE(ComputeVoronoi({}, Frame(1, 1)).ok());
}

TEST(VoronoiTest, RejectsSiteOutsideFrame) {
  EXPECT_FALSE(ComputeVoronoi({{5, 5}}, Frame(1, 1)).ok());
}

TEST(VoronoiTest, RejectsEmptyFrame) {
  EXPECT_FALSE(ComputeVoronoi({{0, 0}}, Box()).ok());
}

TEST(VoronoiTest, CellOwnershipMatchesNearestSite) {
  // Exactness property: any point inside cell i must have site i as its
  // nearest site (up to boundary ties) — this catches under-clipped cells
  // that the security-radius certification is supposed to prevent.
  Rng rng(2023);
  std::vector<Point> sites;
  for (int i = 0; i < 250; ++i) {
    sites.push_back({rng.Uniform(0.1, 14.9), rng.Uniform(0.1, 9.9)});
  }
  auto d = ComputeVoronoi(sites, Frame(15, 10));
  ASSERT_TRUE(d.ok());
  for (int trial = 0; trial < 500; ++trial) {
    Point q{rng.Uniform(0, 15), rng.Uniform(0, 10)};
    int32_t owner = -1;
    for (size_t i = 0; i < sites.size(); ++i) {
      if (d->cells[i].Contains(q)) {
        owner = static_cast<int32_t>(i);
        break;
      }
    }
    if (owner == -1) continue;  // On a boundary; skip.
    double owner_dist = Distance(q, sites[static_cast<size_t>(owner)]);
    for (size_t i = 0; i < sites.size(); ++i) {
      EXPECT_GE(Distance(q, sites[i]), owner_dist - 1e-9)
          << "site " << i << " closer than owner " << owner;
    }
  }
}

TEST(VoronoiTest, NeighborListsSorted) {
  Rng rng(9);
  std::vector<Point> sites;
  for (int i = 0; i < 60; ++i) {
    sites.push_back({rng.Uniform(0.1, 5.9), rng.Uniform(0.1, 5.9)});
  }
  auto d = ComputeVoronoi(sites, Frame(6, 6));
  ASSERT_TRUE(d.ok());
  for (const auto& nb : d->neighbors) {
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
}

// The cell build runs in blocks on the worker pool. Its output and its
// counters must equal what the serial site-by-site walk produced; the pinned
// values were recorded from that walk.
TEST(VoronoiTest, BlockedBuildMatchesTheSerialWalk) {
  const std::vector<Point> sites = JitteredGrid(110, 110, 5);
  ASSERT_GT(sites.size(), 2u * kVoronoiBlockSites);  // Three blocks.
  obs::MetricRegistry metrics;
  VoronoiOptions options;
  options.metrics = &metrics;
  auto d = ComputeVoronoi(sites, Frame(110, 110), options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  size_t entries = 0;
  for (const auto& nb : d->neighbors) entries += nb.size();
  EXPECT_EQ(entries, 71746u);
  EXPECT_EQ(NeighborDigest(d->neighbors), 0x36fb99260882c841ULL);
  EXPECT_EQ(d->neighbors[kVoronoiBlockSites],
            (std::vector<int32_t>{3986, 4094, 4095, 4097, 4205, 4206}));
  ASSERT_EQ(d->centroids.size(), sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    const Point c = d->cells[i].Centroid();
    ASSERT_TRUE(d->centroids[i].x == c.x && d->centroids[i].y == c.y) << i;
  }
  EXPECT_EQ(metrics.GetCounter("emp_voronoi_cells_total")->value(), 12100);
  EXPECT_EQ(metrics.GetCounter("emp_voronoi_knn_doublings_total")->value(),
            11);
  EXPECT_EQ(
      metrics.GetCounter("emp_voronoi_uncertified_cells_total")->value(), 0);
}

// Starting from 2 neighbors and stopping at 8 makes every counter move.
TEST(VoronoiTest, BlockedBuildCountsDoublingsLikeTheSerialWalk) {
  const std::vector<Point> sites = JitteredGrid(110, 110, 5);
  obs::MetricRegistry metrics;
  VoronoiOptions options;
  options.initial_knn = 2;
  options.max_knn = 8;
  options.metrics = &metrics;
  auto d = ComputeVoronoi(sites, Frame(110, 110), options);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(NeighborDigest(d->neighbors), 0xba50340cb4f07860ULL);
  EXPECT_EQ(metrics.GetCounter("emp_voronoi_cells_total")->value(), 12100);
  EXPECT_EQ(metrics.GetCounter("emp_voronoi_knn_doublings_total")->value(),
            24179);
  EXPECT_EQ(
      metrics.GetCounter("emp_voronoi_uncertified_cells_total")->value(),
      7888);
}

TEST(VoronoiTest, CoincidentSitesInDifferentBlocksNameTheLowerSite) {
  // Far from the origin the bisector of two sites 1e-9 apart has no
  // precision left, and the cells of sites 1000 (block 0) and 9000
  // (block 2) each come out empty when built alone.
  const double x0 = 1e6;
  std::vector<Point> sites = JitteredGrid(110, 110, 5);
  for (Point& p : sites) p.x += x0;
  for (const auto& [site, copy] :
       {std::pair<int32_t, int32_t>{1000, 2 * kVoronoiBlockSites + 500},
        std::pair<int32_t, int32_t>{9000, 9001}}) {
    sites[copy] = {sites[site].x + 1e-9, sites[site].y + 1e-9};
  }
  Box frame;
  frame.Extend(Point{x0, 0});
  frame.Extend(Point{x0 + 110, 110});
  obs::MetricRegistry metrics;
  VoronoiOptions options;
  options.metrics = &metrics;
  auto d = ComputeVoronoi(sites, frame, options);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(d.status().message().find("site 1000 "), std::string::npos)
      << d.status().message();
  // Counted up to the failing site, as the walk in site order stops there.
  EXPECT_EQ(metrics.GetCounter("emp_voronoi_cells_total")->value(), 1001);
}

}  // namespace
}  // namespace emp
