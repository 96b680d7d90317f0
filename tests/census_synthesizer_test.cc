#include "data/synthetic/census_synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <cmath>

#include "common/rng.h"
#include "data/synthetic/noise_field.h"
#include "graph/components.h"

namespace emp {
namespace synthetic {
namespace {

MapSpec BasicSpec(int32_t n, uint64_t seed = 9) {
  MapSpec spec;
  spec.name = "test";
  spec.num_areas = n;
  spec.seed = seed;
  spec.attributes = DefaultCensusAttributes();
  spec.dissimilarity_attribute = "HOUSEHOLDS";
  return spec;
}

TEST(CensusSynthesizerTest, ProducesRequestedAreaCount) {
  auto areas = SynthesizeMap(BasicSpec(250));
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), 250);
  EXPECT_TRUE(areas->has_geometry());
  EXPECT_EQ(areas->attributes().num_columns(), 4);
}

TEST(CensusSynthesizerTest, DeterministicForSameSpec) {
  auto a = SynthesizeMap(BasicSpec(120, 5));
  auto b = SynthesizeMap(BasicSpec(120, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int32_t i = 0; i < 120; ++i) {
    EXPECT_DOUBLE_EQ(a->attributes().Value(0, i), b->attributes().Value(0, i));
    EXPECT_TRUE(std::ranges::equal(a->graph().NeighborsOf(i),
                                   b->graph().NeighborsOf(i)));
  }
}

TEST(CensusSynthesizerTest, DifferentSeedsProduceDifferentAttributes) {
  auto a = SynthesizeMap(BasicSpec(100, 1));
  auto b = SynthesizeMap(BasicSpec(100, 2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  int same = 0;
  for (int32_t i = 0; i < 100; ++i) {
    if (a->attributes().Value(0, i) == b->attributes().Value(0, i)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(CensusSynthesizerTest, GraphIsConnectedSingleComponent) {
  auto areas = SynthesizeMap(BasicSpec(300));
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(ConnectedComponents(areas->graph()).count, 1);
}

TEST(CensusSynthesizerTest, MultipleComponentsHonored) {
  MapSpec spec = BasicSpec(300);
  spec.num_components = 3;
  auto areas = SynthesizeMap(spec);
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), 300);
  EXPECT_EQ(ConnectedComponents(areas->graph()).count, 3);
}

TEST(CensusSynthesizerTest, TractLikeAverageDegree) {
  auto areas = SynthesizeMap(BasicSpec(500));
  ASSERT_TRUE(areas.ok());
  double avg = areas->graph().AverageDegree();
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 7.0);
}

TEST(CensusSynthesizerTest, MarginalAnchorsMatchPaper) {
  // Calibration anchors derived from the paper's Table III / Fig. 8; see
  // DESIGN.md §3. Tolerances are generous: shapes matter, not decimals.
  auto areas = SynthesizeMap(BasicSpec(2344, 42));
  ASSERT_TRUE(areas.ok());
  const auto& attrs = areas->attributes();

  // POP16UP: ~11.5% below 2000, ~62% below 3500, ~93% below 5000.
  auto frac_below = [&](const std::string& col, double cut) {
    const std::span<const double> v = *attrs.ColumnByName(col);
    double cnt = 0;
    for (double x : v) {
      if (x <= cut) ++cnt;
    }
    return cnt / static_cast<double>(v.size());
  };
  EXPECT_NEAR(frac_below("POP16UP", 2000), 0.14, 0.05);
  EXPECT_NEAR(frac_below("POP16UP", 3500), 0.61, 0.06);
  EXPECT_NEAR(frac_below("POP16UP", 5000), 0.95, 0.04);

  // EMPLOYED: positively skewed, max around 6k, >half below 2k.
  auto emp_stats = attrs.Stats("EMPLOYED");
  ASSERT_TRUE(emp_stats.ok());
  EXPECT_GT(emp_stats->max, 4500);
  EXPECT_LT(emp_stats->max, 9000);
  EXPECT_GT(frac_below("EMPLOYED", 2000), 0.5);
  EXPECT_GT(emp_stats->mean, emp_stats->max / 4.0);  // not absurdly skewed

  // TOTALPOP: mean near 4.2k (LA-county-like density).
  auto pop_stats = attrs.Stats("TOTALPOP");
  ASSERT_TRUE(pop_stats.ok());
  EXPECT_NEAR(pop_stats->mean, 4200, 300);
}

TEST(CensusSynthesizerTest, DerivedHouseholdsTracksTotalpop) {
  auto areas = SynthesizeMap(BasicSpec(800));
  ASSERT_TRUE(areas.ok());
  const auto& attrs = areas->attributes();
  const std::span<const double> pop = *attrs.ColumnByName("TOTALPOP");
  const std::span<const double> hh = *attrs.ColumnByName("HOUSEHOLDS");
  // Correlation should be strongly positive.
  double mp = 0;
  double mh = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    mp += pop[i];
    mh += hh[i];
  }
  mp /= static_cast<double>(pop.size());
  mh /= static_cast<double>(hh.size());
  double cov = 0;
  double vp = 0;
  double vh = 0;
  for (size_t i = 0; i < pop.size(); ++i) {
    cov += (pop[i] - mp) * (hh[i] - mh);
    vp += (pop[i] - mp) * (pop[i] - mp);
    vh += (hh[i] - mh) * (hh[i] - mh);
  }
  EXPECT_GT(cov / std::sqrt(vp * vh), 0.9);
}

TEST(CensusSynthesizerTest, AttributesAreSpatiallyAutocorrelated) {
  auto areas = SynthesizeMap(BasicSpec(900));
  ASSERT_TRUE(areas.ok());
  const std::span<const double> v =
      *areas->attributes().ColumnByName("EMPLOYED");
  // Mean absolute difference across graph edges should be well below the
  // all-pairs baseline.
  double edge_diff = 0;
  int64_t edges = 0;
  for (int32_t a = 0; a < areas->num_areas(); ++a) {
    for (int32_t b : areas->graph().NeighborsOf(a)) {
      if (b > a) {
        edge_diff += std::fabs(v[static_cast<size_t>(a)] -
                               v[static_cast<size_t>(b)]);
        ++edges;
      }
    }
  }
  edge_diff /= static_cast<double>(edges);
  double global_diff = 0;
  int64_t pairs = 0;
  for (int32_t a = 0; a < areas->num_areas(); a += 7) {
    for (int32_t b = a + 1; b < areas->num_areas(); b += 13) {
      global_diff += std::fabs(v[static_cast<size_t>(a)] -
                               v[static_cast<size_t>(b)]);
      ++pairs;
    }
  }
  global_diff /= static_cast<double>(pairs);
  EXPECT_LT(edge_diff, 0.8 * global_diff);
}

TEST(CensusSynthesizerTest, PurelySpatialAttributeFollowsTheFieldOverBlocks) {
  // 9,000 areas in two islands: the cells and the noise samples each run
  // as several blocks on the worker pool. With spatial_weight 1 the value
  // order is the field's order at the cell centroids, so any sample
  // written to another area's slot shows as an inversion.
  MapSpec spec = BasicSpec(9000, 21);
  spec.num_components = 2;
  AttributeSpec smooth;
  smooth.name = "SMOOTH";
  smooth.marginal = Marginal::kUniform;
  smooth.param_a = 0.0;
  smooth.param_b = 1.0;
  smooth.spatial_weight = 1.0;
  spec.attributes = {smooth};
  spec.dissimilarity_attribute = "SMOOTH";
  auto areas = SynthesizeMap(spec);
  ASSERT_TRUE(areas.ok()) << areas.status().ToString();
  EXPECT_EQ(ConnectedComponents(areas->graph()).count, 2);
  const NoiseField field(spec.seed ^ StableHash64("SMOOTH"),
                         /*frequency=*/0.12, /*octaves=*/3);
  const std::span<const double> v = *areas->attributes().ColumnByName("SMOOTH");
  std::vector<double> sampled(v.size());
  for (int32_t a = 0; a < areas->num_areas(); ++a) {
    const Point c = areas->polygon(a).Centroid();
    sampled[static_cast<size_t>(a)] = field.Sample(c.x, c.y);
  }
  int64_t inversions = 0;
  for (size_t a = 0; a < v.size(); a += 5) {
    for (size_t b = a + 1; b < v.size(); b += 97) {
      if ((sampled[a] < sampled[b]) != (v[a] < v[b])) ++inversions;
    }
  }
  EXPECT_EQ(inversions, 0);
}

TEST(CensusSynthesizerTest, RejectsBadSpecs) {
  MapSpec spec = BasicSpec(10);
  spec.num_areas = 0;
  EXPECT_FALSE(SynthesizeMap(spec).ok());

  spec = BasicSpec(10);
  spec.num_components = 11;
  EXPECT_FALSE(SynthesizeMap(spec).ok());

  spec = BasicSpec(10);
  spec.jitter = 0.9;
  EXPECT_FALSE(SynthesizeMap(spec).ok());

  spec = BasicSpec(10);
  spec.attributes.clear();
  EXPECT_FALSE(SynthesizeMap(spec).ok());

  spec = BasicSpec(10);
  spec.attributes[3].derive_from = "UNKNOWN";
  EXPECT_FALSE(SynthesizeMap(spec).ok());
}

TEST(CensusSynthesizerTest, ClampsRespected) {
  auto areas = SynthesizeMap(BasicSpec(500));
  ASSERT_TRUE(areas.ok());
  for (const std::string& col :
       {std::string("POP16UP"), std::string("EMPLOYED"),
        std::string("TOTALPOP"), std::string("HOUSEHOLDS")}) {
    auto s = areas->attributes().Stats(col);
    ASSERT_TRUE(s.ok());
    EXPECT_GT(s->min, 0.0) << col;
  }
}

}  // namespace
}  // namespace synthetic
}  // namespace emp
