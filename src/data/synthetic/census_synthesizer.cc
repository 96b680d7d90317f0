#include "data/synthetic/census_synthesizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "common/ticket_pool.h"
#include "data/synthetic/noise_field.h"
#include "geometry/voronoi.h"

namespace emp {
namespace synthetic {

namespace {

/// Noise-field samples per block of the worker pool; a map of at most this
/// many areas samples inline.
constexpr int64_t kSamplesPerBlock = 4096;

/// Quantile function of a marginal at probability p in (0, 1).
double Quantile(const AttributeSpec& spec, double p) {
  switch (spec.marginal) {
    case Marginal::kNormal:
      return spec.param_a + spec.param_b * InverseNormalCdf(p);
    case Marginal::kLogNormal:
      return std::exp(spec.param_a + spec.param_b * InverseNormalCdf(p));
    case Marginal::kUniform:
      return spec.param_a + (spec.param_b - spec.param_a) * p;
  }
  return 0.0;
}

struct Island {
  std::vector<Point> sites;
  Box frame;
};

/// Lays out `n` jittered-grid sites inside a frame whose origin is shifted
/// by `x_offset`, producing tract-like irregular Voronoi cells.
Island LayOutIsland(int32_t n, double x_offset, double jitter, Rng* rng) {
  Island island;
  const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(
                                    static_cast<double>(n)))));
  const int rows = (n + cols - 1) / cols;
  const double pitch = 1.0;
  island.sites.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    int r = static_cast<int>(i) / cols;
    int c = static_cast<int>(i) % cols;
    double jx = rng->Uniform(-jitter, jitter) * pitch;
    double jy = rng->Uniform(-jitter, jitter) * pitch;
    island.sites.push_back(
        {x_offset + (c + 0.5) * pitch + jx, (r + 0.5) * pitch + jy});
  }
  island.frame.Extend(Point{x_offset, 0.0});
  island.frame.Extend(Point{x_offset + cols * pitch, rows * pitch});
  return island;
}

}  // namespace

std::vector<AttributeSpec> DefaultCensusAttributes() {
  std::vector<AttributeSpec> specs;

  AttributeSpec pop16up;
  pop16up.name = "POP16UP";
  pop16up.marginal = Marginal::kNormal;
  pop16up.param_a = 3200.0;
  pop16up.param_b = 1100.0;
  pop16up.clamp_min = 50.0;
  specs.push_back(pop16up);

  AttributeSpec employed;
  employed.name = "EMPLOYED";
  employed.marginal = Marginal::kLogNormal;
  employed.param_a = std::log(1800.0);
  employed.param_b = 0.36;
  employed.clamp_min = 50.0;
  specs.push_back(employed);

  AttributeSpec totalpop;
  totalpop.name = "TOTALPOP";
  totalpop.marginal = Marginal::kNormal;
  totalpop.param_a = 4200.0;
  totalpop.param_b = 1500.0;
  totalpop.clamp_min = 300.0;
  specs.push_back(totalpop);

  AttributeSpec households;
  households.name = "HOUSEHOLDS";
  households.derive_from = "TOTALPOP";
  households.derive_scale = 1.0 / 2.8;
  households.derive_noise = 180.0;
  households.clamp_min = 100.0;
  specs.push_back(households);

  return specs;
}

Result<AreaSet> SynthesizeMap(const MapSpec& spec) {
  if (spec.num_areas < 1) {
    return Status::InvalidArgument("num_areas must be >= 1");
  }
  if (spec.num_components < 1 || spec.num_components > spec.num_areas) {
    return Status::InvalidArgument(
        "num_components must be in [1, num_areas]");
  }
  if (spec.jitter <= 0.0 || spec.jitter > 0.5) {
    return Status::InvalidArgument("jitter must be in (0, 0.5]");
  }
  if (spec.attributes.empty()) {
    return Status::InvalidArgument("at least one attribute is required");
  }

  Rng rng(spec.seed);

  // --- Geometry: one Voronoi tessellation per island. -----------------
  const int32_t k = spec.num_components;
  std::vector<Polygon> polygons;
  polygons.reserve(static_cast<size_t>(spec.num_areas));
  std::vector<std::vector<int32_t>> neighbors(
      static_cast<size_t>(spec.num_areas));
  std::vector<Point> centroids;
  centroids.reserve(static_cast<size_t>(spec.num_areas));

  double x_cursor = 0.0;
  int32_t id_offset = 0;
  const double kIslandGap = 3.0;  // Blank water between islands.
  for (int32_t c = 0; c < k; ++c) {
    int32_t n_c = spec.num_areas / k + (c < spec.num_areas % k ? 1 : 0);
    Island island = LayOutIsland(n_c, x_cursor, spec.jitter, &rng);
    EMP_ASSIGN_OR_RETURN(VoronoiDiagram diagram,
                         ComputeVoronoi(island.sites, island.frame));
    for (int32_t i = 0; i < n_c; ++i) {
      polygons.push_back(std::move(diagram.cells[static_cast<size_t>(i)]));
      centroids.push_back(diagram.centroids[static_cast<size_t>(i)]);
      auto& out = neighbors[static_cast<size_t>(id_offset + i)];
      for (int32_t nb : diagram.neighbors[static_cast<size_t>(i)]) {
        out.push_back(id_offset + nb);
      }
    }
    x_cursor += island.frame.Width() + kIslandGap;
    id_offset += n_c;
  }

  EMP_ASSIGN_OR_RETURN(
      ContiguityGraph graph,
      ContiguityGraph::FromNeighborLists(std::move(neighbors)));

  // --- Attributes: correlated latents, rank-mapped marginals. ---------
  AttributeTable table(spec.num_areas);
  const size_t n = static_cast<size_t>(spec.num_areas);
  for (const AttributeSpec& attr : spec.attributes) {
    std::vector<double> values(n);
    if (!attr.derive_from.empty()) {
      EMP_ASSIGN_OR_RETURN(const std::span<const double> base,
                           [&]() -> Result<std::span<const double>> {
                             auto r = table.ColumnByName(attr.derive_from);
                             if (!r.ok()) {
                               return Status::InvalidArgument(
                                   "attribute '" + attr.name +
                                   "' derives from unknown column '" +
                                   attr.derive_from + "'");
                             }
                             return r;
                           }());
      for (size_t i = 0; i < n; ++i) {
        double v = attr.derive_scale * base[i];
        if (attr.derive_noise > 0.0) v += rng.Normal(0.0, attr.derive_noise);
        values[i] = std::clamp(v, attr.clamp_min, attr.clamp_max);
      }
    } else {
      if (attr.spatial_weight < 0.0 || attr.spatial_weight > 1.0) {
        return Status::InvalidArgument("spatial_weight must be in [0, 1]");
      }
      NoiseField field(spec.seed ^ StableHash64(attr.name), /*frequency=*/0.12,
                       /*octaves=*/3);
      // Sample the field at centroids, then rank-normalize to uniform so
      // the smooth and i.i.d. components have equal variance — otherwise
      // the fractal field's compressed range lets noise dominate the blend.
      // The field draws nothing from `rng`, so the samples run on the pool;
      // every `rng` draw below stays serial and in area order.
      std::vector<double> smooth(n);
      RunBlocks(static_cast<int64_t>(n), kSamplesPerBlock,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    smooth[i] = field.Sample(centroids[i].x, centroids[i].y);
                  }
                });
      std::vector<int32_t> smooth_order(n);
      std::iota(smooth_order.begin(), smooth_order.end(), 0);
      std::sort(smooth_order.begin(), smooth_order.end(),
                [&](int32_t a, int32_t b) {
                  return smooth[static_cast<size_t>(a)] <
                         smooth[static_cast<size_t>(b)];
                });
      std::vector<double> smooth_u(n);
      for (size_t rank = 0; rank < n; ++rank) {
        smooth_u[static_cast<size_t>(smooth_order[rank])] =
            (static_cast<double>(rank) + 0.5) / static_cast<double>(n);
      }
      std::vector<double> latent(n);
      for (size_t i = 0; i < n; ++i) {
        double noise = rng.Uniform(0.0, 1.0);
        latent[i] = attr.spatial_weight * smooth_u[i] +
                    (1.0 - attr.spatial_weight) * noise;
      }
      // Rank-map: i-th smallest latent receives the i-th marginal quantile,
      // making the output marginal exact regardless of the latent's shape.
      std::vector<int32_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
        return latent[static_cast<size_t>(a)] < latent[static_cast<size_t>(b)];
      });
      for (size_t rank = 0; rank < n; ++rank) {
        double p = (static_cast<double>(rank) + 0.5) / static_cast<double>(n);
        values[static_cast<size_t>(order[rank])] =
            std::clamp(Quantile(attr, p), attr.clamp_min, attr.clamp_max);
      }
    }
    EMP_RETURN_IF_ERROR(table.AddColumn(attr.name, std::move(values)));
  }

  std::string diss = spec.dissimilarity_attribute;
  if (diss.empty()) diss = spec.attributes.back().name;
  return AreaSet::Create(spec.name, std::move(polygons), std::move(graph),
                         std::move(table), diss);
}

}  // namespace synthetic
}  // namespace emp
