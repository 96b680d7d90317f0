#ifndef EMP_GEOMETRY_VORONOI_H_
#define EMP_GEOMETRY_VORONOI_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "geometry/box.h"
#include "geometry/polygon.h"

namespace emp {

namespace obs {
class MetricRegistry;
}  // namespace obs

/// A bounded Voronoi diagram: one convex cell per input site, clipped to a
/// rectangular frame, with the cell-to-cell adjacency extracted from the
/// bisectors that actually bound each cell. This is the substrate that
/// replaces real census-tract shapefiles: Voronoi cells of jittered points
/// are irregular, planar, and have tract-like neighbor counts (~6 on
/// average).
struct VoronoiDiagram {
  std::vector<Polygon> cells;                    // cells[i] belongs to site i
  std::vector<Point> centroids;                  // cells[i].Centroid()
  std::vector<std::vector<int32_t>> neighbors;   // sorted, symmetric
  Box frame;                                     // the clipping rectangle
};

/// Sites per block of the cell build. Blocks of consecutive sites run on
/// the shared worker pool (`RunBlocks`); a diagram of at most this many
/// sites is built inline on the calling thread.
inline constexpr int32_t kVoronoiBlockSites = 4096;

/// Options controlling the cell construction.
struct VoronoiOptions {
  /// Initial number of nearest neighbors whose bisectors are used to clip a
  /// cell; doubled until the security-radius test certifies exactness.
  int initial_knn = 16;
  /// Hard cap on the neighbor count per cell (guards pathological inputs).
  int max_knn = 1024;
  /// Optional telemetry sink (null = off): records cells built, knn
  /// doublings, and cells that hit max_knn uncertified.
  obs::MetricRegistry* metrics = nullptr;
};

/// Computes the bounded Voronoi diagram of `sites` inside `frame`.
/// Fails with InvalidArgument when sites are empty, the frame is empty, or
/// a cell comes out empty, which two sites closer together than their
/// coordinates' precision can cause; the error names the lowest such site.
/// (Exactly coincident sites do not fail: they get the same cell.) The
/// diagram, the error and the counters in `options.metrics` do not depend
/// on the thread count.
Result<VoronoiDiagram> ComputeVoronoi(const std::vector<Point>& sites,
                                      const Box& frame,
                                      const VoronoiOptions& options = {});

}  // namespace emp

#endif  // EMP_GEOMETRY_VORONOI_H_
