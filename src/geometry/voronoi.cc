#include "geometry/voronoi.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/ticket_pool.h"
#include "geometry/clip.h"
#include "geometry/spatial_index.h"
#include "obs/metrics.h"

namespace emp {

namespace {

TaggedConvexPolygon FramePolygon(const Box& frame) {
  Polygon rect({{frame.min_x, frame.min_y},
                {frame.max_x, frame.min_y},
                {frame.max_x, frame.max_y},
                {frame.min_x, frame.max_y}});
  return MakeTagged(rect);
}

/// Builds the cell of `site_idx` by clipping the frame against bisectors of
/// the `k` nearest sites; returns the cell and whether the security-radius
/// test certified it as exact (no farther site can cut it further).
struct CellAttempt {
  TaggedConvexPolygon cell;
  bool certified = false;
};

CellAttempt BuildCell(const SpatialGridIndex& index, int32_t site_idx,
                      const TaggedConvexPolygon& frame_poly, int k) {
  const std::vector<Point>& sites = index.points();
  const Point site = sites[site_idx];

  std::vector<int32_t> nn = index.KNearest(site, k, site_idx);
  TaggedConvexPolygon cell = frame_poly;
  for (int32_t j : nn) {
    cell = ClipConvex(cell, PerpendicularBisector(site, sites[j], j));
    if (cell.empty()) break;
  }

  CellAttempt out;
  out.cell = std::move(cell);
  if (out.cell.empty()) {
    // A Voronoi cell of a site inside the frame can never be empty; treat
    // as uncertified so the caller retries with more neighbors (and
    // ultimately reports the degenerate input).
    out.certified = false;
    return out;
  }

  if (nn.empty() || static_cast<int>(nn.size()) < k) {
    // Fewer than k sites exist; every bisector was considered.
    out.certified = true;
    return out;
  }

  // Security-radius test: any site farther than twice the distance from the
  // site to its farthest cell vertex cannot cut the cell. The k-th nearest
  // neighbor distance lower-bounds every unconsidered site's distance.
  double max_vertex_dist = 0.0;
  for (const Point& v : out.cell.vertices) {
    max_vertex_dist = std::max(max_vertex_dist, Distance(site, v));
  }
  double kth_dist = Distance(site, sites[nn.back()]);
  out.certified = kth_dist >= 2.0 * max_vertex_dist;
  return out;
}

}  // namespace

Result<VoronoiDiagram> ComputeVoronoi(const std::vector<Point>& sites,
                                      const Box& frame,
                                      const VoronoiOptions& options) {
  if (sites.empty()) {
    return Status::InvalidArgument("ComputeVoronoi: no sites");
  }
  if (frame.empty()) {
    return Status::InvalidArgument("ComputeVoronoi: empty frame");
  }
  for (const Point& p : sites) {
    if (!frame.Contains(p)) {
      return Status::InvalidArgument(
          "ComputeVoronoi: site outside the clipping frame");
    }
  }

  SpatialGridIndex index(sites);
  const TaggedConvexPolygon frame_poly = FramePolygon(frame);
  const int32_t n = static_cast<int32_t>(sites.size());

  VoronoiDiagram diagram;
  diagram.frame = frame;
  diagram.cells.resize(n);
  diagram.centroids.resize(n);
  diagram.neighbors.assign(n, {});

  // Cells are independent, so each worker writes only its own sites'
  // slots; the join then reads them in site order, and neither the output
  // nor the error depends on the thread count.
  std::vector<int32_t> doublings(n, 0);
  std::vector<uint8_t> certified(n, 0);
  std::atomic<int32_t> first_degenerate{n};
  std::atomic<bool> degenerate{false};
  auto build_block = [&](int64_t begin, int64_t end) {
    for (int32_t i = static_cast<int32_t>(begin); i < end; ++i) {
      int k = std::min(options.initial_knn, n - 1);
      CellAttempt attempt;
      while (true) {
        attempt = BuildCell(index, i, frame_poly, k);
        if (attempt.certified || k >= std::min(options.max_knn, n - 1)) break;
        k = std::min(k * 2, std::min(options.max_knn, n - 1));
        ++doublings[i];
      }
      certified[i] = attempt.certified;
      if (attempt.cell.empty()) {
        // Later sites of this block cannot be the lowest failure.
        int32_t lowest = first_degenerate.load();
        while (i < lowest &&
               !first_degenerate.compare_exchange_weak(lowest, i)) {
        }
        degenerate.store(true);
        return;
      }
      diagram.cells[i] = attempt.cell.ToPolygon();
      diagram.centroids[i] = diagram.cells[i].Centroid();
      std::vector<int32_t>& tags = diagram.neighbors[i];
      for (int64_t tag : attempt.cell.edge_tags) {
        if (tag >= 0) tags.push_back(static_cast<int32_t>(tag));
      }
      std::sort(tags.begin(), tags.end());
      tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    }
  };
  // Blocks are handed out in order, so once a degenerate cell stops the
  // pool every lower site has still been built.
  RunBlocks(n, kVoronoiBlockSites, build_block, &degenerate);

  // A failed build counts the sites up to the failing one, as a walk in
  // site order that stops there would.
  const int32_t failed_at = first_degenerate.load();
  const int32_t counted = failed_at < n ? failed_at + 1 : n;
  int64_t total_doublings = 0;
  int64_t total_uncertified = 0;
  for (int32_t i = 0; i < counted; ++i) {
    total_doublings += doublings[i];
    total_uncertified += certified[i] ? 0 : 1;
  }
  obs::Add(obs::GetCounter(options.metrics, "emp_voronoi_cells_total"),
           counted);
  obs::Add(obs::GetCounter(options.metrics, "emp_voronoi_knn_doublings_total"),
           total_doublings);
  obs::Add(
      obs::GetCounter(options.metrics, "emp_voronoi_uncertified_cells_total"),
      total_uncertified);
  if (failed_at < n) {
    return Status::InvalidArgument("ComputeVoronoi: degenerate cell for site " +
                                   std::to_string(failed_at) +
                                   " (coincident sites?)");
  }

  // Symmetrize: floating-point sliver edges can appear on one side only.
  // Collect the one-sided edges first so every lookup sees sorted lists.
  std::vector<std::pair<int32_t, int32_t>> missing;
  for (int32_t i = 0; i < n; ++i) {
    for (int32_t j : diagram.neighbors[i]) {
      const std::vector<int32_t>& back = diagram.neighbors[j];
      if (!std::binary_search(back.begin(), back.end(), i)) {
        missing.emplace_back(j, i);
      }
    }
  }
  for (const auto& [j, i] : missing) diagram.neighbors[j].push_back(i);
  for (const auto& [j, i] : missing) {
    std::sort(diagram.neighbors[j].begin(), diagram.neighbors[j].end());
  }
  return diagram;
}

}  // namespace emp
