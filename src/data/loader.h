#ifndef EMP_DATA_LOADER_H_
#define EMP_DATA_LOADER_H_

#include <string>

#include "common/result.h"
#include "data/area_set.h"

namespace emp {

/// Options for building an AreaSet from a CSV of attributes + WKT
/// geometry (the workflow the paper performed with QGIS joins).
struct LoaderOptions {
  /// Name of the CSV column holding each area's polygon as WKT
  /// ("POLYGON ((x y, ...))").
  std::string geometry_column = "WKT";
  /// Attribute used as the dissimilarity attribute d_i. Empty = the last
  /// non-geometry column: the synthesizer's own default, and where
  /// `AreaSetToCsvText` puts HOUSEHOLDS for catalog maps, so a map read
  /// back from `emp_cli synth` CSV scores like its packed image.
  std::string dissimilarity_attribute;
  /// Two areas are contiguous (rook adjacency) when their shared border is
  /// at least this long, in the CSV's coordinate units. Values <= 0 fall
  /// back to a fraction of the median polygon "diameter".
  double min_shared_border = -1.0;
  /// Queen contiguity: also connect polygons that merely share a corner
  /// vertex (within `vertex_eps`). PySAL/GeoDa's "queen" weights; the
  /// paper's census setting corresponds to rook (default false).
  bool queen = false;
  /// Distance tolerance for the queen shared-vertex test.
  double vertex_eps = 1e-9;
  /// Dataset name recorded on the AreaSet.
  std::string name = "csv";
  /// For compact (.emp) inputs: recompute the instance digest from the
  /// decoded data and fail on a header mismatch. Anything that keys caches
  /// or dedupes by digest must set this — the header value alone is
  /// untrusted input. Costs one O(n + E + cells) walk per load.
  bool verify_compact_digest = false;
};

/// Parses a CSV document (header + rows) into an AreaSet: one row per
/// area, one WKT geometry column, every other column a numeric attribute.
/// The contiguity graph is derived geometrically — candidate neighbor
/// pairs from a bounding-box grid index, confirmed by shared-border
/// length — exactly what a shapefile-based pipeline does.
Result<AreaSet> LoadAreaSetFromCsvText(const std::string& csv_text,
                                       const LoaderOptions& options = {});

/// Reads `path` and delegates to LoadAreaSetFromCsvText.
Result<AreaSet> LoadAreaSetFromCsvFile(const std::string& path,
                                       const LoaderOptions& options = {});

/// Loads an instance file of either format: compact binary (sniffed by
/// magic, mmap'd zero-copy) or CSV (parsed per `options`). The single
/// entry point the CLI and solve service use for file inputs.
Result<AreaSet> LoadAreaSetAuto(const std::string& path,
                                const LoaderOptions& options = {});

/// Serializes an AreaSet back to the loader's CSV format (geometry as WKT
/// plus all attribute columns). Requires geometry. Round-trips with
/// LoadAreaSetFromCsvText up to floating-point formatting.
Result<std::string> AreaSetToCsvText(
    const AreaSet& areas, const std::string& geometry_column = "WKT");

/// Derives the contiguity graph from polygon geometry alone: bounding-box
/// sweep for candidate pairs, confirmed by shared-border length (rook) and
/// optionally shared corner vertices (queen) per `options`. Shared by the
/// CSV and GeoJSON loaders.
Result<ContiguityGraph> DeriveContiguity(const std::vector<Polygon>& polygons,
                                         const LoaderOptions& options = {});

}  // namespace emp

#endif  // EMP_DATA_LOADER_H_
