#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/csv.h"
#include "common/str_util.h"
#include "data/compact/loader.h"
#include "geometry/wkt.h"

namespace emp {

namespace {

/// Box-overlap candidate pairs via a sweep over min_x. O(n log n + k) for
/// the k overlapping pairs — ample for shapefile-scale inputs.
std::vector<std::pair<int32_t, int32_t>> BoxOverlapPairs(
    const std::vector<Box>& boxes) {
  const int32_t n = static_cast<int32_t>(boxes.size());
  std::vector<int32_t> order(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return boxes[static_cast<size_t>(a)].min_x <
           boxes[static_cast<size_t>(b)].min_x;
  });

  std::vector<std::pair<int32_t, int32_t>> pairs;
  std::vector<int32_t> active;  // sorted-by-insertion sweep set
  for (int32_t idx : order) {
    const Box& box = boxes[static_cast<size_t>(idx)];
    // Evict boxes that ended before this one starts.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](int32_t other) {
                                  return boxes[static_cast<size_t>(other)]
                                             .max_x < box.min_x;
                                }),
                 active.end());
    for (int32_t other : active) {
      if (boxes[static_cast<size_t>(other)].Intersects(box)) {
        pairs.emplace_back(other, idx);
      }
    }
    active.push_back(idx);
  }
  return pairs;
}

}  // namespace

Result<AreaSet> LoadAreaSetFromCsvText(const std::string& csv_text,
                                       const LoaderOptions& options) {
  EMP_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(csv_text));
  const int geom_col = table.ColumnIndex(options.geometry_column);
  if (geom_col < 0) {
    return Status::InvalidArgument("no geometry column '" +
                                   options.geometry_column + "' in CSV");
  }
  if (table.header.size() < 2) {
    return Status::InvalidArgument(
        "CSV needs at least one attribute column besides geometry");
  }
  const int64_t n = static_cast<int64_t>(table.rows.size());
  if (n == 0) {
    return Status::InvalidArgument("CSV has no data rows");
  }

  // Geometry.
  std::vector<Polygon> polygons;
  polygons.reserve(static_cast<size_t>(n));
  for (int64_t row = 0; row < n; ++row) {
    // The CSV dialect is unquoted, so WKT coordinate separators are
    // written as ';' (see AreaSetToCsvText); restore them before parsing.
    std::string wkt =
        table.rows[static_cast<size_t>(row)][static_cast<size_t>(geom_col)];
    for (char& c : wkt) {
      if (c == ';') c = ',';
    }
    auto poly = PolygonFromWkt(wkt);
    if (!poly.ok()) {
      return Status::IOError("row " + std::to_string(row) + ": " +
                             poly.status().message());
    }
    polygons.push_back(std::move(poly).value());
  }

  // Attributes (all non-geometry columns must be numeric).
  AttributeTable attributes(n);
  for (size_t col = 0; col < table.header.size(); ++col) {
    if (static_cast<int>(col) == geom_col) continue;
    std::vector<double> values(static_cast<size_t>(n));
    for (int64_t row = 0; row < n; ++row) {
      auto v = ParseDouble(table.rows[static_cast<size_t>(row)][col]);
      if (!v.ok()) {
        return Status::IOError("row " + std::to_string(row) + ", column '" +
                               table.header[col] + "': " +
                               v.status().message());
      }
      values[static_cast<size_t>(row)] = *v;
    }
    EMP_RETURN_IF_ERROR(attributes.AddColumn(table.header[col],
                                             std::move(values)));
  }

  EMP_ASSIGN_OR_RETURN(ContiguityGraph graph,
                       DeriveContiguity(polygons, options));

  std::string diss = options.dissimilarity_attribute;
  if (diss.empty()) diss = attributes.column_names().back();
  return AreaSet::Create(options.name, std::move(polygons), std::move(graph),
                         std::move(attributes), diss);
}

Result<ContiguityGraph> DeriveContiguity(const std::vector<Polygon>& polygons,
                                         const LoaderOptions& options) {
  const int64_t n = static_cast<int64_t>(polygons.size());
  std::vector<Box> boxes;
  boxes.reserve(static_cast<size_t>(n));
  std::vector<double> diags;
  for (const Polygon& poly : polygons) {
    Box b = poly.BoundingBox();
    boxes.push_back(b);
    diags.push_back(std::hypot(b.Width(), b.Height()));
  }
  double threshold = options.min_shared_border;
  if (threshold <= 0.0 && !diags.empty()) {
    std::vector<double> sorted = diags;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    threshold = 1e-4 * sorted[sorted.size() / 2];
  }

  auto share_vertex = [&](const Polygon& pa, const Polygon& pb) {
    const double eps2 = options.vertex_eps * options.vertex_eps;
    for (const Point& va : pa.vertices()) {
      for (const Point& vb : pb.vertices()) {
        if (DistanceSquared(va, vb) <= eps2) return true;
      }
    }
    return false;
  };

  std::vector<std::pair<int32_t, int32_t>> edges;
  for (const auto& [a, b] : BoxOverlapPairs(boxes)) {
    const Polygon& pa = polygons[static_cast<size_t>(a)];
    const Polygon& pb = polygons[static_cast<size_t>(b)];
    if (SharedBorderLength(pa, pb) >= threshold ||
        (options.queen && share_vertex(pa, pb))) {
      edges.emplace_back(a, b);
    }
  }
  return ContiguityGraph::FromEdges(static_cast<int32_t>(n), edges);
}

Result<AreaSet> LoadAreaSetFromCsvFile(const std::string& path,
                                       const LoaderOptions& options) {
  EMP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return LoadAreaSetFromCsvText(text, options);
}

Result<AreaSet> LoadAreaSetAuto(const std::string& path,
                                const LoaderOptions& options) {
  if (compact::IsCompactFile(path)) {
    compact::LoadOptions compact_options;
    compact_options.verify_digest = options.verify_compact_digest;
    return compact::LoadCompactAreaSet(path, compact_options);
  }
  return LoadAreaSetFromCsvFile(path, options);
}

Result<std::string> AreaSetToCsvText(const AreaSet& areas,
                                     const std::string& geometry_column) {
  if (!areas.has_geometry()) {
    return Status::FailedPrecondition(
        "AreaSetToCsvText requires polygon geometry");
  }
  const AttributeTable& attrs = areas.attributes();
  CsvTable table;
  table.header.push_back(geometry_column);
  for (const std::string& name : attrs.column_names()) {
    table.header.push_back(name);
  }
  for (int32_t row = 0; row < areas.num_areas(); ++row) {
    std::vector<std::string> cells;
    // Unquoted CSV dialect: emit WKT with ';' in place of ',' so the
    // geometry survives field splitting; the loader translates back.
    std::string wkt = ToWkt(areas.polygon(row));
    for (char& c : wkt) {
      if (c == ',') c = ';';
    }
    cells.push_back(wkt);
    for (int col = 0; col < attrs.num_columns(); ++col) {
      cells.push_back(FormatDouble(attrs.Value(col, row), 9));
    }
    table.rows.push_back(std::move(cells));
  }
  return WriteCsv(table);
}

}  // namespace emp
