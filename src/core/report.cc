#include "core/report.h"

#include <string>
#include <vector>

#include "common/json_writer.h"
#include "constraints/constraint_set.h"
#include "constraints/region_stats.h"
#include "core/metrics.h"

namespace emp {

namespace {

/// Numbers with the repo's bound sentinels rendered as "inf"/"-inf"
/// strings (JSON has no infinity literal).
void WriteNumber(JsonWriter* w, double v) {
  if (v == kNoUpperBound) {
    w->String("inf");
  } else if (v == kNoLowerBound) {
    w->String("-inf");
  } else {
    w->Double(v);
  }
}

}  // namespace

Result<std::string> SolutionToJson(const AreaSet& areas,
                                   const std::vector<Constraint>& constraints,
                                   const Solution& solution) {
  EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                       BoundConstraints::Create(&areas, constraints));
  EMP_ASSIGN_OR_RETURN(SolutionMetrics metrics,
                       ComputeMetrics(areas, solution));

  ReportBuilder report;
  JsonWriter& w = report.writer();
  report.Field("dataset", areas.name())
      .Field("num_areas", static_cast<int64_t>(areas.num_areas()));

  report.Key("query");
  w.BeginInlineArray();
  for (int ci = 0; ci < bound.size(); ++ci) {
    w.String(bound.constraint(ci).ToString());
  }
  w.EndArray();

  report.Field("p", solution.p())
      .Field("unassigned", static_cast<int64_t>(solution.num_unassigned()));
  report.Key("heterogeneity");
  WriteNumber(&w, solution.heterogeneity);
  report.Key("heterogeneity_before_local_search");
  WriteNumber(&w, solution.heterogeneity_before_local_search);
  report.Key("heterogeneity_improvement");
  WriteNumber(&w, solution.HeterogeneityImprovement());
  report.Field("feasibility_seconds", solution.feasibility_seconds)
      .Field("construction_seconds", solution.construction_seconds)
      .Field("local_search_seconds", solution.local_search_seconds)
      .Field("termination_reason",
             TerminationReasonName(solution.termination_reason))
      .Field("completed_construction_iterations",
             static_cast<int64_t>(solution.completed_construction_iterations))
      .Field("size_gini", metrics.size_gini)
      .Field("mean_compactness", metrics.mean_compactness);

  report.Key("feasibility_diagnostics");
  w.BeginInlineArray();
  for (const std::string& diag : solution.feasibility.diagnostics) {
    w.String(diag);
  }
  w.EndArray();

  std::vector<std::string> aggregate_keys;
  for (int ci = 0; ci < bound.size(); ++ci) {
    const Constraint& c = bound.constraint(ci);
    aggregate_keys.push_back(
        std::string(AggregateName(c.aggregate)) + "(" +
        (c.aggregate == Aggregate::kCount ? "*" : c.attribute) + ")");
  }

  report.Key("regions");
  w.BeginArray();
  for (size_t rid = 0; rid < solution.regions.size(); ++rid) {
    RegionStats stats(&bound);
    for (int32_t a : solution.regions[rid]) stats.Add(a);
    w.BeginInlineObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(rid));
    w.Key("size");
    w.Int(static_cast<int64_t>(solution.regions[rid].size()));
    w.Key("aggregates");
    w.BeginInlineObject();
    for (int ci = 0; ci < bound.size(); ++ci) {
      w.Key(aggregate_keys[static_cast<size_t>(ci)]);
      WriteNumber(&w, stats.AggregateValue(ci));
    }
    w.EndObject();
    w.Key("areas");
    w.BeginInlineArray();
    for (int32_t a : solution.regions[rid]) w.Int(a);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  report.Key("unassigned_areas");
  w.BeginInlineArray();
  for (int32_t a : solution.unassigned) w.Int(a);
  w.EndArray();

  return std::move(report).Finish() + "\n";
}

}  // namespace emp
