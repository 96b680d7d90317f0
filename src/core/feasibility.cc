#include "core/feasibility.h"

#include <algorithm>
#include <limits>

#include "common/str_util.h"
#include "core/run_events.h"
#include "obs/metrics.h"

namespace emp {

namespace {

std::string BoundStr(double v) {
  if (v == kNoLowerBound) return "-inf";
  if (v == kNoUpperBound) return "inf";
  return FormatDouble(v, 6);
}

}  // namespace

Result<FeasibilityReport> CheckFeasibility(const BoundConstraints& bound,
                                           PhaseSupervisor* supervisor) {
  const int32_t n = bound.areas().num_areas();
  if (n == 0) {
    return Status::InvalidArgument("feasibility check on an empty area set");
  }
  const int m = bound.size();

  FeasibilityReport report;
  report.is_invalid.assign(static_cast<size_t>(n), 0);
  report.is_seed.assign(static_cast<size_t>(n), 0);

  // Telemetry: counts flow through locals and flush at every return site,
  // so an interrupted scan still reports exactly what it covered.
  const RunContext* ctx =
      supervisor != nullptr ? supervisor->context() : nullptr;
  obs::MetricRegistry* metrics = ctx != nullptr ? ctx->metrics : nullptr;
  const RunEvents events = ctx != nullptr ? RunEvents(*ctx) : RunEvents();
  int64_t areas_scanned = 0;
  auto flush_metrics = [&](const FeasibilityReport& r) {
    events.Work(areas_scanned, n);
    if (metrics == nullptr) return;
    metrics->GetCounter("emp_feasibility_areas_scanned_total")
        ->Add(areas_scanned);
    metrics->GetGauge("emp_feasibility_invalid_areas")
        ->Set(static_cast<double>(r.invalid_areas.size()));
    metrics->GetGauge("emp_feasibility_seed_areas")
        ->Set(static_cast<double>(r.num_seed_areas));
    metrics->GetGauge("emp_feasibility_feasible")->Set(r.feasible ? 1.0 : 0.0);
  };

  // Single pass: per-constraint attribute aggregates + invalidity flags.
  std::vector<double> min_v(static_cast<size_t>(m),
                            std::numeric_limits<double>::infinity());
  std::vector<double> max_v(static_cast<size_t>(m),
                            -std::numeric_limits<double>::infinity());
  std::vector<double> sum_v(static_cast<size_t>(m), 0.0);

  for (int32_t a = 0; a < n; ++a) {
    if (supervisor != nullptr && supervisor->Check()) {
      flush_metrics(report);
      return report;
    }
    ++areas_scanned;
    // Live work meter, published at the supervisor's slow-path cadence so
    // huge scans stay cheap but /progress still moves.
    if ((areas_scanned & 1023) == 0) events.Work(areas_scanned, n);
    bool invalid = false;
    for (int ci = 0; ci < m; ++ci) {
      const Constraint& c = bound.constraint(ci);
      const double v = bound.ValueOf(ci, a);
      min_v[static_cast<size_t>(ci)] =
          std::min(min_v[static_cast<size_t>(ci)], v);
      max_v[static_cast<size_t>(ci)] =
          std::max(max_v[static_cast<size_t>(ci)], v);
      sum_v[static_cast<size_t>(ci)] += v;
      switch (c.aggregate) {
        case Aggregate::kMin:
          if (v < c.lower) invalid = true;
          break;
        case Aggregate::kMax:
          if (v > c.upper) invalid = true;
          break;
        case Aggregate::kSum:
          if (v > c.upper) invalid = true;
          break;
        case Aggregate::kAvg:
        case Aggregate::kCount:
          break;
      }
    }
    if (invalid) {
      report.is_invalid[static_cast<size_t>(a)] = 1;
      report.invalid_areas.push_back(a);
    }
  }
  report.num_valid_areas =
      n - static_cast<int64_t>(report.invalid_areas.size());

  // Constraint-level verdicts (rules (1)-(5) of §V-A).
  for (int ci = 0; ci < m; ++ci) {
    const Constraint& c = bound.constraint(ci);
    const double lo = min_v[static_cast<size_t>(ci)];
    const double total = sum_v[static_cast<size_t>(ci)];
    switch (c.aggregate) {
      case Aggregate::kAvg: {
        const double avg = total / n;
        if (avg < c.lower || avg > c.upper) {
          report.full_partition_possible = false;
          report.diagnostics.push_back(
              "dataset-wide AVG(" + c.attribute + ") = " +
              FormatDouble(avg, 3) + " lies outside [" + BoundStr(c.lower) +
              ", " + BoundStr(c.upper) +
              "]; no full partition can satisfy this constraint "
              "(Theorem 3) — some areas must stay unassigned");
        }
        break;
      }
      case Aggregate::kMin:
      case Aggregate::kMax: {
        // No area inside [l, u] means no region can ever satisfy the
        // extrema constraint (covers the paper's cases (a) and the mixed
        // below-l / above-u case).
        break;  // Verified via seed counts below.
      }
      case Aggregate::kSum: {
        if (lo > c.upper) {
          report.feasible = false;
          report.diagnostics.push_back(
              "every area's " + c.attribute + " exceeds SUM upper bound " +
              BoundStr(c.upper) + "; no region can satisfy " + c.ToString());
        }
        if (total < c.lower) {
          report.feasible = false;
          report.diagnostics.push_back(
              "dataset total of " + c.attribute + " (" +
              FormatDouble(total, 3) + ") is below SUM lower bound " +
              BoundStr(c.lower) + "; even one region over all areas fails " +
              c.ToString());
        }
        break;
      }
      case Aggregate::kCount: {
        if (static_cast<double>(n) < c.lower) {
          report.feasible = false;
          report.diagnostics.push_back(
              "dataset has " + std::to_string(n) +
              " areas, fewer than COUNT lower bound " + BoundStr(c.lower));
        }
        break;
      }
    }
  }

  // Seed marking among valid areas, piggybacked per the paper; also counts
  // seeds per extrema constraint to detect constraints nobody can anchor.
  const auto& extrema = bound.extrema_indices();
  report.seeds_per_extrema_constraint.assign(extrema.size(), 0);
  for (int32_t a = 0; a < n; ++a) {
    if (supervisor != nullptr && supervisor->Check()) {
      flush_metrics(report);
      return report;
    }
    if (report.is_invalid[static_cast<size_t>(a)]) continue;
    bool seed = extrema.empty();
    for (size_t e = 0; e < extrema.size(); ++e) {
      if (bound.IsSeedFor(extrema[e], a)) {
        seed = true;
        ++report.seeds_per_extrema_constraint[e];
      }
    }
    if (seed) {
      report.is_seed[static_cast<size_t>(a)] = 1;
      ++report.num_seed_areas;
    }
  }
  for (size_t e = 0; e < extrema.size(); ++e) {
    if (report.seeds_per_extrema_constraint[e] == 0) {
      report.feasible = false;
      report.diagnostics.push_back(
          "no valid area lies within the range of " +
          bound.constraint(extrema[e]).ToString() +
          "; no region can satisfy it");
    }
  }

  if (report.num_valid_areas == 0) {
    report.feasible = false;
    report.diagnostics.push_back(
        "all areas are invalid under the given constraints");
  }

  flush_metrics(report);
  return report;
}

}  // namespace emp
