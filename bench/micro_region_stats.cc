// Micro-benchmarks for RegionStats — the innermost data structure on the
// solver hot path (every swap/move evaluation hits it). Alongside the
// google-benchmark registrations, a layout table races the packed SoA
// evaluation plan (constraints/constraint_set.h EvalPlan) against the
// pre-refactor per-constraint AoS layout (kept verbatim below as
// LegacyRegionStats) on catalog-sized maps, and exports
// BENCH_region_stats.json via the EMP_BENCH_JSON_DIR hook. The two
// implementations are cross-checked before timing — on every add probe,
// and on every remove-side query after a run of removals that takes out
// extremum holders; a disagreement aborts the binary. EMP_BENCH_SMOKE=1
// keeps the sweep CI-sized: the 250k-area row is emitted with "-" cells so
// the table keeps its shape and the regression ratchet treats the row as
// "missing", never as zero.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "constraints/region_stats.h"
#include "data/synthetic/dataset_catalog.h"
#include "harness/table.h"

namespace {

const emp::AreaSet& Map() {
  static const emp::AreaSet* kMap = [] {
    auto areas = emp::synthetic::MakeDefaultDataset("bench", 2000, 7);
    if (!areas.ok()) std::abort();
    return new emp::AreaSet(std::move(areas).value());
  }();
  return *kMap;
}

std::vector<emp::Constraint> BenchConstraints() {
  return {
      emp::Constraint::Min("POP16UP", emp::kNoLowerBound, 3000),
      emp::Constraint::Avg("EMPLOYED", 1500, 3500),
      emp::Constraint::Sum("TOTALPOP", 20000, emp::kNoUpperBound),
  };
}

const emp::BoundConstraints& Bound() {
  static const emp::BoundConstraints* kBound = [] {
    auto bc = emp::BoundConstraints::Create(&Map(), BenchConstraints());
    if (!bc.ok()) std::abort();
    return new emp::BoundConstraints(std::move(bc).value());
  }();
  return *kBound;
}

void BM_RegionStatsAdd(benchmark::State& state) {
  const int64_t region_size = state.range(0);
  for (auto _ : state) {
    emp::RegionStats stats(&Bound());
    for (int32_t a = 0; a < region_size; ++a) stats.Add(a);
    benchmark::DoNotOptimize(stats.count());
  }
  state.SetItemsProcessed(state.iterations() * region_size);
}
BENCHMARK(BM_RegionStatsAdd)->Arg(8)->Arg(64)->Arg(512);

void BM_RegionStatsSatisfiesAllAfterAdd(benchmark::State& state) {
  emp::RegionStats stats(&Bound());
  for (int32_t a = 0; a < 128; ++a) stats.Add(a);
  int32_t probe = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats.SatisfiesAllAfterAdd(probe));
    probe = (probe + 1) % 2000;
  }
}
BENCHMARK(BM_RegionStatsSatisfiesAllAfterAdd);

void BM_RegionStatsAddRemoveCycle(benchmark::State& state) {
  emp::RegionStats stats(&Bound());
  std::vector<int32_t> members;
  for (int32_t a = 0; a < 256; ++a) {
    stats.Add(a);
    members.push_back(a);
  }
  int32_t probe = 1000;
  for (auto _ : state) {
    stats.Add(probe);
    stats.Remove(probe, members);
    probe = 1000 + (probe + 1) % 512;
  }
}
BENCHMARK(BM_RegionStatsAddRemoveCycle);

void BM_RegionStatsMergePreview(benchmark::State& state) {
  emp::RegionStats a(&Bound());
  emp::RegionStats b(&Bound());
  for (int32_t i = 0; i < 128; ++i) a.Add(i);
  for (int32_t i = 128; i < 256; ++i) b.Add(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.SatisfiesAllAfterMerge(b));
  }
}
BENCHMARK(BM_RegionStatsMergePreview);

// ---------------------------------------------------------------------------
// LegacyRegionStats: the pre-SoA layout, verbatim from the repo history —
// running sums and multisets indexed per constraint, with a per-call
// switch on the aggregate kind and an AttributeTable lookup through
// BoundConstraints::ValueOf for every constraint. This is the baseline
// the EvalPlan layout is ratcheted against, and the multiset reference the
// remove-side queries are checked against.
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

class LegacyRegionStats {
 public:
  explicit LegacyRegionStats(const emp::BoundConstraints* bound)
      : bound_(bound) {
    const size_t m = static_cast<size_t>(bound_->size());
    sums_.assign(m, 0.0);
    values_.resize(m);
  }

  void Add(int32_t area) {
    ++count_;
    for (int ci = 0; ci < bound_->size(); ++ci) {
      const emp::Constraint& c = bound_->constraint(ci);
      const double v = bound_->ValueOf(ci, area);
      switch (c.family()) {
        case emp::ConstraintFamily::kExtrema:
          values_[static_cast<size_t>(ci)].insert(v);
          break;
        case emp::ConstraintFamily::kCentrality:
        case emp::ConstraintFamily::kCounting:
          sums_[static_cast<size_t>(ci)] += v;
          break;
      }
    }
  }

  void Remove(int32_t area) {
    --count_;
    for (int ci = 0; ci < bound_->size(); ++ci) {
      const emp::Constraint& c = bound_->constraint(ci);
      const double v = bound_->ValueOf(ci, area);
      switch (c.family()) {
        case emp::ConstraintFamily::kExtrema: {
          auto& ms = values_[static_cast<size_t>(ci)];
          ms.erase(ms.find(v));
          break;
        }
        case emp::ConstraintFamily::kCentrality:
        case emp::ConstraintFamily::kCounting:
          sums_[static_cast<size_t>(ci)] -= v;
          break;
      }
    }
  }

  int32_t count() const { return count_; }

  double AggregateAfterAdd(int ci, int32_t area) const {
    const emp::Constraint& c = bound_->constraint(ci);
    const double v = bound_->ValueOf(ci, area);
    switch (c.aggregate) {
      case emp::Aggregate::kMin: {
        double cur = ExtremaValue(ci);
        return count_ == 0 ? v : (v < cur ? v : cur);
      }
      case emp::Aggregate::kMax: {
        double cur = ExtremaValue(ci);
        return count_ == 0 ? v : (v > cur ? v : cur);
      }
      case emp::Aggregate::kAvg:
        return (sums_[static_cast<size_t>(ci)] + v) / (count_ + 1);
      case emp::Aggregate::kSum:
        return sums_[static_cast<size_t>(ci)] + v;
      case emp::Aggregate::kCount:
        return static_cast<double>(count_ + 1);
    }
    return kNaN;
  }

  bool SatisfiesAllAfterAdd(int32_t area) const {
    for (int ci = 0; ci < bound_->size(); ++ci) {
      if (!bound_->constraint(ci).Contains(AggregateAfterAdd(ci, area))) {
        return false;
      }
    }
    return true;
  }

  double AggregateAfterRemove(int ci, int32_t area) const {
    const emp::Constraint& c = bound_->constraint(ci);
    const double v = bound_->ValueOf(ci, area);
    switch (c.aggregate) {
      case emp::Aggregate::kMin:
      case emp::Aggregate::kMax: {
        if (count_ <= 1) return kNaN;
        // Removing v from the multiset; the new extremum is the next
        // element when v is (one of) the current extrema.
        const auto& ms = values_[static_cast<size_t>(ci)];
        if (c.aggregate == emp::Aggregate::kMin) {
          if (v > *ms.begin()) return *ms.begin();
          return *std::next(ms.begin());
        }
        if (v < *ms.rbegin()) return *ms.rbegin();
        return *std::next(ms.rbegin());
      }
      case emp::Aggregate::kAvg:
        return count_ <= 1
                   ? kNaN
                   : (sums_[static_cast<size_t>(ci)] - v) / (count_ - 1);
      case emp::Aggregate::kSum:
        return sums_[static_cast<size_t>(ci)] - v;
      case emp::Aggregate::kCount:
        return static_cast<double>(count_ - 1);
    }
    return kNaN;
  }

  bool SatisfiesAllAfterRemove(int32_t area) const {
    if (count_ <= 1) return false;
    for (int ci = 0; ci < bound_->size(); ++ci) {
      if (!bound_->constraint(ci).Contains(AggregateAfterRemove(ci, area))) {
        return false;
      }
    }
    return true;
  }

 private:
  double ExtremaValue(int ci) const {
    const auto& ms = values_[static_cast<size_t>(ci)];
    if (ms.empty()) return kNaN;
    return bound_->constraint(ci).aggregate == emp::Aggregate::kMin
               ? *ms.begin()
               : *ms.rbegin();
  }

  const emp::BoundConstraints* bound_;
  int32_t count_ = 0;
  std::vector<double> sums_;
  std::vector<std::multiset<double>> values_;
};

/// Times SatisfiesAllAfterAdd — the delta evaluation every construction
/// swap and Tabu candidate issues — over a probe sweep of the whole map,
/// for both layouts on the same region contents. Median of kReps passes.
void RunLayoutTable() {
  const bool smoke = std::getenv("EMP_BENCH_SMOKE") != nullptr;
  emp::bench::TablePrinter table(
      "RegionStats delta evaluation: packed SoA plan vs legacy AoS layout "
      "(SatisfiesAllAfterAdd, median of reps; agree = identical verdicts)",
      {"areas", "region", "ops", "legacy_ns", "soa_ns", "legacy/soa",
       "agree"});
  for (int32_t num_areas : {10000, 250000}) {
    if (smoke && num_areas > 10000) {
      table.AddRow({std::to_string(num_areas), "-", "-", "-", "-", "-",
                    "-"});
      continue;
    }
    auto areas_or =
        emp::synthetic::MakeDefaultDataset("bench_layout", num_areas, 7);
    if (!areas_or.ok()) std::abort();
    emp::AreaSet areas = std::move(areas_or).value();
    // All five aggregate kinds — the enriched suite the EvalPlan groups
    // are laid out for (legacy pays one switch + table lookup per kind).
    auto bc = emp::BoundConstraints::Create(
        &areas, {
                    emp::Constraint::Min("POP16UP", emp::kNoLowerBound, 3000),
                    emp::Constraint::Max("POP16UP", 10, emp::kNoUpperBound),
                    emp::Constraint::Avg("EMPLOYED", 1500, 3500),
                    emp::Constraint::Sum("TOTALPOP", 20000,
                                         emp::kNoUpperBound),
                    emp::Constraint::Count(1, 1 << 28),
                });
    if (!bc.ok()) std::abort();
    const emp::BoundConstraints bound = std::move(bc).value();

    // Same region contents in both layouts: every 8th area.
    emp::RegionStats soa(&bound);
    LegacyRegionStats legacy(&bound);
    for (int32_t a = 0; a < num_areas; a += 8) {
      soa.Add(a);
      legacy.Add(a);
    }

    // Cross-check before timing: both layouts must agree on every probe.
    bool agree = true;
    for (int32_t a = 0; a < num_areas; ++a) {
      if (soa.SatisfiesAllAfterAdd(a) != legacy.SatisfiesAllAfterAdd(a)) {
        agree = false;
        break;
      }
    }
    // Remove side, on copies so the timed region keeps its contents: take
    // out the MIN holder, the MAX holder and an arbitrary member in turn,
    // and after each removal compare every remaining member's preview.
    if (agree) {
      emp::RegionStats soa_rm = soa;
      LegacyRegionStats legacy_rm = legacy;
      std::vector<int32_t> members;
      for (int32_t a = 0; a < num_areas; a += 8) members.push_back(a);
      const auto same = [](double x, double y) {
        return x == y || (std::isnan(x) && std::isnan(y));
      };
      for (int step = 0; step < 48 && agree; ++step) {
        auto victim = members.begin() +
                      static_cast<std::ptrdiff_t>(
                          (static_cast<size_t>(step) * 7919) % members.size());
        if (step % 3 != 2) {
          const int ci = step % 3;  // 0: MIN(POP16UP), 1: MAX(POP16UP).
          const auto by_value = [&](int32_t x, int32_t y) {
            return bound.ValueOf(ci, x) < bound.ValueOf(ci, y);
          };
          victim = ci == 0
                       ? std::min_element(members.begin(), members.end(),
                                          by_value)
                       : std::max_element(members.begin(), members.end(),
                                          by_value);
        }
        const int32_t area = *victim;
        members.erase(victim);
        soa_rm.Remove(area, members);
        legacy_rm.Remove(area);
        for (int32_t a : members) {
          for (int ci = 0; ci < bound.size() && agree; ++ci) {
            agree = same(soa_rm.AggregateAfterRemove(ci, a),
                         legacy_rm.AggregateAfterRemove(ci, a));
          }
          if (!agree || soa_rm.SatisfiesAllAfterRemove(a) !=
                            legacy_rm.SatisfiesAllAfterRemove(a)) {
            agree = false;
            break;
          }
        }
      }
    }
    if (!agree) {
      std::fprintf(stderr,
                   "FATAL: SoA and legacy RegionStats disagree at %d areas\n",
                   num_areas);
      std::abort();
    }

    // Enough sweeps over the map that one rep is far above timer noise.
    const int kReps = 5;
    const int32_t sweeps = std::max(1, 400000 / num_areas);
    const int32_t kOps = sweeps * num_areas;
    std::vector<double> legacy_ns;
    std::vector<double> soa_ns;
    emp::Stopwatch timer;
    for (int rep = 0; rep < kReps + 1; ++rep) {
      // Rep 0 is a warm-up pass (page faults, caches); it is discarded.
      int64_t sink = 0;
      timer.Reset();
      for (int32_t s = 0; s < sweeps; ++s) {
        for (int32_t a = 0; a < num_areas; ++a) {
          sink += legacy.SatisfiesAllAfterAdd(a) ? 1 : 0;
        }
      }
      const double legacy_s = timer.ElapsedSeconds();
      timer.Reset();
      for (int32_t s = 0; s < sweeps; ++s) {
        for (int32_t a = 0; a < num_areas; ++a) {
          sink += soa.SatisfiesAllAfterAdd(a) ? 1 : 0;
        }
      }
      const double soa_s = timer.ElapsedSeconds();
      benchmark::DoNotOptimize(sink);
      if (rep == 0) continue;
      legacy_ns.push_back(legacy_s * 1e9 / kOps);
      soa_ns.push_back(soa_s * 1e9 / kOps);
    }
    const double legacy_med = emp::bench::Median(legacy_ns);
    const double soa_med = emp::bench::Median(soa_ns);
    const double ratio = soa_med > 0 ? legacy_med / soa_med : 0.0;
    table.AddRow({std::to_string(num_areas), std::to_string(soa.count()),
                  std::to_string(kOps), emp::FormatDouble(legacy_med, 1),
                  emp::FormatDouble(soa_med, 1),
                  emp::FormatDouble(ratio, 2) + "x", "yes"});
  }
  emp::bench::EmitTable("region_stats", table);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunLayoutTable();
  return 0;
}
