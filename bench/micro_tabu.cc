// Micro-benchmarks for the Tabu neighborhood engine (DESIGN.md §8): the
// per-iteration cost of maintaining the candidate-move set is what the
// incremental engine exists to cut. Alongside the google-benchmark
// registrations, a table compares full-rebuild vs incremental per-move
// cost on block-partitioned grids, plus the per-move cost of selecting
// the move (VisitInOrder), and exports BENCH_tabu.json via the
// EMP_BENCH_JSON_DIR hook (acceptance: >= 3x at n >= 900 areas). A
// SUM-bound row makes most candidates inadmissible, as under the paper's
// enriched queries; under COUNT(1, n) no candidate is constraint-rejected.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/neighborhood.h"
#include "core/local_search/objective.h"
#include "core/partition.h"
#include "data/area_set.h"
#include "data/attribute_table.h"
#include "graph/connectivity.h"
#include "harness/table.h"

namespace {

using emp::AreaSet;
using emp::ArticulationCache;
using emp::BoundConstraints;
using emp::CandidateMove;
using emp::ConnectivityChecker;
using emp::Constraint;
using emp::ContiguityGraph;
using emp::HeterogeneityObjective;
using emp::Partition;
using emp::TabuNeighborhood;

/// Deterministic attribute value of grid area `a`.
double GridValue(int32_t a) { return static_cast<double>((a * 37 + 11) % 23); }

/// Rook-adjacency side x side grid with a deterministic value pattern.
AreaSet GridAreaSet(int32_t side) {
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t r = 0; r < side; ++r) {
    for (int32_t c = 0; c < side; ++c) {
      int32_t id = r * side + c;
      if (c + 1 < side) edges.push_back({id, id + 1});
      if (r + 1 < side) edges.push_back({id, id + side});
    }
  }
  auto graph = ContiguityGraph::FromEdges(side * side, edges);
  if (!graph.ok()) std::abort();
  std::vector<double> values;
  values.reserve(static_cast<size_t>(side) * side);
  for (int32_t a = 0; a < side * side; ++a) values.push_back(GridValue(a));
  emp::AttributeTable table(side * side);
  if (!table.AddColumn("s", std::move(values)).ok()) std::abort();
  auto areas = AreaSet::CreateWithoutGeometry(
      "bench_grid", std::move(*graph), std::move(table), "s");
  if (!areas.ok()) std::abort();
  return std::move(areas).value();
}

/// Calls `visit(block, area)` for every area of the side x side grid cut
/// into block_rows x block_cols rectangles, `block` counting from 0.
template <typename Visit>
void ForEachBlockArea(int32_t side, int32_t block_rows, int32_t block_cols,
                      Visit&& visit) {
  int32_t block = 0;
  for (int32_t r = 0; r < side; r += block_rows) {
    for (int32_t c = 0; c < side; c += block_cols, ++block) {
      for (int32_t row = r; row < r + block_rows && row < side; ++row) {
        for (int32_t col = c; col < c + block_cols && col < side; ++col) {
          visit(block, row * side + col);
        }
      }
    }
  }
}

/// COUNT(1, n), or with `sum_bound` SUM(s) >= the smallest block sum: the
/// blocks start feasible, the lightest cannot donate at all, and the rest
/// only their lightest members.
std::vector<Constraint> BenchConstraints(int32_t side, int32_t block_rows,
                                         int32_t block_cols, bool sum_bound) {
  if (!sum_bound) return {Constraint::Count(1, side * side)};
  std::vector<double> sums;
  ForEachBlockArea(side, block_rows, block_cols,
                   [&](int32_t block, int32_t a) {
                     if (static_cast<size_t>(block) >= sums.size()) {
                       sums.push_back(0.0);
                     }
                     sums[static_cast<size_t>(block)] += GridValue(a);
                   });
  return {Constraint::Sum("s", *std::min_element(sums.begin(), sums.end()),
                          emp::kNoUpperBound)};
}

/// One bench instance: side x side grid partitioned into block_rows x
/// block_cols rectangular regions. Max-P solutions have MANY regions (the
/// objective maximizes p), so small blocks are the representative regime:
/// a move mutates 2 of ~p regions and the incremental engine skips the
/// rest. Two-row stripes (block_rows=2, block_cols=side) model the
/// opposite extreme of few, elongated regions.
struct Instance {
  Instance(int32_t side, int32_t block_rows, int32_t block_cols,
           bool sum_bound = false)
      : areas(GridAreaSet(side)),
        bound(std::move(BoundConstraints::Create(
                            &areas, BenchConstraints(side, block_rows,
                                                     block_cols, sum_bound)))
                  .value()),
        partition(&bound),
        connectivity(&areas.graph()) {
    std::vector<int32_t> rids;
    ForEachBlockArea(side, block_rows, block_cols, [&](int32_t block,
                                                       int32_t a) {
      if (static_cast<size_t>(block) >= rids.size()) {
        rids.push_back(partition.CreateRegion());
      }
      partition.Assign(a, rids[static_cast<size_t>(block)]);
    });
  }

  AreaSet areas;
  BoundConstraints bound;
  Partition partition;
  ConnectivityChecker connectivity;
};

void BM_NeighborhoodFullRebuild(benchmark::State& state) {
  Instance inst(static_cast<int32_t>(state.range(0)), 2,
                static_cast<int32_t>(state.range(0)));
  HeterogeneityObjective objective(inst.partition);
  TabuNeighborhood nbhd(&inst.partition, &objective, &inst.connectivity);
  int64_t scored = 0;
  for (auto _ : state) {
    scored = nbhd.Rebuild();
    benchmark::DoNotOptimize(scored);
  }
  state.SetItemsProcessed(state.iterations() * scored);
}
BENCHMARK(BM_NeighborhoodFullRebuild)->Arg(20)->Arg(30)->Arg(40);

void BM_NeighborhoodIncrementalUpdate(benchmark::State& state) {
  // Ping-pongs one stripe-corner area between its two adjacent stripes;
  // each iteration times apply + OnMoveApplied, the whole per-move cost of
  // keeping the candidate set current.
  const int32_t side = static_cast<int32_t>(state.range(0));
  Instance inst(side, 2, side);
  HeterogeneityObjective objective(inst.partition);
  TabuNeighborhood nbhd(&inst.partition, &objective, &inst.connectivity);
  nbhd.Rebuild();
  const int32_t area = 2 * side;  // first area of stripe 1, column 0
  const int32_t r0 = inst.partition.RegionOf(0);
  const int32_t r1 = inst.partition.RegionOf(area);
  int32_t from = r1;
  int32_t to = r0;
  for (auto _ : state) {
    objective.ApplyMove(area, from, to);
    inst.partition.Move(area, to);
    benchmark::DoNotOptimize(nbhd.OnMoveApplied(area, from, to));
    std::swap(from, to);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborhoodIncrementalUpdate)->Arg(20)->Arg(30)->Arg(40);

void BM_DonorCheckBfs(benchmark::State& state) {
  Instance inst(30, 2, 30);
  const int32_t rid = inst.partition.RegionOf(0);
  const auto& members = inst.partition.region(rid).areas;
  int32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.connectivity.IsConnectedWithout(
        members, members[static_cast<size_t>(i)]));
    i = (i + 1) % static_cast<int32_t>(members.size());
  }
}
BENCHMARK(BM_DonorCheckBfs);

void BM_DonorCheckArticulationCache(benchmark::State& state) {
  Instance inst(30, 2, 30);
  ArticulationCache cache(&inst.partition, &inst.connectivity);
  const int32_t rid = inst.partition.RegionOf(0);
  const auto& members = inst.partition.region(rid).areas;
  int32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.DonorKeepsContiguity(
        rid, members[static_cast<size_t>(i)]));
    i = (i + 1) % static_cast<int32_t>(members.size());
  }
}
BENCHMARK(BM_DonorCheckArticulationCache);

/// Walks a realistic Tabu move sequence and times, per applied move, the
/// incremental update against a from-scratch rebuild of a second engine
/// tracking the same partition, plus the selection of the move itself
/// (VisitInOrder over the admissible heap). This is the acceptance
/// measurement: speedup = full_rebuild_cost / incremental_cost per
/// iteration. Rows report the MEDIAN of kReps independent walks so one
/// scheduler hiccup cannot shift the committed-baseline comparison.
void RunSpeedupTable() {
  const bool smoke = std::getenv("EMP_BENCH_SMOKE") != nullptr;
  emp::bench::TablePrinter table(
      "Tabu neighborhood maintenance: full rebuild vs incremental "
      "(per applied move, 3x3-block regions, median of reps)",
      {"areas", "constraint", "regions", "moves", "full_us", "incremental_us",
       "select_us", "speedup"});
  struct Row {
    int32_t side;  // -1: warm-up pass (caches, page faults), discarded
    bool sum_bound;
  };
  // side=500 is the 250k-area catalog entry for local/full runs; the
  // SUM-bound row sits near the 2k catalog entry's size.
  for (const Row& row : {Row{-1, false}, Row{21, false}, Row{30, false},
                         Row{42, false}, Row{48, true}, Row{500, false}}) {
    const int32_t side = row.side;
    const bool warmup = side < 0;
    const char* constraint = row.sum_bound ? "SUM" : "COUNT";
    if (!warmup && smoke && side >= 500) {
      // The large row is skipped under EMP_BENCH_SMOKE but still emitted,
      // with "-" cells, so the table keeps its full shape: the regression
      // ratchet treats "-" as "missing measurement" (skip with warning),
      // never as a zero to compare against.
      table.AddRow({std::to_string(side * side), constraint, "-", "-", "-",
                    "-", "-", "-"});
      continue;
    }
    Instance inst(warmup ? 21 : side, 3, 3, row.sum_bound);
    HeterogeneityObjective objective(inst.partition);
    TabuNeighborhood incremental(&inst.partition, &objective,
                                 &inst.connectivity);
    TabuNeighborhood full(&inst.partition, &objective, &inst.connectivity);
    incremental.Rebuild();

    // The big grid pays ~ms per full rebuild; fewer moves and reps keep
    // the local run in seconds while the medians stay stable.
    const int32_t kMoves = side >= 500 ? 40 : 200;
    const int kReps = warmup ? 1 : (side >= 500 ? 3 : 5);
    std::vector<double> full_us_reps;
    std::vector<double> incr_us_reps;
    std::vector<double> select_us_reps;
    int32_t applied_total = 0;
    int32_t last_area = -1;
    emp::Stopwatch timer;
    for (int rep = 0; rep < kReps; ++rep) {
      // Reps continue walking the same evolving partition: each walk is a
      // fresh sample of per-move cost on a realistic trajectory.
      int32_t applied = 0;
      double incr_seconds = 0.0;
      double full_seconds = 0.0;
      double select_seconds = 0.0;
      while (applied < kMoves) {
        // First admissible candidate that is not an immediate ping-pong
        // (the heap holds admissible candidates only).
        std::optional<CandidateMove> pick;
        timer.Reset();
        incremental.VisitInOrder([&](const CandidateMove& mv) {
          if (mv.area == last_area) return true;
          pick = mv;
          return false;
        });
        select_seconds += timer.ElapsedSeconds();
        if (!pick.has_value()) break;
        const CandidateMove mv = *pick;
        objective.ApplyMove(mv.area, mv.from, mv.to);
        inst.partition.Move(mv.area, mv.to);
        timer.Reset();
        incremental.OnMoveApplied(mv.area, mv.from, mv.to);
        incr_seconds += timer.ElapsedSeconds();
        timer.Reset();
        full.Rebuild();
        full_seconds += timer.ElapsedSeconds();
        last_area = mv.area;
        ++applied;
      }
      if (applied == 0) break;
      full_us_reps.push_back(full_seconds * 1e6 / applied);
      incr_us_reps.push_back(incr_seconds * 1e6 / applied);
      select_us_reps.push_back(select_seconds * 1e6 / applied);
      applied_total += applied;
    }
    if (warmup) continue;
    const double full_us = emp::bench::Median(full_us_reps);
    const double incr_us = emp::bench::Median(incr_us_reps);
    const double speedup = incr_us > 0 ? full_us / incr_us : 0;
    table.AddRow({std::to_string(side * side), constraint,
                  std::to_string(inst.partition.NumRegions()),
                  std::to_string(applied_total),
                  emp::FormatDouble(full_us, 2),
                  emp::FormatDouble(incr_us, 2),
                  emp::FormatDouble(emp::bench::Median(select_us_reps), 2),
                  emp::FormatDouble(speedup, 1) + "x"});
  }
  emp::bench::EmitTable("tabu", table);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunSpeedupTable();
  return 0;
}
