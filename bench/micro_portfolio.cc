// Micro-benchmarks for the multi-start solver portfolio (DESIGN.md §10):
// N independent FaCT replicas across a worker pool, reduced
// deterministically. Alongside the google-benchmark registrations, a
// scaling table solves a >= 900-area instance with a fixed replica count
// at 1/2/4/8 portfolio threads and exports BENCH_portfolio.json via the
// EMP_BENCH_JSON_DIR hook; the table also cross-checks that every thread
// count returned the identical solution. Only the replicas sharing the
// largest constructed p run tabu, so the speedup is bounded by how many
// do. Set EMP_BENCH_SMOKE=1 for a CI-sized instance.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "constraints/constraint.h"
#include "core/portfolio.h"
#include "core/solution.h"
#include "data/area_set.h"
#include "data/synthetic/dataset_catalog.h"
#include "harness/table.h"

namespace {

using emp::AreaSet;
using emp::Constraint;
using emp::PortfolioSolver;
using emp::Solution;
using emp::SolverOptions;

AreaSet BenchAreas(int32_t num_areas) {
  auto areas = emp::synthetic::MakeDefaultDataset("portfolio_bench",
                                                  num_areas, /*seed=*/17);
  if (!areas.ok()) std::abort();
  return std::move(areas).value();
}

std::vector<Constraint> BenchConstraints() {
  return {Constraint::Sum("TOTALPOP", 20000, emp::kNoUpperBound)};
}

SolverOptions BenchOptions(int replicas, int threads) {
  SolverOptions options;
  options.seed = 4242;
  options.portfolio_replicas = replicas;
  options.portfolio_threads = threads;
  options.construction_iterations = 2;
  // Bound the local-search tail so one table run stays in seconds even on
  // a single core; the work per replica is identical at every thread
  // count, which is all the scaling measurement needs.
  options.tabu_max_iterations = 2000;
  return options;
}

void BM_PortfolioSolve(benchmark::State& state) {
  AreaSet areas = BenchAreas(300);
  std::vector<Constraint> cs = BenchConstraints();
  SolverOptions options =
      BenchOptions(/*replicas=*/4, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    PortfolioSolver solver(&areas, cs, options);
    auto sol = solver.Solve();
    if (!sol.ok()) std::abort();
    benchmark::DoNotOptimize(sol->p());
  }
}
BENCHMARK(BM_PortfolioSolve)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The acceptance measurement: wall-clock for the same 8-replica
/// portfolio at 1/2/4/8 threads (best of kReps runs each), plus a
/// determinism cross-check — every row must report the same p and
/// heterogeneity or the reduction is broken.
void RunScalingTable() {
  const bool smoke = std::getenv("EMP_BENCH_SMOKE") != nullptr;
  const int32_t num_areas = smoke ? 441 : 961;
  const int replicas = 8;
  const int kReps = smoke ? 1 : 3;

  AreaSet areas = BenchAreas(num_areas);
  std::vector<Constraint> cs = BenchConstraints();

  emp::bench::TablePrinter table(
      "Portfolio scaling: " + std::to_string(replicas) + " replicas on " +
          std::to_string(num_areas) + " areas, wall-clock vs portfolio "
          "threads (identical solution required at every thread count)",
      {"threads", "replicas", "seconds", "speedup", "p", "heterogeneity"});

  double base_seconds = 0.0;
  int32_t reference_p = -1;
  double reference_het = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    double best_seconds = 0.0;
    Solution solution;
    for (int rep = 0; rep < kReps; ++rep) {
      PortfolioSolver solver(&areas, cs, BenchOptions(replicas, threads));
      emp::Stopwatch timer;
      auto sol = solver.Solve();
      const double seconds = timer.ElapsedSeconds();
      if (!sol.ok()) std::abort();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
      solution = std::move(sol).value();
    }
    if (threads == 1) {
      base_seconds = best_seconds;
      reference_p = solution.p();
      reference_het = solution.heterogeneity;
    } else if (solution.p() != reference_p ||
               solution.heterogeneity != reference_het) {
      std::fprintf(stderr,
                   "FATAL: portfolio result changed at %d threads "
                   "(p %d vs %d)\n",
                   threads, solution.p(), reference_p);
      std::abort();
    }
    const double speedup =
        best_seconds > 0.0 ? base_seconds / best_seconds : 0.0;
    table.AddRow({std::to_string(threads), std::to_string(replicas),
                  emp::bench::Secs(best_seconds),
                  emp::FormatDouble(speedup, 2) + "x",
                  std::to_string(solution.p()),
                  emp::FormatDouble(solution.heterogeneity, 1)});
  }
  emp::bench::EmitTable("portfolio", table);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunScalingTable();
  return 0;
}
