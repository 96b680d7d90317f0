// Micro-benchmarks for the geometry substrate: Voronoi tessellation is the
// dataset-synthesis cost, kNN queries drive cell construction.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "geometry/spatial_index.h"
#include "geometry/voronoi.h"

namespace {

std::vector<emp::Point> RandomSites(int n, uint64_t seed) {
  emp::Rng rng(seed);
  std::vector<emp::Point> sites;
  sites.reserve(static_cast<size_t>(n));
  double side = std::sqrt(static_cast<double>(n));
  for (int i = 0; i < n; ++i) {
    sites.push_back({rng.Uniform(0.01, side), rng.Uniform(0.01, side)});
  }
  return sites;
}

void BM_VoronoiBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto sites = RandomSites(n, 5);
  emp::Box frame;
  frame.Extend(emp::Point{0, 0});
  double side = std::sqrt(static_cast<double>(n));
  frame.Extend(emp::Point{side + 0.02, side + 0.02});
  for (auto _ : state) {
    auto d = emp::ComputeVoronoi(sites, frame);
    if (!d.ok()) std::abort();
    benchmark::DoNotOptimize(d->cells.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// 50,000 sites span several blocks, which run on the worker pool: real
// time is the number to read there, as the calling thread's CPU time
// misses the other workers.
BENCHMARK(BM_VoronoiBuild)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(50000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KNearest(benchmark::State& state) {
  auto sites = RandomSites(20000, 9);
  emp::SpatialGridIndex index(sites);
  emp::Rng rng(13);
  for (auto _ : state) {
    emp::Point q{rng.Uniform(0, 140), rng.Uniform(0, 140)};
    benchmark::DoNotOptimize(index.KNearest(q, 16));
  }
}
BENCHMARK(BM_KNearest);

void BM_PolygonCentroid(benchmark::State& state) {
  auto sites = RandomSites(2000, 3);
  emp::Box frame;
  frame.Extend(emp::Point{0, 0});
  frame.Extend(emp::Point{45.0, 45.0});
  auto d = emp::ComputeVoronoi(sites, frame);
  if (!d.ok()) std::abort();
  for (auto _ : state) {
    double sum = 0;
    for (const auto& cell : d->cells) sum += cell.Centroid().x;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PolygonCentroid);

}  // namespace
