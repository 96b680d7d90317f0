#ifndef EMP_BENCH_E2E_STATS_H_
#define EMP_BENCH_E2E_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace emp::e2e {

/// Quantile `q` in [0, 1] of `samples`, interpolating linearly between
/// order statistics; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Seed number `k` of stream `stream` under workload seed `seed`
/// (SplitMix64 finalizer, so neighbouring workload seeds give unrelated
/// solver seeds and arrival schedules).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t k);

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// What one workload run reports: the correct/attempted/failed triple,
/// every metric by name with its unit, and the first few failure
/// reasons for the log.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Add(std::string name, double value, std::string unit);
  /// One failed operation (solver error, validator rejection, non-2xx,
  /// failed/cancelled job, or a broken bit-identity gate).
  void Fail(const std::string& why);

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Per-operation latencies behind the latency metrics, for offline
  /// analysis (`run_benchmark.py --record` keeps them).
  std::vector<double> latency_samples_ms;

  std::string ToJson() const;
};

}  // namespace emp::e2e

#endif  // EMP_BENCH_E2E_STATS_H_
