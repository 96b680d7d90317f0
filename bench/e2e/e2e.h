#ifndef EMP_BENCH_E2E_E2E_H_
#define EMP_BENCH_E2E_E2E_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/solution.h"
#include "core/solver_options.h"
#include "data/area_set.h"
#include "obs/metrics.h"
#include "spans.h"
#include "stats.h"

namespace emp::e2e {

/// The paper's enriched query (§VII): one constraint of each family.
inline constexpr char kEnrichedQuery[] =
    "MIN(POP16UP) <= 3k; AVG(EMPLOYED) IN [1.5k,3.5k]; SUM(TOTALPOP) >= 20k";
inline constexpr char kSumQuery[] = "SUM(TOTALPOP) >= 20k";

/// Workload seed of the quality sets: the solves p_mean and het_mean
/// average over use the same solver seeds on every run, so the two metrics
/// change only when the solver's results do.
inline constexpr uint64_t kQualitySeed = 0;

/// Whether set-up runs again, given the seconds each run so far took: at
/// least 3 times and 0.5 s, at most 10 times. setup_s is their median.
inline bool SetupAgain(const std::vector<double>& seconds) {
  double total = 0;
  for (double s : seconds) total += s;
  return seconds.size() < 10 && (seconds.size() < 3 || total < 0.5);
}

/// One workload run, as the command line asked for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Small images and a few operations per workload (the ctest smoke).
  bool smoke = false;
  /// Directory holding the packed `<dataset>.emp` images.
  std::string inputs;
  /// Chrome-trace output of a traced run; empty = not written.
  std::string trace_out;
};

/// Path of the packed image of `dataset` ("2k", "50k", ...); smoke runs
/// substitute `smoke_dataset`.
std::string ImagePath(const RunConfig& config, const std::string& dataset,
                      const std::string& smoke_dataset);

/// Binds a packed image the way the service and `emp solve` do: sniffed by
/// LoadAreaSetAuto, digest re-verified.
Result<AreaSet> BindImage(const std::string& path);

/// Size of a file in bytes (0 when missing).
double FileBytes(const std::string& path);

/// Solver seed `k` of `stream` under workload seed `seed`: below 2^32 so
/// the JSON wire format (numbers are doubles) carries it exactly.
uint64_t SolverSeed(uint64_t seed, uint64_t stream, uint64_t k);

/// FactSolver::Create and Solve with the sinks JobManager gives every job
/// attached: a fresh trace buffer, progress board, journal and anytime
/// curve, and the run-wide `metrics`. The call is a "solver" span of op
/// `op` in `spans`, and the library's own spans (solve, feasibility,
/// construction.*, tabu, tabu.epoch) are imported under it.
Result<Solution> SolveTraced(const AreaSet& areas,
                             const std::vector<Constraint>& constraints,
                             const SolverOptions& options,
                             obs::MetricRegistry* metrics,
                             SpanRecorder* spans, int64_t op);

/// Adds the per-layer metrics of the traced solves `ops`: times from the
/// spans (means over the ops), counts from the library's emp_construction_*
/// and emp_tabu_* counters in `metrics`, and bench.unattributed_share (self
/// time of the benchmark's "op" spans ÷ op time).
void AddSolveLayers(const std::vector<Span>& spans,
                    const std::vector<int64_t>& ops,
                    obs::MetricRegistry* metrics, Report* report);

/// Bit-identity: same p, same heterogeneity bits, same region_of.
bool SameSolution(const Solution& a, const Solution& b);

/// Runs ValidateAssignment; returns "" when valid, else the first reason.
std::string ValidationError(const AreaSet& areas,
                            const std::vector<Constraint>& constraints,
                            const std::vector<int32_t>& region_of,
                            int32_t expected_p);

/// tabu-2k, construct-50k, oneshot-250k.
bool IsInProcessWorkload(const std::string& name);
void RunInProcess(const RunConfig& config, Report* report);
std::vector<std::string> InProcessDatasets(const std::string& workload);

/// service-open.
void RunServiceOpen(const RunConfig& config, Report* report);
std::vector<std::string> ServiceDatasets();

}  // namespace emp::e2e

#endif  // EMP_BENCH_E2E_E2E_H_
