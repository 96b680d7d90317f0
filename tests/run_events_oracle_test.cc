// Oracle for what a FaCT run reports to its observation sinks: the run
// journal, the anytime curve and the progress board. Four fixed runs —
// a plain solve, a 4-replica portfolio, a construction degraded by the
// fault hook and a tabu phase cut by it — are rendered to text and
// compared against golden files under tests/fixtures/golden/run_events/.
//
// What is pinned, and what is left out because it depends on timing:
//   - journal: every record's type and payload, with `ts_ms` and
//     `seconds` removed;
//   - curve: the (best_p, heterogeneity) sequence with consecutive
//     repeats collapsed, which drops the rate-limited timer ticks;
//   - board: the final snapshot's phase, best_p, heterogeneity and
//     replica table.
//
// The portfolio runs at 1 and at 4 threads. Both give the same journal
// (apart from the portfolio's own `threads` field), the same curve and
// the same final board: the portfolio publishes its best p once, after
// every replica has constructed.
//
// Regenerate the golden files with EMP_REGENERATE_GOLDEN=1 and review the
// diff.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/fact_solver.h"
#include "data/synthetic/dataset_catalog.h"
#include "obs/curve.h"
#include "obs/journal.h"
#include "obs/progress.h"

namespace emp {
namespace {

struct Observed {
  std::string journal;  // normalized JSONL
  std::string curve;    // one "best_p heterogeneity" line per change
  std::string board;    // final snapshot
  Solution solution;
};

std::string NormalizeJournal(const std::string& jsonl) {
  static const std::regex kTimestamp("\"ts_ms\": [0-9]+, ");
  static const std::regex kSeconds(", \"seconds\": [^,}]+");
  return std::regex_replace(std::regex_replace(jsonl, kTimestamp, ""),
                            kSeconds, "");
}

std::string FormatH(bool has, double h) {
  if (!has) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", h);
  return buffer;
}

Observed Observe(const AreaSet& areas, const SolverOptions& options,
                 const std::function<std::optional<TerminationReason>(
                     const SupervisionCheckpoint&)>& fault_hook = nullptr) {
  obs::ProgressBoard board;
  obs::RunJournal journal;
  obs::AnytimeCurve curve;
  RunContext ctx = MakeRunContext(options);
  ctx.fault_hook = fault_hook;
  ctx.progress_board = &board;
  ctx.journal = &journal;
  ctx.curve = &curve;
  FactSolver solver(&areas, {Constraint::Sum("TOTALPOP", 20000,
                                             kNoUpperBound)},
                    options);
  Result<Solution> result = solver.Solve(ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  Observed out;
  if (result.ok()) out.solution = *result;
  out.journal = NormalizeJournal(journal.ToJsonl());

  std::string last;
  for (const obs::AnytimeCurve::Sample& s : curve.Snapshot()) {
    std::string line = std::to_string(s.best_p) + " " +
                       FormatH(s.has_heterogeneity, s.heterogeneity) + "\n";
    if (line == last) continue;
    last = line;
    out.curve += line;
  }

  const obs::ProgressSnapshot snap = board.Read();
  std::ostringstream b;
  b << "phase=" << snap.phase << " best_p=" << snap.best_p
    << " heterogeneity=" << FormatH(snap.has_heterogeneity, snap.heterogeneity)
    << " replicas=" << snap.replicas << "\n";
  for (int32_t i = 0; i < snap.replicas; ++i) {
    const auto& r = snap.replica[static_cast<size_t>(i)];
    b << "replica " << i << " " << obs::ReplicaStateName(r.state) << " p="
      << r.p << "\n";
  }
  out.board = b.str();
  return out;
}

std::string Render(const Observed& o) {
  return "# journal\n" + o.journal + "# curve\n" + o.curve + "# board\n" +
         o.board;
}

void CompareToGolden(const std::string& actual, const std::string& name) {
  const std::string path = std::string(EMP_TEST_FIXTURE_DIR) +
                           "/golden/run_events/" + name + ".txt";
  if (std::getenv("EMP_REGENERATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteFile(path, actual).ok()) << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  auto expected = ReadFile(path);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(actual, *expected) << "golden mismatch for " << name
                               << "; rerun with EMP_REGENERATE_GOLDEN=1 if "
                                  "the change is intended";
}

const AreaSet& Instance() {
  static const AreaSet* areas = [] {
    auto made = synthetic::MakeDefaultDataset("events", 240, /*seed=*/11);
    if (!made.ok()) std::abort();
    return new AreaSet(std::move(made).value());
  }();
  return *areas;
}

SolverOptions BaseOptions() {
  SolverOptions options;
  options.seed = 2024;
  options.construction_iterations = 3;
  return options;
}

TEST(RunEventsOracleTest, PlainSolve) {
  Observed o = Observe(Instance(), BaseOptions());
  CompareToGolden(Render(o), "plain");
}

TEST(RunEventsOracleTest, PortfolioIsThreadCountInvariant) {
  SolverOptions options = BaseOptions();
  options.portfolio_replicas = 4;
  options.portfolio_threads = 1;
  Observed serial = Observe(Instance(), options);
  CompareToGolden(Render(serial), "portfolio");

  options.portfolio_threads = 4;
  Observed parallel = Observe(Instance(), options);
  static const std::regex kThreads("\"threads\": [0-9]+");
  EXPECT_EQ(std::regex_replace(parallel.journal, kThreads, "threads"),
            std::regex_replace(serial.journal, kThreads, "threads"));
  EXPECT_EQ(parallel.board, serial.board);
  EXPECT_EQ(parallel.solution.region_of, serial.solution.region_of);
  EXPECT_EQ(parallel.curve, serial.curve);
}

TEST(RunEventsOracleTest, ConstructionDegradedByFaultHook) {
  Observed o = Observe(Instance(), BaseOptions(),
                   [](const SupervisionCheckpoint& cp)
                       -> std::optional<TerminationReason> {
                     if (cp.phase == "construction" && cp.worker == 1 &&
                         cp.index >= 40) {
                       return TerminationReason::kFaultInjected;
                     }
                     return std::nullopt;
                   });
  EXPECT_EQ(o.solution.termination_reason, TerminationReason::kFaultInjected);
  CompareToGolden(Render(o), "construction_fault");
}

TEST(RunEventsOracleTest, TabuCutByFaultHook) {
  Observed o = Observe(Instance(), BaseOptions(),
                   [](const SupervisionCheckpoint& cp)
                       -> std::optional<TerminationReason> {
                     if (cp.phase == "tabu" && cp.index >= 25) {
                       return TerminationReason::kFaultInjected;
                     }
                     return std::nullopt;
                   });
  EXPECT_EQ(o.solution.termination_reason, TerminationReason::kFaultInjected);
  CompareToGolden(Render(o), "tabu_fault");
}

}  // namespace
}  // namespace emp
