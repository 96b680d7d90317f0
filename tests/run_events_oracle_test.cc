// Oracle for what a run reports to its observation sinks: the run
// journal, the anytime curve and the progress board. Six fixed runs — a
// plain FaCT solve, a 4-replica portfolio, a construction degraded by the
// fault hook, a tabu phase cut by it, and the MP-regions and SKATER
// baselines on the same map and seed — are rendered to text and compared
// against golden files under tests/fixtures/golden/run_events/.
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
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/solver.h"
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

Observed Observe(const SolverSpec& spec,
                 const std::function<std::optional<TerminationReason>(
                     const SupervisionCheckpoint&)>& fault_hook = nullptr) {
  obs::ProgressBoard board;
  obs::RunJournal journal;
  obs::AnytimeCurve curve;
  RunContext ctx = MakeRunContext(spec.options);
  ctx.fault_hook = fault_hook;
  ctx.progress_board = &board;
  ctx.journal = &journal;
  ctx.curve = &curve;
  Result<std::unique_ptr<Solver>> solver = CreateSolver(spec);
  if (!solver.ok()) {
    ADD_FAILURE() << solver.status().ToString();
    return {};
  }
  Result<Solution> result = (*solver)->Solve(ctx);
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

/// SUM(TOTALPOP) >= 20000 on Instance(): prebuilt constraints for FaCT,
/// attribute + threshold for the baselines.
SolverSpec Spec(const std::string& solver,
                const SolverOptions& options = BaseOptions()) {
  SolverSpec spec;
  spec.solver = solver;
  spec.areas = &Instance();
  spec.options = options;
  if (solver == "fact") {
    spec.constraints = {Constraint::Sum("TOTALPOP", 20000, kNoUpperBound)};
  } else {
    spec.attribute = "TOTALPOP";
    spec.threshold = 20000;
  }
  return spec;
}

/// The journal's record types, phase_begin/phase_end qualified by phase.
std::vector<std::string> JournalShape(const std::string& journal) {
  static const std::regex kRecord(
      "\"type\": \"([a-z_]+)\"(, \"phase\": \"([a-z]+)\")?");
  std::vector<std::string> shape;
  std::istringstream lines(journal);
  for (std::string line; std::getline(lines, line);) {
    std::smatch m;
    if (!std::regex_search(line, m, kRecord)) continue;
    shape.push_back(m[3].matched ? m[1].str() + " " + m[3].str()
                                 : m[1].str());
  }
  return shape;
}

TEST(RunEventsOracleTest, PlainSolve) {
  Observed o = Observe(Spec("fact"));
  CompareToGolden(Render(o), "plain");
}

TEST(RunEventsOracleTest, BaselinesReportLikeFact) {
  // Every solver runs the same phases inside the same bracket.
  const std::vector<std::string> shape = {
      "run_start",
      "phase_begin feasibility",
      "phase_end feasibility",
      "phase_begin construction",
      "phase_end construction",
      "phase_begin tabu",
      "phase_end tabu",
      "run_end"};
  static const std::regex kRunEndP("\"run_end\".*\"p\": ([0-9]+)");
  for (const std::string solver : {"fact", "maxp", "skater"}) {
    Observed o = Observe(Spec(solver));
    EXPECT_EQ(JournalShape(o.journal), shape) << solver;
    std::smatch m;
    ASSERT_TRUE(std::regex_search(o.journal, m, kRunEndP)) << solver;
    EXPECT_GE(o.solution.p(), 1) << solver;
    EXPECT_EQ(m[1].str(), std::to_string(o.solution.p())) << solver;
    // The curve gets p before its first heterogeneity.
    std::istringstream curve(o.curve);
    for (int32_t p; curve >> p;) {
      std::string h;
      curve >> h;
      if (h == "null") continue;
      EXPECT_GE(p, 1) << solver << ": H " << h << " before any p";
      break;
    }
    if (solver != "fact") CompareToGolden(Render(o), solver);
  }
}

TEST(RunEventsOracleTest, PortfolioIsThreadCountInvariant) {
  SolverOptions options = BaseOptions();
  options.portfolio_replicas = 4;
  options.portfolio_threads = 1;
  Observed serial = Observe(Spec("fact", options));
  CompareToGolden(Render(serial), "portfolio");

  options.portfolio_threads = 4;
  Observed parallel = Observe(Spec("fact", options));
  static const std::regex kThreads("\"threads\": [0-9]+");
  EXPECT_EQ(std::regex_replace(parallel.journal, kThreads, "threads"),
            std::regex_replace(serial.journal, kThreads, "threads"));
  EXPECT_EQ(parallel.board, serial.board);
  EXPECT_EQ(parallel.solution.region_of, serial.solution.region_of);
  EXPECT_EQ(parallel.curve, serial.curve);
}

TEST(RunEventsOracleTest, ConstructionDegradedByFaultHook) {
  Observed o = Observe(
      Spec("fact"),
      [](const SupervisionCheckpoint& cp) -> std::optional<TerminationReason> {
        if (cp.phase == "construction" && cp.worker == 1 && cp.index >= 40) {
          return TerminationReason::kFaultInjected;
        }
        return std::nullopt;
      });
  EXPECT_EQ(o.solution.termination_reason, TerminationReason::kFaultInjected);
  CompareToGolden(Render(o), "construction_fault");
}

TEST(RunEventsOracleTest, TabuCutByFaultHook) {
  Observed o = Observe(
      Spec("fact"),
      [](const SupervisionCheckpoint& cp) -> std::optional<TerminationReason> {
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
