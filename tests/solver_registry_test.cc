#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/fact_solver.h"
#include "core/solver.h"
#include "test_util.h"

namespace emp {
namespace {

AreaSet Grid4x4() {
  return test::MakeAreaSet(
      test::GridGraph(4, 4),
      {{"POP", {10, 12, 11, 9, 10, 13, 12, 11, 9, 10, 11, 12, 13, 9, 10,
                11}}});
}

SolverSpec FactSpec(const AreaSet& areas) {
  SolverSpec spec;
  spec.solver = "fact";
  spec.areas = &areas;
  spec.query = "SUM(POP) >= 30";
  spec.options.seed = 7;
  return spec;
}

TEST(SolverRegistryTest, BuiltinsAreRegistered) {
  const std::vector<std::string> names = RegisteredSolverNames();
  for (const char* expected : {"fact", "maxp", "skater"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin solver '" << expected << "'";
  }
}

TEST(SolverRegistryTest, UnknownSolverNameListsRegistered) {
  const AreaSet areas = Grid4x4();
  SolverSpec spec = FactSpec(areas);
  spec.solver = "simplex";
  auto solver = CreateSolver(spec);
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
  EXPECT_NE(solver.status().message().find("unknown solver 'simplex'"),
            std::string::npos)
      << solver.status().message();
  EXPECT_NE(solver.status().message().find("fact"), std::string::npos);
}

TEST(SolverRegistryTest, NullAreasIsInvalidArgument) {
  SolverSpec spec;
  spec.solver = "fact";
  spec.query = "SUM(POP) >= 30";
  auto solver = CreateSolver(spec);
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegistryTest, FactSolvesThroughInterface) {
  const AreaSet areas = Grid4x4();
  auto solver = CreateSolver(FactSpec(areas));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  EXPECT_EQ((*solver)->name(), "fact");
  ASSERT_EQ((*solver)->constraints().size(), 1u);
  EXPECT_EQ((*solver)->constraints()[0],
            Constraint::Sum("POP", 30, kNoUpperBound));

  auto via_interface = (*solver)->Solve();
  ASSERT_TRUE(via_interface.ok()) << via_interface.status().ToString();

  // Same spec through the concrete type: identical assignment (the
  // interface adds no nondeterminism).
  SolverOptions options;
  options.seed = 7;
  auto direct = FactSolver::Create(
      &areas, {Constraint::Sum("POP", 30, kNoUpperBound)}, options);
  ASSERT_TRUE(direct.ok());
  auto expected = direct->Solve();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(via_interface->region_of, expected->region_of);
  EXPECT_EQ(via_interface->p(), expected->p());
}

TEST(SolverRegistryTest, QueryAppendsToPrebuiltConstraints) {
  const AreaSet areas = Grid4x4();
  SolverSpec spec = FactSpec(areas);
  spec.constraints = {Constraint::Count(1, 8)};
  auto solver = CreateSolver(spec);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_EQ((*solver)->constraints().size(), 2u);
  EXPECT_EQ((*solver)->constraints()[0], Constraint::Count(1, 8));
  EXPECT_EQ((*solver)->constraints()[1],
            Constraint::Sum("POP", 30, kNoUpperBound));
}

TEST(SolverRegistryTest, MalformedQueryFailsAtCreate) {
  const AreaSet areas = Grid4x4();
  SolverSpec spec = FactSpec(areas);
  spec.query = "FOO(POP) >= 30";
  auto solver = CreateSolver(spec);
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().message(), "unknown aggregate 'FOO'");
}

TEST(SolverRegistryTest, BaselinesSolveThroughInterface) {
  const AreaSet areas = Grid4x4();
  for (const char* name : {"maxp", "skater"}) {
    SolverSpec spec;
    spec.solver = name;
    spec.areas = &areas;
    spec.attribute = "POP";
    spec.threshold = 30;
    auto solver = CreateSolver(spec);
    ASSERT_TRUE(solver.ok()) << name << ": " << solver.status().ToString();
    EXPECT_EQ((*solver)->name(), name);
    ASSERT_EQ((*solver)->constraints().size(), 1u);
    EXPECT_EQ((*solver)->constraints()[0],
              Constraint::Sum("POP", 30, kNoUpperBound));
    auto solution = (*solver)->Solve();
    ASSERT_TRUE(solution.ok()) << name << ": "
                               << solution.status().ToString();
    EXPECT_GE(solution->p(), 1);
  }
}

TEST(SolverRegistryTest, BaselineRejectsQueryAndMissingThreshold) {
  const AreaSet areas = Grid4x4();
  SolverSpec spec;
  spec.solver = "maxp";
  spec.areas = &areas;
  spec.query = "SUM(POP) >= 30";  // baselines take attribute + threshold
  auto with_query = CreateSolver(spec);
  ASSERT_FALSE(with_query.ok());
  EXPECT_EQ(with_query.status().code(), StatusCode::kInvalidArgument);

  spec.query.clear();
  auto missing = CreateSolver(spec);  // no attribute/threshold either
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace emp
