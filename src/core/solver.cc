#include "core/solver.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "baseline/maxp_regions.h"
#include "baseline/skater.h"
#include "common/str_util.h"
#include "constraints/query_parser.h"
#include "core/fact_solver.h"

namespace emp {

namespace {

Result<std::unique_ptr<Solver>> MakeFact(const SolverSpec& spec) {
  std::vector<Constraint> constraints = spec.constraints;
  if (!spec.query.empty()) {
    EMP_ASSIGN_OR_RETURN(std::vector<Constraint> parsed,
                         ParseConstraints(spec.query));
    for (Constraint& c : parsed) constraints.push_back(std::move(c));
  }
  EMP_ASSIGN_OR_RETURN(
      FactSolver solver,
      FactSolver::Create(spec.areas, std::move(constraints), spec.options));
  return std::unique_ptr<Solver>(new FactSolver(std::move(solver)));
}

Status CheckSingleSumSpec(const SolverSpec& spec) {
  if (spec.attribute.empty() || !(spec.threshold > 0)) {
    return Status::InvalidArgument(
        "solver '" + spec.solver +
        "' needs attribute and a positive threshold "
        "(single SUM(attribute) >= threshold query)");
  }
  if (!spec.query.empty() || !spec.constraints.empty()) {
    return Status::InvalidArgument(
        "solver '" + spec.solver +
        "' supports only the single-SUM query; pass attribute + threshold "
        "instead of a constraint query");
  }
  return Status::OK();
}

Result<std::unique_ptr<Solver>> MakeMaxP(const SolverSpec& spec) {
  EMP_RETURN_IF_ERROR(CheckSingleSumSpec(spec));
  EMP_ASSIGN_OR_RETURN(
      MaxPRegionsSolver solver,
      MaxPRegionsSolver::Create(spec.areas, spec.attribute, spec.threshold,
                                spec.options));
  return std::unique_ptr<Solver>(new MaxPRegionsSolver(std::move(solver)));
}

Result<std::unique_ptr<Solver>> MakeSkater(const SolverSpec& spec) {
  EMP_RETURN_IF_ERROR(CheckSingleSumSpec(spec));
  EMP_ASSIGN_OR_RETURN(
      SkaterMaxPSolver solver,
      SkaterMaxPSolver::Create(spec.areas, spec.attribute, spec.threshold,
                               spec.options));
  return std::unique_ptr<Solver>(new SkaterMaxPSolver(std::move(solver)));
}

/// The registered solvers, sorted by name.
struct RegisteredSolver {
  std::string_view name;
  Result<std::unique_ptr<Solver>> (*make)(const SolverSpec&);
};
constexpr RegisteredSolver kSolvers[] = {
    {"fact", MakeFact}, {"maxp", MakeMaxP}, {"skater", MakeSkater}};

}  // namespace

Solver::~Solver() = default;

Result<Solution> Solver::Solve() { return Solve(MakeRunContext(options())); }

Result<std::unique_ptr<Solver>> CreateSolver(const SolverSpec& spec) {
  const auto* it = std::find_if(
      std::begin(kSolvers), std::end(kSolvers),
      [&](const RegisteredSolver& s) { return s.name == spec.solver; });
  if (it == std::end(kSolvers)) {
    return Status::NotFound("unknown solver '" + spec.solver +
                            "'; registered: " +
                            Join(RegisteredSolverNames(), ", "));
  }
  if (spec.areas == nullptr) {
    return Status::InvalidArgument("SolverSpec: null area set");
  }
  return it->make(spec);
}

std::vector<std::string> RegisteredSolverNames() {
  std::vector<std::string> names;
  for (const RegisteredSolver& s : kSolvers) names.emplace_back(s.name);
  return names;
}

}  // namespace emp
