#include "baseline/skater.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "core/partition.h"
#include "core/run_events.h"
#include "core/solve_phases.h"
#include "graph/dsu.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace emp {

SkaterMaxPSolver::SkaterMaxPSolver(const AreaSet* areas,
                                   std::string attribute, double threshold,
                                   SolverOptions options)
    : areas_(areas),
      attribute_(std::move(attribute)),
      threshold_(threshold),
      options_(options),
      constraints_({Constraint::Sum(attribute_, threshold_, kNoUpperBound)}) {}

Result<SkaterMaxPSolver> SkaterMaxPSolver::Create(const AreaSet* areas,
                                                  std::string attribute,
                                                  double threshold,
                                                  SolverOptions options) {
  EMP_RETURN_IF_ERROR(ValidateSolverOptions(options));
  if (areas == nullptr) {
    return Status::InvalidArgument("SkaterMaxPSolver: null area set");
  }
  if (!(threshold > 0)) {
    return Status::InvalidArgument(
        "SkaterMaxPSolver: threshold must be positive, got " +
        FormatDouble(threshold, 6));
  }
  // Binding validates that `attribute` exists in the attribute table.
  Result<BoundConstraints> bound = BoundConstraints::Create(
      areas, {Constraint::Sum(attribute, threshold, kNoUpperBound)});
  if (!bound.ok()) return bound.status();
  return SkaterMaxPSolver(areas, std::move(attribute), threshold, options);
}

namespace {

struct TreeEdge {
  int32_t a;
  int32_t b;
  double weight;
};

/// Cuts the dissimilarity MST of `areas` bottom-up into the most subtrees
/// whose SUM(attribute) reaches `threshold`, written into `partition`.
/// A trip before regions materialize leaves `partition` empty: cut flags
/// may reflect half-accumulated subtree masses, so there is no feasible
/// partial to return.
Status CutSpanningTree(const AreaSet& areas, const std::string& attribute,
                       double threshold, PhaseSupervisor* supervisor,
                       Partition* partition) {
  obs::MetricRegistry* metrics = supervisor->context()->metrics;
  const ContiguityGraph& graph = areas.graph();
  const std::span<const double> d = areas.dissimilarity();
  const int32_t n = graph.num_nodes();

  // --- Kruskal MST (forest) weighted by dissimilarity gaps. -----------
  std::vector<TreeEdge> edges;
  edges.reserve(static_cast<size_t>(graph.num_edges()));
  for (int32_t a = 0; a < n; ++a) {
    if (supervisor->Check()) break;
    for (int32_t b : graph.NeighborsOf(a)) {
      if (b > a) {
        edges.push_back({a, b,
                         std::fabs(d[static_cast<size_t>(a)] -
                                   d[static_cast<size_t>(b)])});
      }
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const TreeEdge& x, const TreeEdge& y) {
              return x.weight < y.weight;
            });
  DisjointSetUnion dsu(n);
  std::vector<std::vector<int32_t>> tree(static_cast<size_t>(n));
  int64_t mst_edges = 0;
  for (const TreeEdge& e : edges) {
    if (dsu.Union(e.a, e.b)) {
      tree[static_cast<size_t>(e.a)].push_back(e.b);
      tree[static_cast<size_t>(e.b)].push_back(e.a);
      ++mst_edges;
    }
  }
  obs::Add(obs::GetCounter(metrics, "emp_skater_mst_edges_total"), mst_edges);

  // --- Bottom-up max-p cutting of each tree component. -----------------
  // Iterative post-order: accumulate the attribute over un-cut subtree
  // mass; when a node's accumulated mass reaches the threshold, cut it off
  // as a region root and stop propagating its mass upward.
  const auto values = *areas.attributes().ColumnByName(attribute);
  std::vector<int32_t> parent(static_cast<size_t>(n), -2);  // -2 unvisited
  std::vector<double> acc(static_cast<size_t>(n), 0.0);
  std::vector<char> is_cut_root(static_cast<size_t>(n), 0);
  std::vector<int32_t> preorder;
  preorder.reserve(static_cast<size_t>(n));

  for (int32_t root = 0; root < n; ++root) {
    if (parent[static_cast<size_t>(root)] != -2) continue;
    // DFS collecting post-order.
    std::vector<int32_t> stack = {root};
    parent[static_cast<size_t>(root)] = -1;
    std::vector<int32_t> local_order;
    while (!stack.empty()) {
      int32_t v = stack.back();
      stack.pop_back();
      local_order.push_back(v);
      for (int32_t c : tree[static_cast<size_t>(v)]) {
        if (parent[static_cast<size_t>(c)] == -2) {
          parent[static_cast<size_t>(c)] = v;
          stack.push_back(c);
        }
      }
    }
    // Reverse preorder == valid post-order for accumulation.
    for (auto it = local_order.rbegin(); it != local_order.rend(); ++it) {
      if (supervisor->Check()) break;
      int32_t v = *it;
      acc[static_cast<size_t>(v)] += values[static_cast<size_t>(v)];
      if (acc[static_cast<size_t>(v)] >= threshold) {
        is_cut_root[static_cast<size_t>(v)] = 1;
      } else if (parent[static_cast<size_t>(v)] >= 0) {
        acc[static_cast<size_t>(parent[static_cast<size_t>(v)])] +=
            acc[static_cast<size_t>(v)];
      }
    }
    preorder.insert(preorder.end(), local_order.begin(), local_order.end());
  }

  if (supervisor->tripped()) return Status::OK();

  // --- Materialize regions: nearest cut-root ancestor owns each node;
  // component leftovers (root not cut) attach to one cut child's region.
  obs::Counter* cut_regions =
      obs::GetCounter(metrics, "emp_skater_cut_regions_total");
  obs::Counter* leftover_attachments =
      obs::GetCounter(metrics, "emp_skater_leftover_attachments_total");
  std::vector<int32_t> region_of_node(static_cast<size_t>(n), -1);
  // Top-down over the stored preorder (parents precede children).
  for (int32_t v : preorder) {
    if (is_cut_root[static_cast<size_t>(v)]) {
      int32_t rid = partition->CreateRegion();
      region_of_node[static_cast<size_t>(v)] = rid;
      obs::Add(cut_regions);
    } else if (parent[static_cast<size_t>(v)] >= 0) {
      region_of_node[static_cast<size_t>(v)] =
          region_of_node[static_cast<size_t>(parent[static_cast<size_t>(v)])];
    }
  }
  // Leftover pass: nodes with region -1 whose component has regions join
  // an adjacent region through their tree neighborhood.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int32_t v : preorder) {
      // Leftover attachments only add mass to regions already at the SUM
      // threshold, so stopping anywhere keeps every region feasible.
      if (supervisor->Check()) break;
      if (region_of_node[static_cast<size_t>(v)] != -1) continue;
      for (int32_t nb : tree[static_cast<size_t>(v)]) {
        if (region_of_node[static_cast<size_t>(nb)] != -1) {
          region_of_node[static_cast<size_t>(v)] =
              region_of_node[static_cast<size_t>(nb)];
          obs::Add(leftover_attachments);
          changed = true;
          break;
        }
      }
    }
  }
  for (int32_t v = 0; v < n; ++v) {
    if (region_of_node[static_cast<size_t>(v)] != -1) {
      partition->Assign(v, region_of_node[static_cast<size_t>(v)]);
    }
  }
  if (partition->NumRegions() == 0) {
    return Status::Infeasible(
        "no connected component reaches the SUM threshold");
  }
  return Status::OK();
}

}  // namespace

Result<Solution> SkaterMaxPSolver::Solve(const RunContext& ctx) {
  return RunBracketed(areas_, options_, ctx, [&]() -> Result<Solution> {
    EMP_ASSIGN_OR_RETURN(BoundConstraints bound,
                         BoundConstraints::Create(areas_, constraints_));
    obs::ScopedSpan solve_span(ctx.trace, "solve");
    Solution solution;
    Partition partition(&bound);
    EMP_RETURN_IF_ERROR(FeasibilityPhase(bound, ctx, &solution));
    if (solution.termination_reason == TerminationReason::kConverged) {
      EMP_RETURN_IF_ERROR(Construct(ctx, &partition, &solution));
      EMP_RETURN_IF_ERROR(TabuPhase(options_, ctx, /*worker=*/0, &partition,
                                    &solution));
    }
    FillAssignmentFromPartition(partition, &solution);
    return solution;
  });
}

Status SkaterMaxPSolver::Construct(const RunContext& ctx,
                                   Partition* partition,
                                   Solution* solution) const {
  RunEvents(ctx).ConstructionBegin(/*iterations=*/1, /*threads=*/1);
  Stopwatch construction_timer;
  {
    obs::ScopedSpan construction_span(ctx.trace, "skater.construction");
    PhaseSupervisor supervisor(&ctx, "skater");
    EMP_RETURN_IF_ERROR(
        CutSpanningTree(*areas_, attribute_, threshold_, &supervisor,
                        partition));
    if (auto reason = supervisor.tripped()) {
      solution->termination_reason = *reason;
    } else {
      solution->completed_construction_iterations = 1;
    }
  }
  solution->construction_seconds = construction_timer.ElapsedSeconds();
  EndConstruction(ctx, *partition, solution);
  return Status::OK();
}

}  // namespace emp
