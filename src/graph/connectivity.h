#ifndef EMP_GRAPH_CONNECTIVITY_H_
#define EMP_GRAPH_CONNECTIVITY_H_

#include <cstdint>
#include <vector>

#include "graph/contiguity_graph.h"

namespace emp {

/// Hot-path connectivity queries used by FaCT's Step 3 swaps and Tabu moves:
/// "does this region stay connected if area X leaves?" Reuses scratch
/// buffers across calls so a check costs one bounded BFS with no
/// allocations after warm-up. Not thread-safe; use one checker per thread.
class ConnectivityChecker {
 public:
  explicit ConnectivityChecker(const ContiguityGraph* graph);

  /// True if the nodes of `members` form a single connected component in
  /// the underlying graph. Empty sets are vacuously connected.
  bool IsConnected(const std::vector<int32_t>& members);

  /// True if `members` minus `removed` is connected (and non-empty sets
  /// remain connected). `removed` must be an element of `members`.
  /// This is the donor-region check in the paper's Step 3 and Tabu phase.
  bool IsConnectedWithout(const std::vector<int32_t>& members,
                          int32_t removed);

  /// True if `node` is an articulation point of the subgraph induced by
  /// `members` — equivalent to !IsConnectedWithout but named for readers.
  bool IsCutVertex(const std::vector<int32_t>& members, int32_t node) {
    return !IsConnectedWithout(members, node);
  }

  /// Articulation points of the subgraph induced by `members` (Tarjan's
  /// lowlink algorithm). Useful to precompute all immovable areas of a
  /// region at once; returns sorted node ids.
  std::vector<int32_t> ArticulationPoints(const std::vector<int32_t>& members);

  /// Allocation-free variant for cache reuse (after warm-up): writes the
  /// sorted articulation points into `*out` (cleared first) and returns the
  /// number of connected components of the induced subgraph (0 for an
  /// empty member set). Duplicate ids in `members` are tolerated and
  /// counted once. The Tabu articulation cache calls this once per
  /// (region, mutation) to both learn the cut vertices and verify the
  /// region is connected.
  int32_t ArticulationPointsInto(const std::vector<int32_t>& members,
                                 std::vector<int32_t>* out);

 private:
  /// Marks `members` in membership_ with a fresh epoch; O(|members|).
  void MarkMembers(const std::vector<int32_t>& members);
  bool IsMember(int32_t v) const {
    return membership_[static_cast<size_t>(v)] == epoch_;
  }

  const ContiguityGraph* graph_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> membership_;  // epoch tag per node
  std::vector<uint32_t> visited_;     // epoch tag per node
  std::vector<int32_t> bfs_queue_;
  // Tarjan scratch: discovery times, lowlinks and the DFS stack.
  struct TarjanFrame {
    int32_t node;
    int32_t parent;
    size_t next_neighbor;
    int32_t child_count;
    bool is_cut;
  };
  std::vector<int32_t> disc_;
  std::vector<int32_t> low_;
  std::vector<TarjanFrame> tarjan_stack_;
};

}  // namespace emp

#endif  // EMP_GRAPH_CONNECTIVITY_H_
