#include "graph/contiguity_graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

namespace emp {

const int64_t ContiguityGraph::kEmptyOffsets[1] = {0};

ContiguityGraph& ContiguityGraph::operator=(const ContiguityGraph& other) {
  if (this == &other) return *this;
  offsets_store_ = other.offsets_store_;
  neighbors_store_ = other.neighbors_store_;
  backing_ = other.backing_;
  num_nodes_ = other.num_nodes_;
  num_edges_ = other.num_edges_;
  if (other.offsets_ == other.offsets_store_.data()) {
    // Owned graph: re-point the views at our own copies of the stores.
    offsets_ = offsets_store_.data();
    neighbors_ = neighbors_store_.data();
  } else {
    // External (or empty) graph: share the backing and raw pointers.
    offsets_ = other.offsets_;
    neighbors_ = other.neighbors_;
  }
  return *this;
}

Result<ContiguityGraph> ContiguityGraph::FromNeighborLists(
    std::vector<std::vector<int32_t>> neighbors) {
  const int32_t n = static_cast<int32_t>(neighbors.size());
  // Validate endpoints first.
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v : neighbors[static_cast<size_t>(u)]) {
      if (v < 0 || v >= n) {
        return Status::InvalidArgument(
            "contiguity edge endpoint out of range: " + std::to_string(v));
      }
      if (v == u) {
        return Status::InvalidArgument("self-loop at node " +
                                       std::to_string(u));
      }
    }
  }
  // Symmetrize and dedupe: bucket both directions of every listed edge by
  // endpoint, then sort, unique and compact each node's bucket in place.
  std::vector<int64_t> start(static_cast<size_t>(n) + 1, 0);
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v : neighbors[static_cast<size_t>(u)]) {
      ++start[static_cast<size_t>(u) + 1];
      ++start[static_cast<size_t>(v) + 1];
    }
  }
  for (int32_t u = 0; u < n; ++u) {
    start[static_cast<size_t>(u) + 1] += start[static_cast<size_t>(u)];
  }
  std::vector<int32_t> both(static_cast<size_t>(start.back()));
  std::vector<int64_t> fill(start.begin(), start.end() - 1);
  for (int32_t u = 0; u < n; ++u) {
    for (int32_t v : neighbors[static_cast<size_t>(u)]) {
      both[static_cast<size_t>(fill[static_cast<size_t>(u)]++)] = v;
      both[static_cast<size_t>(fill[static_cast<size_t>(v)]++)] = u;
    }
  }
  ContiguityGraph g;
  g.offsets_store_.resize(static_cast<size_t>(n) + 1);
  g.offsets_store_[0] = 0;
  int64_t degree_sum = 0;
  for (int32_t u = 0; u < n; ++u) {
    auto first = both.begin() + start[static_cast<size_t>(u)];
    auto last = both.begin() + start[static_cast<size_t>(u) + 1];
    std::sort(first, last);
    last = std::unique(first, last);
    // The write cursor never passes the read cursor.
    for (auto it = first; it != last; ++it) {
      both[static_cast<size_t>(degree_sum++)] = *it;
    }
    g.offsets_store_[static_cast<size_t>(u) + 1] = degree_sum;
  }
  both.resize(static_cast<size_t>(degree_sum));
  both.shrink_to_fit();
  g.neighbors_store_ = std::move(both);
  g.offsets_ = g.offsets_store_.data();
  g.neighbors_ = g.neighbors_store_.data();
  g.num_nodes_ = n;
  g.num_edges_ = degree_sum / 2;
  return g;
}

Result<ContiguityGraph> ContiguityGraph::FromEdges(
    int32_t n, const std::vector<std::pair<int32_t, int32_t>>& edges) {
  if (n < 0) {
    return Status::InvalidArgument("negative node count");
  }
  std::vector<std::vector<int32_t>> neighbors(static_cast<size_t>(n));
  for (const auto& [a, b] : edges) {
    if (a < 0 || a >= n || b < 0 || b >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    neighbors[static_cast<size_t>(a)].push_back(b);
  }
  return FromNeighborLists(std::move(neighbors));
}

Result<ContiguityGraph> ContiguityGraph::FromCsr(
    std::span<const int64_t> offsets, std::span<const int32_t> neighbors,
    std::shared_ptr<const void> backing) {
  if (offsets.empty()) {
    return Status::InvalidArgument("CSR offsets array is empty");
  }
  if (offsets.front() != 0) {
    return Status::InvalidArgument("CSR offsets must start at 0");
  }
  const size_t n = offsets.size() - 1;
  if (n > static_cast<size_t>(INT32_MAX)) {
    return Status::InvalidArgument("CSR node count exceeds int32 range");
  }
  if (offsets.back() != static_cast<int64_t>(neighbors.size())) {
    return Status::InvalidArgument(
        "CSR offsets end at " + std::to_string(offsets.back()) + " but " +
        std::to_string(neighbors.size()) + " neighbors were provided");
  }
  for (size_t u = 0; u < n; ++u) {
    const int64_t begin = offsets[u];
    const int64_t end = offsets[u + 1];
    if (begin > end) {
      return Status::InvalidArgument("CSR offsets not monotone at node " +
                                     std::to_string(u));
    }
    int32_t prev = -1;
    for (int64_t i = begin; i < end; ++i) {
      const int32_t v = neighbors[static_cast<size_t>(i)];
      if (v < 0 || v >= static_cast<int32_t>(n)) {
        return Status::InvalidArgument(
            "CSR neighbor out of range: " + std::to_string(v));
      }
      if (v == static_cast<int32_t>(u)) {
        return Status::InvalidArgument("CSR self-loop at node " +
                                       std::to_string(u));
      }
      if (v <= prev) {
        return Status::InvalidArgument(
            "CSR row not strictly sorted at node " + std::to_string(u));
      }
      prev = v;
    }
  }
  // Symmetry: every (u, v) needs its reverse edge. Rows are sorted, so
  // check via binary search; total cost O(E log d).
  for (size_t u = 0; u < n; ++u) {
    for (int64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const int32_t v = neighbors[static_cast<size_t>(i)];
      const auto row = neighbors.subspan(
          static_cast<size_t>(offsets[static_cast<size_t>(v)]),
          static_cast<size_t>(offsets[static_cast<size_t>(v) + 1] -
                              offsets[static_cast<size_t>(v)]));
      if (!std::binary_search(row.begin(), row.end(),
                              static_cast<int32_t>(u))) {
        return Status::InvalidArgument(
            "CSR edge " + std::to_string(u) + "->" + std::to_string(v) +
            " missing its reverse edge");
      }
    }
  }
  ContiguityGraph g;
  g.backing_ = std::move(backing);
  g.offsets_ = offsets.data();
  g.neighbors_ = neighbors.data();
  g.num_nodes_ = static_cast<int32_t>(n);
  g.num_edges_ = offsets.back() / 2;
  return g;
}

bool ContiguityGraph::HasEdge(int32_t a, int32_t b) const {
  if (a < 0 || b < 0 || a >= num_nodes_ || b >= num_nodes_) return false;
  const auto adj = NeighborsOf(a);
  return std::binary_search(adj.begin(), adj.end(), b);
}

double ContiguityGraph::AverageDegree() const {
  if (num_nodes_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(num_nodes_);
}

std::pair<ContiguityGraph, std::vector<int32_t>>
ContiguityGraph::InducedSubgraph(const std::vector<int32_t>& keep) const {
  std::unordered_map<int32_t, int32_t> old_to_new;
  old_to_new.reserve(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    old_to_new[keep[i]] = static_cast<int32_t>(i);
  }
  std::vector<std::vector<int32_t>> neighbors(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    for (int32_t v : NeighborsOf(keep[i])) {
      auto it = old_to_new.find(v);
      if (it != old_to_new.end()) {
        neighbors[i].push_back(it->second);
      }
    }
  }
  auto result = FromNeighborLists(std::move(neighbors));
  // Inputs come from a valid graph, so construction cannot fail.
  return {std::move(result).value(), keep};
}

}  // namespace emp
