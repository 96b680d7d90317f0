#include "graph/connectivity.h"

#include <algorithm>
#include <utility>

namespace emp {

ConnectivityChecker::ConnectivityChecker(const ContiguityGraph* graph)
    : graph_(graph) {
  const size_t n = static_cast<size_t>(graph_->num_nodes());
  membership_.assign(n, 0);
  visited_.assign(n, 0);
  disc_.assign(n, -1);
  low_.assign(n, -1);
  bfs_queue_.reserve(64);
}

void ConnectivityChecker::MarkMembers(const std::vector<int32_t>& members) {
  ++epoch_;
  if (epoch_ == 0) {
    // Wrapped around: reset tags once per ~4 billion calls.
    std::fill(membership_.begin(), membership_.end(), 0);
    std::fill(visited_.begin(), visited_.end(), 0);
    epoch_ = 1;
  }
  for (int32_t v : members) membership_[static_cast<size_t>(v)] = epoch_;
}

bool ConnectivityChecker::IsConnected(const std::vector<int32_t>& members) {
  if (members.size() <= 1) return true;
  MarkMembers(members);

  bfs_queue_.clear();
  bfs_queue_.push_back(members[0]);
  visited_[static_cast<size_t>(members[0])] = epoch_;
  size_t reached = 1;
  size_t head = 0;
  while (head < bfs_queue_.size()) {
    int32_t u = bfs_queue_[head++];
    for (int32_t v : graph_->NeighborsOf(u)) {
      if (IsMember(v) && visited_[static_cast<size_t>(v)] != epoch_) {
        visited_[static_cast<size_t>(v)] = epoch_;
        bfs_queue_.push_back(v);
        ++reached;
      }
    }
  }
  return reached == members.size();
}

bool ConnectivityChecker::IsConnectedWithout(
    const std::vector<int32_t>& members, int32_t removed) {
  if (members.size() <= 2) return true;  // 0 or 1 nodes remain.
  MarkMembers(members);
  membership_[static_cast<size_t>(removed)] = 0;  // Evict the removed node.

  // Start BFS from any remaining member.
  int32_t start = -1;
  for (int32_t v : members) {
    if (v != removed) {
      start = v;
      break;
    }
  }
  bfs_queue_.clear();
  bfs_queue_.push_back(start);
  visited_[static_cast<size_t>(start)] = epoch_;
  size_t reached = 1;
  size_t head = 0;
  while (head < bfs_queue_.size()) {
    int32_t u = bfs_queue_[head++];
    for (int32_t v : graph_->NeighborsOf(u)) {
      if (IsMember(v) && visited_[static_cast<size_t>(v)] != epoch_) {
        visited_[static_cast<size_t>(v)] = epoch_;
        bfs_queue_.push_back(v);
        ++reached;
      }
    }
  }
  return reached == members.size() - 1;
}

std::vector<int32_t> ConnectivityChecker::ArticulationPoints(
    const std::vector<int32_t>& members) {
  std::vector<int32_t> cuts;
  ArticulationPointsInto(members, &cuts);
  return cuts;
}

int32_t ConnectivityChecker::ArticulationPointsInto(
    const std::vector<int32_t>& members, std::vector<int32_t>* out) {
  std::vector<int32_t>& cuts = *out;
  cuts.clear();
  if (members.empty()) return 0;
  if (members.size() < 3) {
    // No articulation point is possible, but the component count still
    // matters to callers: deduplicate, then test adjacency for pairs.
    if (members.size() == 1 || members[0] == members[1]) return 1;
    for (int32_t nb : graph_->NeighborsOf(members[0])) {
      if (nb == members[1]) return 1;
    }
    return 2;
  }
  MarkMembers(members);
  for (int32_t v : members) {
    disc_[static_cast<size_t>(v)] = -1;
    low_[static_cast<size_t>(v)] = -1;
  }

  // Iterative Tarjan restricted to the induced subgraph. Handles each
  // connected component of `members` independently.
  std::vector<TarjanFrame>& stack = tarjan_stack_;
  stack.clear();
  int32_t timer = 0;
  int32_t components = 0;

  for (int32_t root : members) {
    if (disc_[static_cast<size_t>(root)] != -1) continue;
    ++components;
    stack.push_back({root, -1, 0, 0, false});
    disc_[static_cast<size_t>(root)] = low_[static_cast<size_t>(root)] =
        timer++;
    while (!stack.empty()) {
      TarjanFrame& f = stack.back();
      const auto& adj = graph_->NeighborsOf(f.node);
      if (f.next_neighbor < adj.size()) {
        int32_t v = adj[f.next_neighbor++];
        if (!IsMember(v) || v == f.parent) continue;
        if (disc_[static_cast<size_t>(v)] == -1) {
          disc_[static_cast<size_t>(v)] = low_[static_cast<size_t>(v)] =
              timer++;
          ++f.child_count;
          stack.push_back({v, f.node, 0, 0, false});
        } else {
          low_[static_cast<size_t>(f.node)] =
              std::min(low_[static_cast<size_t>(f.node)],
                       disc_[static_cast<size_t>(v)]);
        }
      } else {
        // Finished this node; propagate lowlink to the parent.
        const TarjanFrame done = f;
        stack.pop_back();
        if (!stack.empty()) {
          TarjanFrame& parent = stack.back();
          low_[static_cast<size_t>(parent.node)] =
              std::min(low_[static_cast<size_t>(parent.node)],
                       low_[static_cast<size_t>(done.node)]);
          if (parent.parent != -1 &&
              low_[static_cast<size_t>(done.node)] >=
                  disc_[static_cast<size_t>(parent.node)]) {
            parent.is_cut = true;
          }
          if (parent.parent == -1 && parent.child_count > 1) {
            parent.is_cut = true;
          }
          if (done.is_cut) cuts.push_back(done.node);
        } else {
          if (done.is_cut) cuts.push_back(done.node);
        }
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return components;
}

}  // namespace emp
