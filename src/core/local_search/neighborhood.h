#ifndef EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_
#define EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/local_search/objective.h"
#include "core/partition.h"
#include "graph/connectivity.h"

namespace emp {

/// Per-region articulation-point cache for the local-search donor
/// contiguity check (DESIGN.md §8). Tabu decides the verdict of many
/// candidates donating from the same region; instead of one BFS per
/// candidate (ConnectivityChecker::IsConnectedWithout), the cache runs
/// Tarjan's articulation-point pass once per (region, mutation) and
/// answers every subsequent query for that region with a binary search.
/// A region's entry is invalidated when the region mutates (the caller
/// invalidates both endpoints of every applied move).
class ArticulationCache {
 public:
  /// Both pointers must outlive the cache.
  ArticulationCache(const Partition* partition,
                    ConnectivityChecker* connectivity);

  /// True iff region `from` stays connected when `area` leaves it —
  /// exactly ConnectivityChecker::IsConnectedWithout(region.areas, area),
  /// including the degenerate cases (<= 2 members always survive; a
  /// disconnected region falls back to the BFS, since removing a node can
  /// reconnect it).
  bool DonorKeepsContiguity(int32_t from, int32_t area);

  /// Marks a region's cached articulation set stale after it mutated.
  void Invalidate(int32_t region_id);

  /// Marks every region stale.
  void InvalidateAll();

  /// Queries answered from a valid entry / entries recomputed.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  struct Entry {
    bool valid = false;
    bool connected = true;
    std::vector<int32_t> cuts;  // sorted articulation points
  };

  const Partition* partition_;
  ConnectivityChecker* connectivity_;
  std::vector<Entry> entries_;  // indexed by raw region id
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// One scored boundary move: `area` leaves region `from` for the adjacent
/// region `to`, changing the objective by exactly `delta`.
struct CandidateMove {
  double delta = 0.0;
  int32_t area = -1;
  int32_t from = -1;
  int32_t to = -1;
};

/// Canonical total order on candidates: (delta, area, to) ascending. Every
/// (area, to) pair appears at most once in a neighborhood, so this order is
/// strict — Tabu's move selection is therefore fully deterministic and
/// independent of enumeration order, which is what lets the incremental
/// engine reproduce the full-rebuild engine bit-for-bit.
inline bool CandidateOrderLess(const CandidateMove& a,
                               const CandidateMove& b) {
  if (a.delta != b.delta) return a.delta < b.delta;
  if (a.area != b.area) return a.area < b.area;
  return a.to < b.to;
}

/// Incremental candidate-move set for Tabu search (DESIGN.md §8).
///
/// Maintains, for every assigned area of a donor-capable region (size > 1),
/// the scored moves to each distinct adjacent foreign region together with
/// each move's admissibility verdict: MoveSatisfiesConstraints plus donor
/// contiguity. A candidate `area: r -> t` is split into two halves:
///  * the receiver half, cached on its Target: Objective::ReceiverTerm
///    (area, t) and whether t's stats accept the area;
///  * the donor half, cached once per area: Objective::DonorTerm(area, r),
///    whether r's stats survive the removal, and — asked lazily, only when
///    both constraint halves pass — whether r stays contiguous.
/// delta = receiver − donor term; admissible = both constraint halves and
/// contiguity. A half changes only when its region mutates, so after a
/// move `area: from -> to` the members of `from` and `to` re-decide their
/// donor half and reuse every receiver half into an untouched region,
/// while foreign areas re-decide only their receiver halves into `from` or
/// `to`, in place unless they border the moved area (the only areas whose
/// set of target regions can change). A candidate counts as scored when
/// either half is re-decided.
///
/// Selection runs over an indexed min-heap holding one node per area: its
/// best admissible candidate in the canonical (delta, area, to) order.
/// VisitInOrder walks it with a small cursor heap that, after yielding a
/// candidate, offers the heap children of its node and the area's next
/// candidate, so it yields every admissible candidate in canonical order.
///
/// Invariants (pinned by neighborhood_test and the golden trajectory test):
///  * after any sequence of OnMoveApplied calls, the candidate set and
///    every verdict equal what Rebuild() would produce from scratch,
///    deltas included bit-for-bit;
///  * a cached donor half is current for every area that has candidates,
///    because every mutation of a region re-scores all of its boundary
///    members;
///  * VisitInOrder yields exactly the admissible candidates, in canonical
///    order.
class TabuNeighborhood {
 public:
  /// One candidate of an area's list: the target region, its cached
  /// receiver half, and the exact objective delta and verdict.
  struct Target {
    double delta;     // receiver − the area's donor term
    double receiver;  // Objective::ReceiverTerm(area, to)
    int32_t to;
    bool add_ok;      // `to` satisfies every constraint with the area
    bool admissible;
  };

  /// `partition`, `objective` and `connectivity` must outlive the
  /// neighborhood; the objective must track the same partition. With
  /// `verify_cut_cache` every donor-contiguity verdict is cross-checked
  /// against the exact BFS; a disagreement is reported by status().
  TabuNeighborhood(const Partition* partition, const Objective* objective,
                   ConnectivityChecker* connectivity,
                   bool verify_cut_cache = false);

  /// Rebuilds every per-area candidate list, every verdict and the heap
  /// from scratch (the articulation cache included). Returns the number
  /// of candidates scored (objective evaluations).
  int64_t Rebuild();

  /// Incremental update after `area` moved `from` -> `to` (partition and
  /// objective already mutated). Re-scores only the halves those two
  /// regions feed and returns the number of candidates scored.
  int64_t OnMoveApplied(int32_t area, int32_t from, int32_t to);

  /// Number of admissible candidate moves (the ones VisitInOrder yields),
  /// counted over every area's list.
  int64_t live_candidates() const;
  bool empty() const { return heap_.empty(); }

  /// Admissibility of `mv` under the current partition, decided afresh
  /// (constraints plus the articulation cache). Tabu re-checks its chosen
  /// move with this; it must agree with the stored verdict.
  bool IsAdmissible(const CandidateMove& mv);

  /// Every scored candidate of `area`, admissible or not, in no
  /// particular order.
  const std::vector<Target>& targets_of(int32_t area) const {
    return area_targets_[static_cast<size_t>(area)];
  }

  /// Inadmissible verdicts decided by rescoring so far (carried-over
  /// verdicts are not decided again and not counted).
  int64_t inadmissible_verdicts() const { return inadmissible_verdicts_; }

  /// The donor-contiguity cache behind the verdicts.
  const ArticulationCache& cut_cache() const { return cut_cache_; }

  /// OK unless `verify_cut_cache` caught the cache disagreeing with BFS.
  const Status& status() const { return status_; }

  /// Visits admissible candidates in canonical order until `visit` returns
  /// false (or the set is exhausted). Visiting consumes nothing. `visit`
  /// must not mutate the partition or objective; apply the chosen move
  /// after VisitInOrder returns, then call OnMoveApplied.
  template <typename Visitor>
  void VisitInOrder(Visitor&& visit) {
    cursors_.clear();
    if (!heap_.empty()) PushCursor(heap_.front(), 0);
    while (!cursors_.empty()) {
      std::pop_heap(cursors_.begin(), cursors_.end(), CursorGreater());
      const Cursor c = cursors_.back();
      cursors_.pop_back();
      if (!visit(c.move)) break;
      ExpandCursor(c);
    }
  }

 private:
  /// Donor half of an area's candidates (see the class comment).
  struct Donor {
    double term = 0.0;  // Objective::DonorTerm(area, region)
    bool remove_ok = false;
    int8_t keeps_contiguity = -1;  // -1 until asked
  };
  /// A candidate queued for VisitInOrder; `node` is its heap index when it
  /// is its area's best, else -1.
  struct Cursor {
    CandidateMove move;
    int32_t node;
  };
  /// std::push_heap/pop_heap build a max-heap, so "greater" yields the
  /// canonical minimum at the root.
  struct CursorGreater {
    bool operator()(const Cursor& a, const Cursor& b) const {
      return CandidateOrderLess(b.move, a.move);
    }
  };

  void PushCursor(const CandidateMove& move, int32_t node) {
    cursors_.push_back({move, node});
    std::push_heap(cursors_.begin(), cursors_.end(), CursorGreater());
  }
  /// Queues what may follow `c`: its node's heap children and its area's
  /// next admissible candidate.
  void ExpandCursor(const Cursor& c);

  /// Recomputes `area`'s candidate list from its neighbors. Receiver
  /// halves into regions other than `mutated_a/b` are reused from the old
  /// list; the donor half is re-decided when `donor_changed` (or when
  /// there is no old list to trust). With `foreign`, the same scan also
  /// appends the neighbors in other regions not yet tagged in area_seen_
  /// this epoch. Returns the candidates scored.
  int64_t RescoreArea(int32_t area, int32_t mutated_a, int32_t mutated_b,
                      bool donor_changed,
                      std::vector<int32_t>* foreign = nullptr);

  /// Re-decides, in place, the receiver halves of `area`'s candidates
  /// into `mutated_a/b`. Returns the candidates scored.
  int64_t RescoreReceivers(int32_t area, int32_t mutated_a,
                           int32_t mutated_b);

  /// Fills `t`'s receiver half for a move of `area` into `t->to`.
  void ScoreReceiver(int32_t area, Target* t) const;

  /// Combines `t`'s receiver half with `area`'s donor half into its delta
  /// and verdict (asking contiguity of `from` at most once per area).
  void Decide(int32_t area, int32_t from, Target* t);

  /// Donor-contiguity verdict from the cache, cross-checked against the
  /// BFS when `verify_cut_cache_` is set.
  bool DonorKeepsContiguity(int32_t from, int32_t area);

  /// Re-derives `area`'s heap node from its candidate list.
  void UpdateHeapNode(int32_t area);
  /// Restores heap order around index `i` after its node changed.
  void FixHeapAt(size_t i);
  /// Move heap_[i] toward the root / the leaves until the order holds;
  /// SiftUp returns the node's final index.
  size_t SiftUp(size_t i);
  void SiftDown(size_t i);
  void PlaceNode(size_t i, const CandidateMove& node) {
    heap_[i] = node;
    heap_pos_[static_cast<size_t>(node.area)] = static_cast<int32_t>(i);
  }

  const Partition* partition_;
  const Objective* objective_;
  ConnectivityChecker* connectivity_;
  ArticulationCache cut_cache_;
  bool verify_cut_cache_;
  Status status_;

  /// Per-area candidate state: target list and donor half.
  std::vector<std::vector<Target>> area_targets_;
  std::vector<Donor> donors_;
  /// Indexed min-heap of per-area best admissible candidates; heap_pos_
  /// maps an area to its node (-1 = none).
  std::vector<CandidateMove> heap_;
  std::vector<int32_t> heap_pos_;
  int64_t inadmissible_verdicts_ = 0;

  // Epoch-tagged scratch (no clearing between uses; a wrap resets tags).
  std::vector<uint32_t> region_seen_;
  uint32_t region_epoch_ = 0;
  std::vector<uint32_t> area_seen_;
  uint32_t area_epoch_ = 0;
  std::vector<int32_t> foreign_;  // foreign areas bordering from/to
  std::vector<Cursor> cursors_;   // VisitInOrder's frontier
  // Previous target list of the area being rescored (receiver reuse).
  std::vector<Target> old_targets_;
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_
