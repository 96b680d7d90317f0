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
/// contiguity, decided once when the candidate is scored. Candidates
/// persist across iterations: after a move `area: from -> to` only the
/// areas whose candidate set, deltas or verdicts can have changed — the
/// boundary areas of `from` and `to` plus the foreign areas adjacent to
/// either — are re-scored, instead of rebuilding the whole neighborhood.
///
/// Selection runs over a lazy-deletion min-heap of the ADMISSIBLE
/// candidates only, keyed by the canonical (delta, area, to) order;
/// re-scoring an area bumps its version, which invalidates its stale heap
/// entries without searching for them.
///
/// Invariants (pinned by neighborhood_test and the golden trajectory test):
///  * after any sequence of OnMoveApplied calls, the candidate set and
///    every verdict equal what Rebuild() would produce from scratch,
///    deltas included bit-for-bit (unaffected candidates keep previously
///    computed deltas and verdicts, which are exact because their two
///    regions' members did not change);
///  * VisitInOrder yields exactly the admissible candidates, in canonical
///    order.
class TabuNeighborhood {
 public:
  /// One candidate of an area's list: the target region, the exact
  /// objective delta and the admissibility verdict.
  struct Target {
    double delta;
    int32_t to;
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
  /// objective already mutated). Re-scores only the affected areas and
  /// returns the number of candidates scored.
  int64_t OnMoveApplied(int32_t area, int32_t from, int32_t to);

  /// Number of admissible candidate moves (the ones VisitInOrder yields).
  int64_t live_candidates() const { return live_; }
  bool empty() const { return live_ == 0; }

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
  /// false (or the set is exhausted). Visited-but-declined candidates stay
  /// in the structure. `visit` must not mutate the partition or
  /// objective; apply the chosen move after VisitInOrder returns, then
  /// call OnMoveApplied.
  template <typename Visitor>
  void VisitInOrder(Visitor&& visit) {
    popped_.clear();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapGreater());
      HeapEntry e = heap_.back();
      heap_.pop_back();
      if (!EntryLive(e)) continue;
      popped_.push_back(e);
      CandidateMove mv{e.delta, e.area, partition_->RegionOf(e.area), e.to};
      if (!visit(static_cast<const CandidateMove&>(mv))) break;
    }
    // Put the visited survivors back; entries invalidated meanwhile (none
    // today — visitors cannot mutate) would be dropped here.
    for (const HeapEntry& e : popped_) {
      if (EntryLive(e)) PushEntry(e);
    }
  }

 private:
  /// Heap entry. `version` must match the area's current version for the
  /// entry to be live; re-scoring an area bumps the version, lazily
  /// deleting its old entries.
  struct HeapEntry {
    double delta;
    int32_t area;
    int32_t to;
    uint32_t version;
  };
  /// std::push_heap/pop_heap build a max-heap, so "greater" yields the
  /// canonical minimum at the root.
  struct HeapGreater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.delta != b.delta) return a.delta > b.delta;
      if (a.area != b.area) return a.area > b.area;
      return a.to > b.to;
    }
  };

  bool EntryLive(const HeapEntry& e) const {
    return area_version_[static_cast<size_t>(e.area)] == e.version;
  }
  void PushEntry(const HeapEntry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), HeapGreater());
  }

  /// Recomputes `area`'s candidate list (bumping its version); does not
  /// touch the heap. Returns the number of candidates scored.
  int64_t RescoreArea(int32_t area);

  /// Like RescoreArea, but when `mutated_a/b` name the two regions the
  /// triggering move touched, deltas and verdicts of candidates with both
  /// endpoints untouched are carried over from the old list (bit-exact)
  /// instead of being decided again. Full rescore when mutated_a == -1.
  int64_t RescoreAreaImpl(int32_t area, int32_t mutated_a, int32_t mutated_b);

  /// Donor-contiguity verdict from the cache, cross-checked against the
  /// BFS when `verify_cut_cache_` is set.
  bool DonorKeepsContiguity(int32_t from, int32_t area);

  /// Pushes `area`'s admissible candidates onto the heap.
  void PushAreaEntries(int32_t area);

  /// Drops stale entries by rebuilding the heap from the per-area lists.
  void CompactHeap();

  const Partition* partition_;
  const Objective* objective_;
  ConnectivityChecker* connectivity_;
  ArticulationCache cut_cache_;
  bool verify_cut_cache_;
  Status status_;

  /// Per-area candidate state: version + target list.
  std::vector<uint32_t> area_version_;
  std::vector<std::vector<Target>> area_targets_;
  std::vector<HeapEntry> heap_;
  int64_t live_ = 0;
  int64_t inadmissible_verdicts_ = 0;

  // Epoch-tagged scratch (no clearing between uses; a wrap resets tags).
  std::vector<uint32_t> region_seen_;
  uint32_t region_epoch_ = 0;
  std::vector<uint32_t> area_seen_;
  uint32_t area_epoch_ = 0;
  std::vector<int32_t> affected_;   // reused affected-area buffer
  std::vector<HeapEntry> popped_;   // reused by VisitInOrder
  // Previous target list of the area being rescored (delta and verdict
  // reuse).
  std::vector<Target> old_targets_;
  // Batched-rescore buffers: target regions needing fresh deltas and the
  // deltas from one Objective::MoveDeltas call (reused across rescoring).
  std::vector<int32_t> batch_tos_;
  std::vector<double> batch_deltas_;
};

}  // namespace emp

#endif  // EMP_CORE_LOCAL_SEARCH_NEIGHBORHOOD_H_
