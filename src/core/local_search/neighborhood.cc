#include "core/local_search/neighborhood.h"

#include <algorithm>
#include <string>

#include "core/local_search/move.h"

namespace emp {

namespace {

/// Advances an epoch-tagged scratch array, handling the ~4-billion-call
/// wrap by resetting every tag once.
uint32_t NextEpoch(std::vector<uint32_t>* tags, uint32_t* epoch) {
  ++*epoch;
  if (*epoch == 0) {
    std::fill(tags->begin(), tags->end(), 0);
    *epoch = 1;
  }
  return *epoch;
}

}  // namespace

TabuNeighborhood::TabuNeighborhood(const Partition* partition,
                                   const Objective* objective,
                                   ConnectivityChecker* connectivity,
                                   bool verify_cut_cache)
    : partition_(partition),
      objective_(objective),
      connectivity_(connectivity),
      cut_cache_(partition, connectivity),
      verify_cut_cache_(verify_cut_cache) {
  const size_t n = static_cast<size_t>(partition_->num_areas());
  area_version_.assign(n, 0);
  area_targets_.resize(n);
  area_seen_.assign(n, 0);
  region_seen_.assign(static_cast<size_t>(partition_->NumRegionSlots()), 0);
}

int64_t TabuNeighborhood::RescoreArea(int32_t area) {
  return RescoreAreaImpl(area, /*mutated_a=*/-1, /*mutated_b=*/-1);
}

int64_t TabuNeighborhood::RescoreAreaImpl(int32_t area, int32_t mutated_a,
                                          int32_t mutated_b) {
  auto& targets = area_targets_[static_cast<size_t>(area)];
  for (const Target& t : targets) live_ -= t.admissible ? 1 : 0;
  // In partial mode (mutated_a >= 0) the old list supplies still-valid
  // deltas and verdicts for targets whose members did not change.
  old_targets_.clear();
  old_targets_.swap(targets);
  ++area_version_[static_cast<size_t>(area)];

  const int32_t from = partition_->RegionOf(area);
  if (from == -1) return 0;
  if (partition_->region(from).size() <= 1) return 0;  // Cannot donate.

  // A candidate's delta depends only on d[area] and the member multisets
  // of its two endpoint regions, and its verdict only on those regions'
  // stats and the donor's members, so when neither endpoint mutated the
  // old delta and verdict are still exact and need not be decided again.
  const bool donor_mutated = from == mutated_a || from == mutated_b;

  // Regions can be created between Rebuild() calls by callers sharing the
  // partition; grow the scratch lazily.
  const size_t slots = static_cast<size_t>(partition_->NumRegionSlots());
  if (region_seen_.size() < slots) region_seen_.resize(slots, 0);

  // Gather the distinct target regions first, carrying over bit-exact
  // deltas for candidates whose endpoints were untouched, then evaluate
  // everything that actually changed in ONE batched objective call — the
  // donor-side work is hoisted across the batch and the target loop walks
  // the SoA arrays without per-candidate virtual dispatch. Appending the
  // batch after the carried-over entries reorders `targets`, which is
  // safe: heap selection uses the canonical (delta, area, to) order, and
  // the old_targets_ lookup keys on the unique `to`.
  const uint32_t epoch = NextEpoch(&region_seen_, &region_epoch_);
  const auto& graph = partition_->bound().areas().graph();
  batch_tos_.clear();
  for (int32_t nb : graph.NeighborsOf(area)) {
    const int32_t to = partition_->RegionOf(nb);
    if (to == -1 || to == from) continue;
    if (region_seen_[static_cast<size_t>(to)] == epoch) continue;
    region_seen_[static_cast<size_t>(to)] = epoch;
    if (mutated_a >= 0 && !donor_mutated && to != mutated_a &&
        to != mutated_b) {
      // Both endpoints untouched: the candidate existed before the move
      // (same donor, same adjacency) with the same delta and verdict.
      bool reused = false;
      for (const Target& old : old_targets_) {
        if (old.to == to) {
          targets.push_back(old);
          reused = true;
          break;
        }
      }
      if (reused) continue;
      // Unreachable under the affected-set proof; evaluate to stay safe.
    }
    batch_tos_.push_back(to);
  }
  const size_t batch = batch_tos_.size();
  if (batch > 0) {
    batch_deltas_.resize(batch);
    objective_->MoveDeltas(area, from, batch_tos_.data(), batch,
                           batch_deltas_.data());
    for (size_t i = 0; i < batch; ++i) {
      const int32_t to = batch_tos_[i];
      const bool admissible =
          MoveSatisfiesConstraints(*partition_, area, from, to) &&
          DonorKeepsContiguity(from, area);
      inadmissible_verdicts_ += admissible ? 0 : 1;
      targets.push_back({batch_deltas_[i], to, admissible});
    }
  }
  for (const Target& t : targets) live_ += t.admissible ? 1 : 0;
  return static_cast<int64_t>(batch);
}

bool TabuNeighborhood::DonorKeepsContiguity(int32_t from, int32_t area) {
  const bool keeps = cut_cache_.DonorKeepsContiguity(from, area);
  if (verify_cut_cache_ && status_.ok() &&
      keeps != connectivity_->IsConnectedWithout(
                   partition_->region(from).areas, area)) {
    status_ = Status::Internal(
        "articulation cache disagrees with BFS for area " +
        std::to_string(area) + " leaving region " + std::to_string(from));
  }
  return keeps;
}

bool TabuNeighborhood::IsAdmissible(const CandidateMove& mv) {
  return MoveSatisfiesConstraints(*partition_, mv.area, mv.from, mv.to) &&
         cut_cache_.DonorKeepsContiguity(mv.from, mv.area);
}

void TabuNeighborhood::PushAreaEntries(int32_t area) {
  const uint32_t version = area_version_[static_cast<size_t>(area)];
  for (const Target& t : area_targets_[static_cast<size_t>(area)]) {
    if (t.admissible) PushEntry({t.delta, area, t.to, version});
  }
}

int64_t TabuNeighborhood::Rebuild() {
  heap_.clear();
  cut_cache_.InvalidateAll();
  int64_t scored = 0;
  for (int32_t a = 0; a < partition_->num_areas(); ++a) {
    scored += RescoreArea(a);
    const uint32_t version = area_version_[static_cast<size_t>(a)];
    for (const Target& t : area_targets_[static_cast<size_t>(a)]) {
      if (t.admissible) heap_.push_back({t.delta, a, t.to, version});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapGreater());
  return scored;
}

int64_t TabuNeighborhood::OnMoveApplied(int32_t area, int32_t from,
                                        int32_t to) {
  // Affected areas: any area whose candidate set, deltas or verdicts can
  // have changed. A candidate (a, r_a, t) depends only on d_a plus the
  // member multisets of r_a and t, and on a's adjacency to t — all
  // unchanged unless r_a or t is one of the two mutated regions. Every such
  // candidate belongs to a boundary area of `from`/`to` or to a foreign
  // area adjacent to one of them, and the moved area plus its whole graph
  // neighborhood is contained in that set (the donor keeps >= 1 member
  // adjacent to `area` by the contiguity precondition).
  cut_cache_.Invalidate(from);
  cut_cache_.Invalidate(to);
  const uint32_t epoch = NextEpoch(&area_seen_, &area_epoch_);
  affected_.clear();
  auto mark = [&](int32_t a) {
    if (area_seen_[static_cast<size_t>(a)] != epoch) {
      area_seen_[static_cast<size_t>(a)] = epoch;
      affected_.push_back(a);
    }
  };
  const auto& graph = partition_->bound().areas().graph();
  // The moved area and its whole graph neighborhood are re-scored
  // unconditionally — this is implied by the region scans below whenever
  // the donor stayed contiguous, but costs nothing to guarantee.
  mark(area);
  for (int32_t nb : graph.NeighborsOf(area)) {
    if (partition_->RegionOf(nb) != -1) mark(nb);
  }
  for (int32_t rid : {from, to}) {
    for (int32_t member : partition_->region(rid).areas) {
      for (int32_t nb : graph.NeighborsOf(member)) {
        const int32_t nb_region = partition_->RegionOf(nb);
        if (nb_region == -1 || nb_region == rid) continue;
        mark(member);
        mark(nb);
      }
    }
  }
  // A donor shrunk to a single isolated member escapes both scans; its
  // stale candidates must still die, so always rescore it.
  if (partition_->region(from).size() == 1) {
    mark(partition_->region(from).areas.front());
  }

  int64_t scored = 0;
  for (int32_t a : affected_) {
    scored += RescoreAreaImpl(a, from, to);
    PushAreaEntries(a);
  }
  CompactHeap();
  return scored;
}

void TabuNeighborhood::CompactHeap() {
  if (heap_.size() <= 64 ||
      heap_.size() <= 2 * static_cast<size_t>(live_)) {
    return;
  }
  // Every admissible (area, to) pair sits in the heap exactly once, so
  // dropping the stale entries in place is a full compaction.
  heap_.erase(std::remove_if(
                  heap_.begin(), heap_.end(),
                  [this](const HeapEntry& e) { return !EntryLive(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), HeapGreater());
}

ArticulationCache::ArticulationCache(const Partition* partition,
                                     ConnectivityChecker* connectivity)
    : partition_(partition), connectivity_(connectivity) {
  entries_.resize(static_cast<size_t>(partition_->NumRegionSlots()));
}

bool ArticulationCache::DonorKeepsContiguity(int32_t from, int32_t area) {
  if (static_cast<size_t>(from) >= entries_.size()) {
    entries_.resize(static_cast<size_t>(partition_->NumRegionSlots()));
  }
  Entry& entry = entries_[static_cast<size_t>(from)];
  const std::vector<int32_t>& members = partition_->region(from).areas;
  if (!entry.valid) {
    ++misses_;
    const int32_t components =
        connectivity_->ArticulationPointsInto(members, &entry.cuts);
    entry.connected = components <= 1;
    entry.valid = true;
  } else {
    ++hits_;
  }
  if (!entry.connected) {
    // Degenerate (never reached from Tabu, whose regions stay connected):
    // removing a node CAN reconnect a disconnected region, e.g. when it
    // is an isolated member. Defer to the exact BFS.
    return connectivity_->IsConnectedWithout(members, area);
  }
  if (members.size() <= 2) return true;  // 0 or 1 nodes remain.
  return !std::binary_search(entry.cuts.begin(), entry.cuts.end(), area);
}

void ArticulationCache::Invalidate(int32_t region_id) {
  if (static_cast<size_t>(region_id) < entries_.size()) {
    entries_[static_cast<size_t>(region_id)].valid = false;
  }
}

void ArticulationCache::InvalidateAll() {
  for (Entry& entry : entries_) entry.valid = false;
}

}  // namespace emp
