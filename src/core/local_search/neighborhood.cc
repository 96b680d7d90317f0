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
  area_targets_.resize(n);
  donors_.resize(n);
  heap_pos_.assign(n, -1);
  area_seen_.assign(n, 0);
  region_seen_.assign(static_cast<size_t>(partition_->NumRegionSlots()), 0);
}

void TabuNeighborhood::ScoreReceiver(int32_t area, Target* t) const {
  t->receiver = objective_->ReceiverTerm(area, t->to);
  t->add_ok = partition_->region(t->to).stats.SatisfiesAllAfterAdd(area);
}

void TabuNeighborhood::Decide(int32_t area, int32_t from, Target* t) {
  Donor& donor = donors_[static_cast<size_t>(area)];
  t->delta = t->receiver - donor.term;
  // Same short-circuit as MoveSatisfiesConstraints + contiguity, so the
  // articulation cache is asked exactly when a candidate passes both
  // constraint halves — once per area, then remembered.
  t->admissible = t->add_ok && donor.remove_ok;
  if (t->admissible) {
    if (donor.keeps_contiguity < 0) {
      donor.keeps_contiguity = DonorKeepsContiguity(from, area) ? 1 : 0;
    }
    t->admissible = donor.keeps_contiguity == 1;
  }
  inadmissible_verdicts_ += t->admissible ? 0 : 1;
}

int64_t TabuNeighborhood::RescoreArea(int32_t area, int32_t mutated_a,
                                      int32_t mutated_b, bool donor_changed,
                                      std::vector<int32_t>* foreign) {
  auto& targets = area_targets_[static_cast<size_t>(area)];
  old_targets_.clear();
  old_targets_.swap(targets);

  int64_t scored = 0;
  const int32_t from = partition_->RegionOf(area);
  const bool can_donate =
      from != -1 && partition_->region(from).size() > 1;
  if (can_donate || foreign != nullptr) {
    // A donor half is cached only while the area has candidates.
    donor_changed = donor_changed || old_targets_.empty();
    // Regions can be created between Rebuild() calls by callers sharing
    // the partition; grow the scratch lazily.
    const size_t slots = static_cast<size_t>(partition_->NumRegionSlots());
    if (region_seen_.size() < slots) region_seen_.resize(slots, 0);
    const uint32_t epoch = NextEpoch(&region_seen_, &region_epoch_);
    for (int32_t nb : partition_->bound().areas().graph().NeighborsOf(area)) {
      const int32_t to = partition_->RegionOf(nb);
      if (to == -1 || to == from) continue;
      if (foreign != nullptr && to != mutated_a && to != mutated_b &&
          area_seen_[static_cast<size_t>(nb)] != area_epoch_) {
        area_seen_[static_cast<size_t>(nb)] = area_epoch_;
        foreign->push_back(nb);
      }
      if (!can_donate || region_seen_[static_cast<size_t>(to)] == epoch) {
        continue;
      }
      region_seen_[static_cast<size_t>(to)] = epoch;
      if (donor_changed && targets.empty()) {
        const Region& donor = partition_->region(from);
        donors_[static_cast<size_t>(area)] = {
            objective_->DonorTerm(area, from),
            donor.stats.SatisfiesAllAfterRemove(area), -1};
      }
      // A receiver half into an untouched region is still exact.
      const Target* old = nullptr;
      if (to != mutated_a && to != mutated_b) {
        for (const Target& t : old_targets_) {
          if (t.to == to) {
            old = &t;
            break;
          }
        }
      }
      if (old != nullptr && !donor_changed) {
        targets.push_back(*old);  // Neither half changed.
        continue;
      }
      Target t = old != nullptr ? *old : Target{0.0, 0.0, to, false, false};
      if (old == nullptr) ScoreReceiver(area, &t);
      Decide(area, from, &t);
      targets.push_back(t);
      ++scored;
    }
  }
  UpdateHeapNode(area);
  return scored;
}

int64_t TabuNeighborhood::RescoreReceivers(int32_t area, int32_t mutated_a,
                                           int32_t mutated_b) {
  const int32_t from = partition_->RegionOf(area);
  int64_t scored = 0;
  for (Target& t : area_targets_[static_cast<size_t>(area)]) {
    if (t.to != mutated_a && t.to != mutated_b) continue;
    ScoreReceiver(area, &t);
    Decide(area, from, &t);
    ++scored;
  }
  if (scored > 0) UpdateHeapNode(area);
  return scored;
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

int64_t TabuNeighborhood::live_candidates() const {
  int64_t live = 0;
  for (const auto& targets : area_targets_) {
    for (const Target& t : targets) live += t.admissible ? 1 : 0;
  }
  return live;
}

bool TabuNeighborhood::IsAdmissible(const CandidateMove& mv) {
  return MoveSatisfiesConstraints(*partition_, mv.area, mv.from, mv.to) &&
         cut_cache_.DonorKeepsContiguity(mv.from, mv.area);
}

int64_t TabuNeighborhood::Rebuild() {
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), -1);
  cut_cache_.InvalidateAll();
  for (auto& targets : area_targets_) targets.clear();
  int64_t scored = 0;
  for (int32_t a = 0; a < partition_->num_areas(); ++a) {
    scored += RescoreArea(a, /*mutated_a=*/-1, /*mutated_b=*/-1,
                          /*donor_changed=*/true);
  }
  return scored;
}

int64_t TabuNeighborhood::OnMoveApplied(int32_t area, int32_t from,
                                        int32_t to) {
  // A candidate's receiver half depends only on its area and target
  // region, its donor half only on its area and own region, and its
  // target set only on its area's neighbors. So the members of `from` and
  // `to` re-decide their donor halves (reusing receiver halves into
  // untouched regions), and every foreign area bordering them re-decides
  // its receiver halves into `from`/`to`. Scanning every member of both
  // regions keeps the donor-half invariant: each boundary member of a
  // mutated region is re-scored.
  cut_cache_.Invalidate(from);
  cut_cache_.Invalidate(to);
  NextEpoch(&area_seen_, &area_epoch_);
  foreign_.clear();
  int64_t scored = 0;
  for (int32_t rid : {from, to}) {
    for (int32_t member : partition_->region(rid).areas) {
      scored += RescoreArea(member, from, to, /*donor_changed=*/true,
                            &foreign_);
    }
  }
  // Only the moved area changed region, so only its neighbors can have
  // gained (`to`) or lost (`from`) a target region.
  const auto& moved_neighbors =
      partition_->bound().areas().graph().NeighborsOf(area);
  for (int32_t a : foreign_) {
    scored += std::binary_search(moved_neighbors.begin(),
                                 moved_neighbors.end(), a)
                  ? RescoreArea(a, from, to, /*donor_changed=*/false)
                  : RescoreReceivers(a, from, to);
  }
  return scored;
}

void TabuNeighborhood::UpdateHeapNode(int32_t area) {
  const Target* best = nullptr;
  for (const Target& t : area_targets_[static_cast<size_t>(area)]) {
    if (!t.admissible) continue;
    if (best == nullptr || t.delta < best->delta ||
        (t.delta == best->delta && t.to < best->to)) {
      best = &t;
    }
  }
  const int32_t pos = heap_pos_[static_cast<size_t>(area)];
  if (best == nullptr) {
    if (pos < 0) return;
    heap_pos_[static_cast<size_t>(area)] = -1;
    const CandidateMove last = heap_.back();
    heap_.pop_back();
    if (static_cast<size_t>(pos) == heap_.size()) return;
    PlaceNode(static_cast<size_t>(pos), last);
    FixHeapAt(static_cast<size_t>(pos));
    return;
  }
  const CandidateMove node{best->delta, area, partition_->RegionOf(area),
                           best->to};
  if (pos < 0) {
    heap_.push_back(node);
    PlaceNode(heap_.size() - 1, node);
    SiftUp(heap_.size() - 1);
  } else {
    PlaceNode(static_cast<size_t>(pos), node);
    FixHeapAt(static_cast<size_t>(pos));
  }
}

void TabuNeighborhood::FixHeapAt(size_t i) {
  if (SiftUp(i) == i) SiftDown(i);
}

size_t TabuNeighborhood::SiftUp(size_t i) {
  const CandidateMove node = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!CandidateOrderLess(node, heap_[parent])) break;
    PlaceNode(i, heap_[parent]);
    i = parent;
  }
  PlaceNode(i, node);
  return i;
}

void TabuNeighborhood::SiftDown(size_t i) {
  const CandidateMove node = heap_[i];
  const size_t n = heap_.size();
  for (size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && CandidateOrderLess(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!CandidateOrderLess(heap_[child], node)) break;
    PlaceNode(i, heap_[child]);
    i = child;
  }
  PlaceNode(i, node);
}

void TabuNeighborhood::ExpandCursor(const Cursor& c) {
  if (c.node >= 0) {
    const size_t left = 2 * static_cast<size_t>(c.node) + 1;
    for (size_t child = left; child < std::min(left + 2, heap_.size());
         ++child) {
      PushCursor(heap_[child], static_cast<int32_t>(child));
    }
  }
  // The area's next admissible candidate after `c` in canonical order.
  CandidateMove next{0.0, c.move.area, c.move.from, -1};
  for (const Target& t : area_targets_[static_cast<size_t>(c.move.area)]) {
    if (!t.admissible) continue;
    const CandidateMove candidate{t.delta, c.move.area, c.move.from, t.to};
    if (CandidateOrderLess(c.move, candidate) &&
        (next.to == -1 || CandidateOrderLess(candidate, next))) {
      next = candidate;
    }
  }
  if (next.to != -1) PushCursor(next, -1);
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
