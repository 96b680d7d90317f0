#ifndef EMP_OBS_JOURNAL_H_
#define EMP_OBS_JOURNAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace emp {

class JsonWriter;

namespace obs {

/// Append-only JSONL flight recorder for one solve — the artifact you
/// diff when two runs disagree. Each record is a single-line JSON object
///
///   {"seq": N, "ts_ms": T, "type": "...", ...payload...}
///
/// with a monotonic sequence number and a timestamp in milliseconds since
/// the journal was constructed (a run-local epoch, so two journals of the
/// same instance line up record-for-record even across machines).
///
/// Record types written by the solver's run events (core/run_events.h,
/// DESIGN.md §11): `run_start`
/// (options + seed + instance digest), `phase_begin` / `phase_end` (with
/// seconds and per-phase outcomes), `termination` (degradation /
/// cancellation verdicts), `replica` (one per portfolio replica, in
/// replica order), and a terminal `run_end` summary.
///
/// Bounded: at most `max_records` records are retained; later appends are
/// dropped and counted (except `force` appends — the terminal summary
/// must land even in a truncated journal, and a truncated journal says so
/// via `dropped_records` in `run_end`). Thread-safe; explicit-flush:
/// nothing touches the filesystem until FlushTo()/ToJsonl().
class RunJournal {
 public:
  explicit RunJournal(size_t max_records = 65536);
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Appends one record. `fields` (may be null) writes extra members into
  /// the open record object via the supplied writer; it runs under the
  /// journal lock, so it must not call back into this journal. `force`
  /// bypasses the bound (terminal records only).
  void Append(std::string_view type,
              const std::function<void(JsonWriter&)>& fields = nullptr,
              bool force = false);

  /// Records retained / appends dropped by the bound so far.
  int64_t size() const;
  int64_t dropped() const;

  /// The retained records as newline-terminated JSONL.
  std::string ToJsonl() const;

  /// Atomically replaces `path` with the current contents (tmp file +
  /// rename), so a reader polling the file never sees a torn write. Safe
  /// to call repeatedly — the CLI's periodic flusher reuses it.
  Status FlushTo(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  const size_t max_records_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> records_;
  int64_t next_seq_ = 0;
  int64_t dropped_ = 0;
};

/// 16 lowercase hex characters for a 64-bit instance digest — the form the
/// `run_start` record carries (fixed width so journals diff cleanly).
std::string DigestHex(uint64_t digest);

}  // namespace obs
}  // namespace emp

#endif  // EMP_OBS_JOURNAL_H_
