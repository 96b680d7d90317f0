#ifndef EMP_BENCH_E2E_SPANS_H_
#define EMP_BENCH_E2E_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/trace.h"

namespace emp::e2e {

/// One recorded interval. `op` ties the spans of one solve or one service
/// job together; `parent` is the index of the enclosing span (-1 for a
/// root), which is what self times are computed from.
struct Span {
  std::string name;
  double start_us = 0;  // ns resolution
  double end_us = 0;
  int32_t parent = -1;
  int64_t op = 0;
  int32_t lane = 0;  // Chrome-trace thread row
};

/// In-memory span store for the traced runs, used from one thread. The
/// benchmark records spans around its calls into the library (Begin/End,
/// nesting) and imports the spans the library itself records into a
/// solve's obs::TraceBuffer (Import). Record adds an already-closed span
/// with explicit times (the service client's timeline, assembled after
/// the open loop).
class SpanRecorder {
 public:
  /// Microseconds since the recorder was created.
  double NowMicros() const { return epoch_.ElapsedSeconds() * 1e6; }

  int32_t Begin(std::string name, int64_t op);
  void End(int32_t id);
  int32_t Record(std::string name, double start_us, double end_us,
                 int32_t parent, int64_t op, int32_t lane);

  /// Adds the spans of one solve's trace buffer (instant events skipped)
  /// under `parent`. `epoch_us` is this recorder's time when the buffer
  /// was created. The buffer keeps no parent links; each span's parent is
  /// the innermost span that contains it.
  void Import(const std::vector<obs::TraceEvent>& events, double epoch_us,
              int32_t parent, int64_t op);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-viewer JSON: one complete ("X") event per span, with the
  /// op id, parent index and self time in `args`.
  std::string ToChromeJson() const;

 private:
  Stopwatch epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // Begin/End stack
};

/// RAII Begin/End; a null recorder makes it a no-op, so traced and
/// untraced runs share one code path where that is convenient.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int64_t op)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

/// Duration minus the time covered by direct children, per span.
std::vector<double> SelfMicros(const std::vector<Span>& spans);

/// Median duration of every span called `name`, in ms; 0 when none.
double MedianSpanMs(const std::vector<Span>& spans, const std::string& name);

/// Summed duration and summed self time of one span name, in ms.
struct SpanTotals {
  double ms = 0;
  double self_ms = 0;
};

/// Per-op totals: op id -> span name -> totals.
std::map<int64_t, std::map<std::string, SpanTotals>> TotalsByOp(
    const std::vector<Span>& spans);

}  // namespace emp::e2e

#endif  // EMP_BENCH_E2E_SPANS_H_
