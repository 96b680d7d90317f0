#include "spans.h"

#include <algorithm>
#include <utility>

#include "common/json_writer.h"
#include "stats.h"

namespace emp::e2e {

int32_t SpanRecorder::Begin(std::string name, int64_t op) {
  Span span;
  span.name = std::move(name);
  span.start_us = NowMicros();
  span.end_us = span.start_us;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_us = NowMicros();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int32_t SpanRecorder::Record(std::string name, double start_us,
                             double end_us, int32_t parent, int64_t op,
                             int32_t lane) {
  spans_.push_back(
      Span{std::move(name), start_us, std::max(start_us, end_us), parent, op,
           lane});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::Import(const std::vector<obs::TraceEvent>& events,
                          double epoch_us, int32_t parent, int64_t op) {
  std::vector<size_t> order;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].duration_us >= 0) order.push_back(i);
  }
  // Outer spans first. A buffer stores a span when it closes, so of two
  // spans with equal bounds (whole-µs timestamps) the later one is outer.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const obs::TraceEvent& x = events[a];
    const obs::TraceEvent& y = events[b];
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.duration_us != y.duration_us) return x.duration_us > y.duration_us;
    return a > b;
  });
  const int32_t lane =
      parent >= 0 ? spans_[static_cast<size_t>(parent)].lane : 0;
  std::vector<std::pair<int32_t, int64_t>> open;  // (span, end_us)
  for (size_t i : order) {
    const obs::TraceEvent& e = events[i];
    const int64_t end = e.start_us + e.duration_us;
    while (!open.empty() && open.back().second < end) open.pop_back();
    const int32_t id =
        Record(e.name, epoch_us + static_cast<double>(e.start_us),
               epoch_us + static_cast<double>(end),
               open.empty() ? parent : open.back().first, op, lane);
    open.emplace_back(id, end);
  }
}

std::string SpanRecorder::ToChromeJson() const {
  const std::vector<double> self = SelfMicros(spans_);
  JsonWriter w(0);
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(s.start_us, 3);
    w.Key("dur");
    w.Double(s.end_us - s.start_us, 3);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(s.lane);
    w.Key("args");
    w.BeginObject();
    w.Key("op");
    w.Int(s.op);
    w.Key("span");
    w.Int(static_cast<int64_t>(i));
    w.Key("parent");
    w.Int(s.parent);
    w.Key("self_us");
    w.Double(self[i], 3);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).TakeString() + "\n";
}

std::vector<double> SelfMicros(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_us - spans[i].start_us;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

double MedianSpanMs(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (s.name == name) ms.push_back((s.end_us - s.start_us) / 1e3);
  }
  return Median(std::move(ms));
}

std::map<int64_t, std::map<std::string, SpanTotals>> TotalsByOp(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfMicros(spans);
  std::map<int64_t, std::map<std::string, SpanTotals>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& totals = out[spans[i].op][spans[i].name];
    totals.ms += (spans[i].end_us - spans[i].start_us) / 1e3;
    totals.self_ms += self[i] / 1e3;
  }
  return out;
}

}  // namespace emp::e2e
