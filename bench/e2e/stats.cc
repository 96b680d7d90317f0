#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/json_writer.h"

namespace emp::e2e {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               k * 0x8CB92BA72F3D8DD7ULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Report::Add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (errors.size() < 20) errors.push_back(why);
  std::fprintf(stderr, "e2e_bench: FAILED: %s\n", why.c_str());
}

std::string Report::ToJson() const {
  JsonWriter w(2);
  w.BeginObject();
  w.Key("correct");
  w.Bool(failed == 0 && attempted > 0);
  w.Key("attempted");
  w.Int(attempted);
  w.Key("failed");
  w.Int(failed);
  w.Key("errors");
  w.BeginArray();
  for (const std::string& e : errors) w.String(e);
  w.EndArray();
  w.Key("latency_samples_ms");
  w.BeginInlineArray();
  for (double v : latency_samples_ms) w.Double(v, 3);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginInlineObject();
    w.Key("value");
    // All significant digits: regression checks compare raw measurements.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    w.Raw(buf);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).TakeString() + "\n";
}

}  // namespace emp::e2e
