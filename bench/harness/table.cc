#include "harness/table.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "common/csv.h"  // WriteFile
#include "common/json_writer.h"
#include "common/str_util.h"

namespace emp {
namespace bench {

namespace {

/// Cores this process may run on (its CPU affinity mask, like `nproc`).
int UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

TablePrinter::TablePrinter(std::string title,
                           std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  if (!title_.empty()) std::printf("%s\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::string rule;
  for (size_t c = 0; c < columns_.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
  std::printf("\n");
}

std::string TablePrinter::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("title");
  w.String(title_);
  w.Key("nproc");
  w.Int(UsableCores());
  w.Key("columns");
  w.BeginInlineArray();
  for (const std::string& c : columns_) w.String(c);
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  for (const auto& row : rows_) {
    w.BeginInlineArray();
    for (const std::string& cell : row) w.String(cell);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).TakeString();
}

void EmitTable(const std::string& experiment_id, const TablePrinter& table) {
  table.Print();
  const char* dir = std::getenv("EMP_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  // One file per table; a binary emitting several tables for the same
  // experiment id gets _2, _3, ... suffixes in emission order.
  static std::map<std::string, int> emitted;
  const int n = ++emitted[experiment_id];
  std::string path = std::string(dir) + "/BENCH_" + experiment_id;
  if (n > 1) path += "_" + std::to_string(n);
  path += ".json";
  Status status = WriteFile(path, table.ToJson() + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "warning: could not write %s: %s\n", path.c_str(),
                 std::string(status.message()).c_str());
  }
}

std::string Secs(double seconds) { return FormatDouble(seconds, 3); }

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

std::string Pct(double ratio) {
  return FormatDouble(ratio * 100.0, 1) + "%";
}

void Banner(const std::string& experiment_id, const std::string& what) {
  std::printf("==============================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), what.c_str());
  std::printf("==============================================\n");
}

}  // namespace bench
}  // namespace emp
