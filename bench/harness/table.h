#ifndef EMP_BENCH_HARNESS_TABLE_H_
#define EMP_BENCH_HARNESS_TABLE_H_

#include <string>
#include <vector>

#include "common/str_util.h"  // FormatDouble, used by every bench report

namespace emp {
namespace bench {

/// Minimal fixed-width table printer for experiment reports: the bench
/// binaries print the same rows/series the paper's tables and figures
/// show, so EXPERIMENTS.md can compare shapes side by side.
class TablePrinter {
 public:
  /// `title` prints above the header; `columns` define the header row.
  TablePrinter(std::string title, std::vector<std::string> columns);

  /// Adds a row (stringified cells, same arity as the header).
  void AddRow(std::vector<std::string> cells);

  /// Renders everything to stdout.
  void Print() const;

  /// Serializes the table via JsonWriter:
  ///   {"title": ..., "nproc": N, "columns": [...], "rows": [[...], ...]}
  /// `nproc` is the number of cores this process may run on (its CPU
  /// affinity mask, like the `nproc` tool), so every exported table
  /// records the core count it ran on. Cells stay strings — bench
  /// cells mix numbers with annotations like "40.2%" or "1.2x", and
  /// consumers parse what they need.
  std::string ToJson() const;

  const std::string& title() const { return title_; }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints `table` and, when the EMP_BENCH_JSON_DIR environment variable is
/// set, also writes it to $EMP_BENCH_JSON_DIR/BENCH_<experiment_id>.json
/// (appending _2, _3, ... when one binary emits several tables). This is
/// how every fig*/tab*/ablation_* binary exports machine-readable results
/// next to its stdout report.
void EmitTable(const std::string& experiment_id, const TablePrinter& table);

/// Formats seconds with 3 decimals, e.g. "1.234".
std::string Secs(double seconds);

/// Median of a sample (by value; the copy is sorted). 0.0 when empty.
/// Bench tables report medians, not means: one scheduler hiccup on the CI
/// runner must not shift a committed-baseline comparison.
double Median(std::vector<double> samples);

/// Formats a ratio as a percentage with 1 decimal, e.g. "40.2%".
std::string Pct(double ratio);

/// Prints the standard bench banner (figure/table id + what it shows).
void Banner(const std::string& experiment_id, const std::string& what);

}  // namespace bench
}  // namespace emp

#endif  // EMP_BENCH_HARNESS_TABLE_H_
