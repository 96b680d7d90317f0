#!/usr/bin/env python3
"""CI perf ratchet: compare fresh BENCH_*.json tables against committed
baselines and fail on large regressions.

Usage:
    tools/check_bench_regression.py \
        --baseline-dir bench/baselines --current-dir bench-json

Policy (tuned for shared CI runners):
  * A metric regressing by more than --fail-threshold (default 25%) is a
    FAILURE; more than --warn-threshold (default 10%) is a WARNING.
  * Ratio metrics (speedups, layout ratios) hard-fail the job: they divide
    out machine speed, so a 25% drop is a real change, not runner noise.
  * Absolute metrics (microseconds, milliseconds) only warn by default —
    set EMP_RATCHET_STRICT=1 to make them fail too (useful on dedicated
    hardware; the default keeps shared runners green).
  * A "-" cell, a missing row key, or a missing file is a MISSING
    measurement: skipped with a warning, never compared against zero.
    Smoke runs legitimately emit "-" for the large catalog entries.
  * The core count each table ran on ("nproc", "-" when a table predates
    it) is printed beside the delta table and never compared.

The delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, is
appended there as markdown. Baselines are refreshed with
tools/update_bench_baselines.sh (see README "Running in CI").
"""

import argparse
import json
import os
import sys

# Per-table comparison plan. `key` selects the row-identifying column;
# each metric is (column, direction, kind) where direction is "lower" or
# "higher" (which way is better) and kind is "ratio" or "absolute".
TABLE_METRICS = {
    "tabu": {
        "key": "areas",
        "metrics": [
            ("incremental_us", "lower", "absolute"),
            ("full_us", "lower", "absolute"),
            ("select_us", "lower", "absolute"),
            ("speedup", "higher", "ratio"),
        ],
    },
    "region_stats": {
        "key": "areas",
        "metrics": [
            ("soa_ns", "lower", "absolute"),
            ("legacy/soa", "higher", "ratio"),
        ],
    },
    "construction": {
        "key": "areas",
        "metrics": [
            ("grow_ms", "lower", "absolute"),
            ("adjust_ms", "lower", "absolute"),
        ],
    },
    "portfolio": {
        "key": "threads",
        "metrics": [
            ("seconds", "lower", "absolute"),
            ("speedup", "higher", "ratio"),
        ],
    },
}


def parse_cell(cell):
    """Numeric value of a table cell, or None for missing ("-") cells.

    Bench cells mix numbers with annotations ("4.0x", "40.2%"); strip the
    suffix and parse what remains.
    """
    text = cell.strip()
    if text in ("", "-"):
        return None
    for suffix in ("x", "%"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
    try:
        return float(text)
    except ValueError:
        return None


def load_table(path):
    """{"columns", "rows": {row_key: {column: cell}}, "nproc"} from one
    BENCH_*.json, or None."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    columns = doc.get("columns", [])
    rows = {}
    for row in doc.get("rows", []):
        cells = dict(zip(columns, row))
        if columns and columns[0] in cells:
            rows[row[0]] = cells
    return {"columns": columns, "rows": rows, "nproc": doc.get("nproc")}


def compare(args):
    results = []  # (table, row, metric, kind, base, cur, delta_pct, level)
    cores = []  # (table, baseline nproc, current nproc)
    warnings = []
    failures = []
    strict = os.environ.get("EMP_RATCHET_STRICT") == "1"

    for table_id, plan in sorted(TABLE_METRICS.items()):
        name = f"BENCH_{table_id}.json"
        base_path = os.path.join(args.baseline_dir, name)
        cur_path = os.path.join(args.current_dir, name)
        base = load_table(base_path)
        cur = load_table(cur_path)
        if base is None:
            warnings.append(f"{name}: no committed baseline — skipped")
            continue
        if cur is None:
            warnings.append(f"{name}: no current measurement — skipped")
            continue
        cores.append((table_id, base["nproc"], cur["nproc"]))
        for row_key, base_cells in base["rows"].items():
            cur_cells = cur["rows"].get(row_key)
            if cur_cells is None:
                warnings.append(
                    f"{name}: row {plan['key']}={row_key} missing from "
                    "current run — skipped")
                continue
            for metric, direction, kind in plan["metrics"]:
                base_v = parse_cell(base_cells.get(metric, "-"))
                cur_v = parse_cell(cur_cells.get(metric, "-"))
                if base_v is None or cur_v is None:
                    # "-" cells: the family was skipped (EMP_BENCH_SMOKE)
                    # in this run or when the baseline was captured.
                    warnings.append(
                        f"{name}: {plan['key']}={row_key} {metric} not "
                        "measured — skipped")
                    continue
                if base_v <= 0:
                    warnings.append(
                        f"{name}: {plan['key']}={row_key} {metric} has "
                        f"non-positive baseline {base_v} — skipped")
                    continue
                if direction == "lower":
                    delta = cur_v / base_v - 1.0
                else:
                    delta = base_v / cur_v - 1.0 if cur_v > 0 else float("inf")
                level = "ok"
                if delta > args.fail_threshold:
                    if kind == "ratio" or strict:
                        level = "FAIL"
                        failures.append(
                            f"{name}: {plan['key']}={row_key} {metric} "
                            f"regressed {delta * 100.0:+.1f}% "
                            f"({base_v:g} -> {cur_v:g})")
                    else:
                        level = "warn"
                        warnings.append(
                            f"{name}: {plan['key']}={row_key} {metric} "
                            f"regressed {delta * 100.0:+.1f}% (absolute "
                            "metric: warn-only; EMP_RATCHET_STRICT=1 to "
                            "fail)")
                elif delta > args.warn_threshold:
                    level = "warn"
                    warnings.append(
                        f"{name}: {plan['key']}={row_key} {metric} "
                        f"regressed {delta * 100.0:+.1f}%")
                results.append((table_id, row_key, metric, kind, base_v,
                                cur_v, delta, level))
    return results, cores, warnings, failures


def render(results, cores, warnings, failures):
    header = ["table", "row", "metric", "kind", "baseline", "current",
              "delta", "status"]
    lines = []
    rows = [header] + [
        [t, r, m, k, f"{b:g}", f"{c:g}", f"{d * 100.0:+.1f}%", lvl]
        for t, r, m, k, b, c, d, lvl in results
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    core_line = "nproc (baseline/current): " + ", ".join(
        f"{t} {'-' if b is None else b}/{'-' if c is None else c}"
        for t, b, c in cores)
    lines.append(core_line)
    text = "\n".join(lines)

    md = ["### Perf ratchet: bench vs committed baselines", "",
          "| " + " | ".join(header) + " |",
          "|" + "|".join("---" for _ in header) + "|"]
    for row in rows[1:]:
        md.append("| " + " | ".join(row) + " |")
    md.append("")
    md.append(core_line)
    if warnings:
        md.append("")
        md.append("**Warnings**")
        md.extend(f"- {w}" for w in warnings)
    if failures:
        md.append("")
        md.append("**Failures**")
        md.extend(f"- {f}" for f in failures)
    return text, "\n".join(md) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="bench-json")
    parser.add_argument("--fail-threshold", type=float, default=0.25)
    parser.add_argument("--warn-threshold", type=float, default=0.10)
    args = parser.parse_args()

    results, cores, warnings, failures = compare(args)
    text, md = render(results, cores, warnings, failures)
    print(text)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for f in failures:
        print(f"FAILURE: {f}", file=sys.stderr)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write(md)

    if failures:
        return 1
    if not results:
        # Nothing compared at all is a configuration problem worth seeing.
        print("warning: no metrics compared", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
