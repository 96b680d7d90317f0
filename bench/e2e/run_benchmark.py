#!/usr/bin/env python3
"""Runs the end-to-end FaCT benchmark (bench/e2e/README.md).

Run from the repository root:

  python3 bench/e2e/run_benchmark.py --workload W --seed N --seconds S \\
      --trace 0|1 [--record FILE]
      One run of one workload. Builds bench/e2e (library, emp_cli,
      e2e_bench) on first use, packs the workload's maps with
      `emp_cli pack` into a fresh directory at least three times (the
      median counts toward setup_s), runs e2e_bench on the last one, prints every metric
      with its unit, and ends with one JSON line:
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end-to-end metrics, --trace 1 the per-layer ones, 0 for a layer the
      workload does not cross (and writes trace_<workload>.json into the
      build directory). --record appends the run to a JSON-lines file for
      `compare`.

  python3 bench/e2e/run_benchmark.py all [--seed N] [--seconds S] [--record FILE]
      Every workload untraced, then every workload traced.

  python3 bench/e2e/run_benchmark.py compare A.jsonl B.jsonl
      Per (workload, metric): median and quartiles of each side and a
      verdict — better, worse, unchanged, or unresolved when the spread
      between a side's own runs is wider than the metric's bound.

The build goes to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e under
the repository root); inputs and results live there too.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
# Set-up repeats until it has run SETUP_MIN_REPS times and SETUP_MIN_S
# seconds (at most SETUP_MAX_REPS times); setup_s counts its median.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die(message):
    log("run_benchmark: " + message)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "e2e")


def ensure_built():
    """Configures and builds bench/e2e; returns (e2e_bench, emp_cli)."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} is missing under {ROOT}: the benchmark builds the "
                "solver from the repository's sources")
    build = build_dir()
    configure = ["cmake", "-S", HERE, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    compile_cmd = ["cmake", "--build", build, "-j", str(nproc()),
                   "--target", "e2e_bench", "emp_cli"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return (os.path.join(build, "e2e_bench"),
            os.path.join(build, "emp", "tools", "emp_cli"))


def pack_inputs(emp_cli, datasets, prefix, parent):
    """Packs `datasets` into a fresh directory; returns it."""
    directory = tempfile.mkdtemp(prefix=prefix + "-", dir=parent)
    try:
        for dataset in datasets:
            subprocess.run(
                [emp_cli, "pack", "--dataset", dataset, "--no-geometry",
                 "--out", os.path.join(directory, dataset + ".emp")],
                check=True, stdout=subprocess.DEVNULL)
    except subprocess.CalledProcessError:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return directory


def run_one(workload, seed, seconds, trace):
    """One run of one workload; returns the result (None if it crashed)."""
    bench, emp_cli = ensure_built()
    build = build_dir()
    inputs = os.path.join(build, "inputs")
    os.makedirs(inputs, exist_ok=True)
    started = time.monotonic()
    datasets = subprocess.run(
        [bench, "--workload", workload, "--datasets"], check=True,
        capture_output=True, text=True).stdout.split()

    pack_s = []
    directory = None
    while len(pack_s) < SETUP_MAX_REPS and (
            len(pack_s) < SETUP_MIN_REPS or sum(pack_s) < SETUP_MIN_S):
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        t = time.perf_counter()
        try:
            directory = pack_inputs(emp_cli, datasets, workload, inputs)
        except subprocess.CalledProcessError as error:
            log(f"run_benchmark: packing failed: {error}")
            return None
        pack_s.append(time.perf_counter() - t)

    out = os.path.join(build, f"result-{workload}-{os.getpid()}.json")
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--inputs", directory, "--out", out]
    if trace:
        cmd += ["--traced", "--trace-out",
                os.path.join(build, f"trace_{workload}.json")]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=budget)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if not os.path.exists(out):
        log(f"run_benchmark: e2e_bench {workload} produced no result "
            f"(exit {code})")
        return None
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    if not trace and "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] += statistics.median(pack_s)

    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    if undeclared:
        log(f"run_benchmark: not in BENCHMARK.json: {undeclared}")
        result["correct"] = False
    for m in declared:
        if m["name"] in metrics:
            continue
        if trace:
            # A layer this workload's path does not cross.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log(f"run_benchmark: end-to-end metric {m['name']} missing")
            result["correct"] = False
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared
                         if m["name"] in metrics}
    for error in result.get("errors", []):
        log("run_benchmark: " + error)
    return result


def print_result(workload, trace, result):
    print(f"# {workload} ({'traced' if trace else 'untraced'}), "
          f"nproc={nproc()}: attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}")


def record(path, workload, seed, seconds, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "seconds": seconds, "trace": trace,
                            "nproc": nproc(), **result}) + "\n")


def result_line(result):
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def cmd_run(args):
    workloads = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; one of {workloads}")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print_result(args.workload, args.trace, result)
    if args.record:
        record(args.record, args.workload, args.seed, args.seconds,
               args.trace, result)
    print(result_line(result))
    return 0 if result["correct"] else 1


def cmd_all(args):
    workloads = [w["name"] for w in load_benchmark()["workloads"]]
    ok = True
    for trace in (0, 1):
        for workload in workloads:
            result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                continue
            print_result(workload, trace, result)
            if args.record:
                record(args.record, workload, args.seed, args.seconds, trace,
                       result)
            ok = ok and result["correct"]
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """a, b: {seed: value}. better: "lower"/"higher". bound: share or None.

    A bound of 0 (the quality metrics) compares seed by seed (every run
    against every run when the sides share no seed): worse if B is worse in
    any pair, better if B is better in one and worse in none, unchanged if
    every pair is equal. Otherwise: unresolved
    when either side's quartile spread (as a share of its median) exceeds
    the bound, unless every run of one side beats every run of the other;
    worse when B's median is worse by more than the bound; better when B
    wins at least 9 in 10 pairs (by seed where both sides ran it) and the
    medians differ by more than A's quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        seeds = sorted(set(a) & set(b))
        pairs = [(a[s], b[s]) for s in seeds] or [
            (x, y) for x in a.values() for y in b.values()]
        gains = [sign * (x - y) for x, y in pairs]
        if any(g < 0 for g in gains):
            return "worse"
        return "better" if any(g > 0 for g in gains) else "unchanged"
    av, bv = list(a.values()), list(b.values())
    a1, am, a3 = quartiles(av)
    b1, bm, b3 = quartiles(bv)
    scale = abs(am) or 1.0
    b_dominates = all(sign * (x - y) < 0 for x in bv for y in av)
    a_dominates = all(sign * (x - y) > 0 for x in bv for y in av)
    if bound is None:
        if am == bm:
            return "unchanged"
        return "better" if b_dominates else "worse" if a_dominates \
            else "unresolved"
    spread = max((a3 - a1) / scale, (b3 - b1) / (abs(bm) or 1.0))
    if spread > bound:
        return "better" if b_dominates else "worse" if a_dominates \
            else "unresolved"
    worse_by = sign * (bm - am) / scale
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(a) & set(b))
    pairs = [(a[s], b[s]) for s in seeds] or [(x, y) for x in av for y in bv]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
    if worse_by < 0 and wins >= 0.9 and abs(bm - am) > a3 - a1:
        return "better"
    return "unchanged"


def cmd_compare(args):
    bench = load_benchmark()
    directions = {}
    for m in bench["end_to_end"]:
        directions[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        directions[m["name"]] = (m["better"], None)

    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                run = json.loads(line)
                key = (run["workload"], run["trace"])
                for name, metric in run["metrics"].items():
                    runs.setdefault(key, {}).setdefault(name, {})[
                        run["seed"]] = metric["value"]
        return runs

    a, b = load(args.a), load(args.b)
    print(f"{'workload':14s} {'metric':34s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s}  verdict")
    for key in sorted(set(a) & set(b)):
        for name in a[key]:
            if name not in b[key] or name not in directions:
                continue
            better, bound = directions[name]
            av, bv = a[key][name], b[key][name]
            qa, qb = quartiles(list(av.values())), quartiles(list(bv.values()))
            cell = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"{key[0]:14s} {name:34s} {cell.format(*qa):>34s} "
                  f"{cell.format(*qb):>34s}  "
                  f"{verdict(av, bv, better, bound)}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run_benchmark.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return cmd_compare(parser.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        parser = argparse.ArgumentParser(prog="run_benchmark.py all")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float,
                            default=load_benchmark()["run_seconds"])
        parser.add_argument("--record")
        return cmd_all(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    return cmd_run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
