#!/usr/bin/env python3
"""End-to-end benchmark: builds the aac_e2e binary and runs its workloads.

Run from anywhere inside a checkout of the repository:

  python3 bench/e2e/run.py                     # BENCHMARK.json's workloads, untraced
  python3 bench/e2e/run.py --trace             # per-layer metrics + Chrome traces
  python3 bench/e2e/run.py --workload analyst --seed 3 --trace 0
  python3 bench/e2e/run.py --workload analyst  # the paper's sessions; not gated
  python3 bench/e2e/run.py --smoke             # every workload, tiny, twice; counters must repeat
  python3 bench/e2e/run.py --runs 5 --traced-runs 1 --out bench/e2e/baseline.json
  python3 bench/e2e/run.py --pairs 10 --base HEAD~1   # then bench/e2e/compare.py

aac_e2e is built into build-e2e/ at the repository root (CMake, Release).
Every run's timed phase lasts BENCHMARK.json's run_seconds; --seconds, when
given, must equal it. Without --workload, the workloads are those
BENCHMARK.json lists (a --smoke run takes every workload). Each workload
runs in its own process. Every metric is printed as
`workload metric value unit (n=samples)`, all runs are written to a results
JSON (build-e2e/results/results.json unless --out is given), and the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json for an
untraced run, its per-layer metrics for a traced one. With several
workloads the metric keys are prefixed with `workload.`. The exit code is 0
only when every run's answers, invariants and workload checks passed.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
# Every workload aac_e2e knows. BENCHMARK.json lists all but analyst, whose
# complete-hit rate spreads ~8% over seeds in a run of run_seconds (see
# README.md).
WORKLOADS = ["analyst", "dashboard", "spill", "refresh"]
# Counters that repeat exactly between two --smoke runs.
SMOKE_COUNTERS = ["complete_hit_pct", "backend.chunks_per_query",
                  "result_cache.hit_pct", "tier.warm_pct"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing", 2)
    return json.loads(path.read_text())


def check_tree(src_root):
    if not (src_root / "CMakeLists.txt").is_file() or not (src_root / "src").is_dir():
        fail(f"{src_root} holds no repository source (CMakeLists.txt and src/); "
             "the benchmark builds the program from it", 2)


def build(src_root, build_dir):
    """Configures (once) and builds aac_e2e; returns its path."""
    check_tree(src_root)
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(src_root / "bench" / "e2e"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(build_dir), "--target", "aac_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")
    return build_dir / "aac_e2e"


def run_workload(binary, workload, seed, seconds, trace, smoke, results_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--results-dir", str(results_dir)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} seed {seed} printed no result (exit {p.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = p.returncode
    return result


def print_metrics(result, end_to_end):
    for name, m in result["metrics"].items():
        if m["end_to_end"] != end_to_end:
            continue
        n = f" (n={m['n']})" if m["n"] >= 0 else ""
        print(f"{result['workload']} {name} {m['value']:.6g} {m['unit']}{n}")
    if not result["correct"]:
        bad = [k for k, c in result["checks"].items() if not c["ok"]]
        print(f"{result['workload']} FAILED checks: {', '.join(bad)}")


def ok(result):
    return result["exit_code"] == 0 and result["correct"]


def git_sha():
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_results(path, runs, seconds):
    first = runs[0] if runs else {}
    doc = {
        "git_sha": git_sha(),
        "hardware_threads": first.get("hardware_threads"),
        "avx2": first.get("avx2"),
        "machine": platform.machine(),
        "seconds": seconds,
        "runs": runs,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def summary_line(runs, bench, traced):
    """The last stdout line: BENCHMARK.json's metrics of the given kind."""
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    prefix = len({r["workload"] for r in runs}) > 1
    metrics = {}
    for r in runs:
        for spec in wanted:
            m = r["metrics"].get(spec["name"])
            if m is None:
                fail(f"{r['workload']} did not report {spec['name']}")
            key = f"{r['workload']}.{spec['name']}" if prefix else spec["name"]
            metrics[key] = {"value": m["value"], "unit": spec["unit"]}
    return {
        "correct": all(ok(r) for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def smoke(binary, workloads, seed, seconds, results_dir):
    counters = []
    runs = []
    for attempt in range(2):
        seen = {}
        for w in workloads:
            r = run_workload(binary, w, seed, seconds, False, True, results_dir)
            runs.append(r)
            seen[w] = {k: r["metrics"][k]["value"] for k in SMOKE_COUNTERS}
            print(f"smoke run {attempt + 1} {w} " +
                  " ".join(f"{k}={v}" for k, v in seen[w].items()))
        counters.append(seen)
    same = counters[0] == counters[1]
    if not same:
        print("smoke counters differ between the two runs", file=sys.stderr)
    return runs, same


def pairs(args, bench, workloads):
    """Alternating base/head runs with identical benchmark code."""
    base_dir = BUILD / "base"
    src = base_dir / "src"
    if src.exists():
        shutil.rmtree(src)
    src.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(src)
    # The base runs this commit's benchmark code over its own program.
    shutil.rmtree(src / "bench" / "e2e", ignore_errors=True)
    shutil.copytree(HERE, src / "bench" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "*.json"))
    binaries = {"base": build(src, base_dir / "build"), "head": build(ROOT, BUILD)}
    results = {"base": [], "head": []}
    results_dir = BUILD / "results"
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            for side in order:
                r = run_workload(binaries[side], w, args.seed + i, bench["run_seconds"],
                                 False, False, results_dir)
                r["side"] = side
                results[side].append(r)
                print(f"pair {i + 1} {side} {w} qps={r['metrics']['qps']['value']:.6g}",
                      file=sys.stderr)
    for side in ("base", "head"):
        write_results(results_dir / f"{side}.json", results[side], bench["run_seconds"])
    cmd = [sys.executable, str(HERE / "compare.py"), str(results_dir / "base.json"),
           str(results_dir / "head.json")]
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json's run_seconds, which sets the "
                             "timed phase of every run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                        help="traced run: per-layer metrics and Chrome traces")
    parser.add_argument("--runs", type=int, default=None,
                        help="untraced runs per workload, seeds S, S+1, ...")
    parser.add_argument("--traced-runs", type=int, default=None,
                        help="traced runs per workload after the untraced ones")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--base", default=None, help="base revision for --pairs")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        fail(f"--seconds {args.seconds:g} differs from BENCHMARK.json's run_seconds "
             f"{seconds}", 2)
    workloads = args.workload or (
        WORKLOADS if args.smoke else [w["name"] for w in bench["workloads"]])
    check_tree(ROOT)
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    if args.pairs > 0:
        if args.base is None:
            fail("--pairs needs --base REV", 2)
        return pairs(args, bench, workloads)

    binary = build(ROOT, BUILD)
    if args.smoke:
        runs, same = smoke(binary, workloads, args.seed, seconds, results_dir)
        write_results(args.out or results_dir / "smoke.json", runs, seconds)
        good = same and all(ok(r) for r in runs)
        print(json.dumps(summary_line(runs[:len(workloads)], bench, False)))
        return 0 if good else 1

    untraced = args.runs if args.runs is not None else (0 if args.trace else 1)
    traced = args.traced_runs if args.traced_runs is not None else (1 if args.trace else 0)
    runs = []
    for i in range(untraced + traced):
        is_traced = i >= untraced
        for w in workloads:
            r = run_workload(binary, w, args.seed + (i if not is_traced else i - untraced),
                             seconds, is_traced, False, results_dir)
            runs.append(r)
            print_metrics(r, end_to_end=not is_traced)
    write_results(args.out or results_dir / "results.json", runs, seconds)
    # The metrics are those of the first run of each workload of the kind
    # asked for; the counts cover every run.
    traced_only = untraced == 0
    shown = [r for r in runs if r["trace"] == traced_only][:len(workloads)]
    line = summary_line(shown, bench, traced_only)
    line["correct"] = all(ok(r) for r in runs)
    line["attempted"] = sum(r["attempted"] for r in runs)
    line["failed"] = sum(r["failed"] for r in runs)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
