#!/usr/bin/env python3
"""Builds and runs the closed-loop QASCA benchmark.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload er_fscore --seed 1 --seconds 20 --trace 0

builds perfbench/ (and the library sources under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload and passes its report through; the last line of standard output
is the JSON result. Build output goes to standard error.

Steadiness mode repeats chosen workloads over consecutive seeds and prints,
per metric, the median, the quartiles, the run count and the spread
between the quartiles as a share of the median, flagged when it exceeds
the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload pool_1e5,er_fscore --seed 1

With --against OTHER_CHECKOUT the same benchmark code is also built against
OTHER_CHECKOUT's src/ and the two sides run in alternating pairs on the same
seeds (parent and change, for a later change that claims a gain).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must exit within 180 s; a run that hangs is killed before.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(source_root, build_dir):
    """Configures and builds qasca_perfbench; returns the binary or None."""
    if not os.path.isfile(os.path.join(source_root, "src", "CMakeLists.txt")):
        print(f"perfbench: no QASCA sources under {source_root}/src",
              file=sys.stderr)
        return None
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # Serialises concurrent runs sharing one build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         f"-DQASCA_ROOT={source_root}"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                return None
        if subprocess.call(["cmake", "--build", build_dir, "-j",
                            str(BUILD_JOBS), "--target", "qasca_perfbench"],
                           stdout=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, "qasca_perfbench")


def run_once(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    work_dir = os.path.join(build_dir, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.Popen(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, out
    finally:
        # The binary removes its private journal directory itself, unless
        # it was killed or aborted.
        shutil.rmtree(os.path.join(work_dir, f"qasca-perfbench.{proc.pid}"),
                      ignore_errors=True)
    return proc.returncode, out


def parse_result(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def steady(args, binary, build_dir, other):
    bounds = load_bounds()
    failed_runs = 0
    for workload in args.workload.split(","):
        sides = {"this": {}, "against": {}}
        wins = {}
        for i in range(args.steady):
            seed = args.seed + i
            order = [("this", binary, build_dir)]
            if other:
                pair = ("against", other[0], other[1])
                order = [order[0], pair] if i % 2 == 0 else [pair, order[0]]
            results = {}
            for side, side_binary, side_dir in order:
                code, out = run_once(side_binary, side_dir, workload, seed,
                                     args.seconds, args.trace)
                result = parse_result(out)
                if code != 0 or result is None or not result.get("correct"):
                    failed_runs += 1
                    print(f"{workload} seed {seed} ({side}): run failed "
                          f"(exit {code})")
                    continue
                results[side] = result["metrics"]
                print(f"{workload} seed {seed} ({side}): " + ", ".join(
                    f"{name}={metric['value']:.6g}"
                    for name, metric in result["metrics"].items()),
                    flush=True)
                for name, metric in result["metrics"].items():
                    sides[side].setdefault(name, []).append(metric["value"])
            if other and len(results) == 2:
                for name, metric in results["this"].items():
                    better = bounds.get(name, {}).get("better", "lower")
                    mine = metric["value"]
                    theirs = results["against"][name]["value"]
                    won = mine > theirs if better == "higher" else mine < theirs
                    wins.setdefault(name, []).append(won)
        print(f"\n{workload}: {args.steady} seeds from {args.seed}, "
              f"--seconds {args.seconds} --trace {args.trace}")
        header = (f"  {'metric':34} {'unit':9} {'n':>3} {'median':>12} "
                  f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        print(header)
        for name, values in sides["this"].items():
            spec = bounds.get(name, {})
            median, q1, q3, spread = summarize(values)
            bound = spec.get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD > BOUND"
            if name.endswith("_self_ms") and abs(median) <= q3 - q1:
                flag += "  unresolved"
            print(f"  {name:34} {spec.get('unit', ''):9} {len(values):>3} "
                  f"{median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
            theirs = sides["against"].get(name)
            if theirs:
                parent, p1, p3, _ = summarize(theirs)
                change = (median - parent) / abs(parent) if parent else 0.0
                won = wins.get(name, [])
                print(f"  {'':34} {'against':9} {len(theirs):>3} "
                      f"{parent:>12.6g} {p1:>12.6g} {p3:>12.6g}   "
                      f"change {change:+.3f}, this side won "
                      f"{sum(won)}/{len(won)} pairs")
    return 1 if failed_runs else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or a comma list with --steady")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat each workload over N seeds")
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="with --steady: pair with another checkout")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    build_dir = os.path.join(build_base(), "perfbench")
    binary = build(ROOT, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.steady > 0:
        other = None
        if args.against:
            root = os.path.abspath(args.against)
            tag = hashlib.sha1(root.encode()).hexdigest()[:10]
            other_dir = os.path.join(build_base(), f"perfbench-against-{tag}")
            other_binary = build(root, other_dir)
            if other_binary is None:
                print("perfbench: build of --against failed", file=sys.stderr)
                return 1
            other = (other_binary, other_dir)
        return steady(args, binary, build_dir, other)
    code, out = run_once(binary, build_dir, args.workload, args.seed,
                         args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
