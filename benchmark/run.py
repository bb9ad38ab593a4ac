#!/usr/bin/env python3
"""The repository benchmark: builds the measuring program and runs the
workloads BENCHMARK.json declares.

  python3 benchmark/run.py                    every workload, default seed
  python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1
  python3 benchmark/run.py --trace            per-layer run of every workload
  python3 benchmark/run.py --smoke            every workload at 1/50 size,
                                              2 launches, every check on
  python3 benchmark/run.py --calibrate OUT --runs 10 --first-seed 1
  python3 benchmark/run.py --compare A B      verdict per metric x workload

Each run prints its metrics by name with their units, then, as the last
line of stdout, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 only when every check passed.  See
benchmark/README.md for the workloads, metrics and bounds.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "modcon_bench")
OUT = os.path.join(BUILD, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")

THREADS = 2          # workers per timed run (calibrated on 4 CPUs)
LAUNCHES = 50        # timed launches per run, at least
SETUP_PROCESSES = 5  # setup_s is the median over this many processes
SMOKE_SCALE = 50     # --smoke: cells at 1/50 of their size ...
SMOKE_LAUNCHES = 2   # ... and 2 timed launches
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# The machine-speed reference kernel's time on 2 threads at the speed the
# reported walls are scaled to (about its median on the 4-CPU machine the
# bounds were calibrated on); any fixed value compares commits fairly.
REFERENCE_NOMINAL_MS = 8.5

# Bounds before calibration (choosing-metrics guide §1); --compare
# suggests max(this, 3 x the observed spread) as the calibrated bound.
INITIAL_BOUNDS = {
    "trials_per_s": 0.05, "decisions_per_s": 0.05, "sim_steps_per_s": 0.05,
    "launch_ms_p50": 0.05, "launch_ms_p80": 0.10, "peak_rss_mb": 0.10,
    "setup_s": 0.20,
}
MAX_BOUND = 0.25


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {what} {path}: {e}")


def build():
    """Configures and builds build-bench/ from the repository's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"the modcon sources (src/) are not next to {HERE}; "
            "run from a full checkout")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "modcon_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build failed: {e}")
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)} exited {done.returncode}")


def run_child(args, timeout=CHILD_TIMEOUT_S):
    """Runs modcon_bench; returns (its JSON result line, the lines before)."""
    try:
        done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"modcon_bench {' '.join(args)} ran past {timeout} s", 1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        die(f"modcon_bench {' '.join(args)} exited {done.returncode}", 1)
    try:
        return json.loads(lines[-1]), lines[:-1]
    except ValueError:
        die(f"modcon_bench {' '.join(args)} printed no result line", 1)


def percentile(values, q):
    """Nearest-rank percentile: p80 of 50 samples leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_run(spec, workload, seed, seconds, smoke):
    """Setup processes, then the timed process.  Returns the result dict,
    and the machine slowdown with the unscaled values for the records."""
    common = ["--workload", workload, "--seed", str(seed),
              "--threads", str(THREADS), "--out", OUT]
    if smoke:
        common += ["--scale", str(SMOKE_SCALE)]
    failures, attempted, failed = [], 0, 0

    setup_walls = []
    for _ in range(1 if smoke else SETUP_PROCESSES):
        start = time.perf_counter()
        r, _ = run_child(common + ["--mode", "setup"])
        setup_walls.append(time.perf_counter() - start)
        attempted += r["attempted"]
        failed += r["failed"]
        failures += r["failures"]

    launches = SMOKE_LAUNCHES if smoke else LAUNCHES
    r, _ = run_child(common + ["--mode", "timed",
                               "--seconds", str(0 if smoke else seconds),
                               "--launches", str(launches)])
    attempted += r["attempted"]
    failed += r["failed"]
    failures += r["failures"]

    pinned = load_json(DIGESTS, "digest file")
    kind = "smoke" if smoke else "timed"
    digest_ok = True
    if seed == pinned["seed"]:
        want = pinned[kind].get(workload)
        digest_ok = r["digest"] == want
        if not digest_ok:
            failures.append(f"result digest {r['digest'] or '(incomplete)'} "
                            f"!= pinned {want} ({kind}, seed {seed})")

    # Walls are reported at the reference machine speed: divided by the
    # machine's slowdown, the run's median reference-kernel time over its
    # nominal (README).
    slowdown = statistics.median(r["reference_ms"]) / REFERENCE_NOMINAL_MS
    raw = {
        "trials_per_s": r["trials"] / r["wall_s"],
        "decisions_per_s": r["decisions"] / r["wall_s"],
        "sim_steps_per_s": r["steps"] / r["wall_s"],
        "launch_ms_p50": statistics.median(r["launch_ms"]),
        "launch_ms_p80": percentile(r["launch_ms"], 0.80),
        "setup_s": statistics.median(setup_walls),
    }
    values = {name: v * slowdown if name.endswith("_per_s") else v / slowdown
              for name, v in raw.items()}
    values["peak_rss_mb"] = r["peak_rss_mb"]
    notes = {name: f"raw {v:.4f}" for name, v in raw.items()}
    notes["trials_per_s"] += f", {r['trials']} trials in {r['wall_s']:.3f} s"
    notes["launch_ms_p50"] += f", {r['launches']} launches"
    notes["launch_ms_p80"] += (
        f", {r['launches']} launches, "
        f"{r['launches'] - math.ceil(0.8 * r['launches'])} above")
    notes["setup_s"] += f", median of {len(setup_walls)} processes"
    metrics = declared(spec["end_to_end"], values)
    print(f"== {workload}  seed {seed}  {r['threads']} threads  "
          f"digest {r['digest']}{'' if digest_ok else ' (MISMATCH)'}  "
          f"machine slowdown {slowdown:.3f}")
    show(metrics, notes)
    res = result(metrics, attempted, failed, failures, digest_ok)
    return res, {"slowdown": slowdown, "raw": raw}


def trace_run(spec, workload, seed, smoke):
    args = ["--workload", workload, "--seed", str(seed), "--mode", "trace",
            "--threads", str(THREADS), "--out", OUT]
    if smoke:
        args += ["--scale", str(SMOKE_SCALE)]
    r, lines = run_child(args)
    print(f"== {workload}  seed {seed}  traced, single-threaded")
    for line in lines:
        print(line)
    failures = list(r["failures"])
    trace_ok = check_trace_file(os.path.join(ROOT, r["trace_file"]), failures)
    metrics = declared(spec["per_layer"], r["layers"])
    show(metrics, {})
    print("table only (layer not on every workload's path):")
    for name, value in r["table_only"].items():
        print(f"  {name:<36} {value:>16.4f}")
    return result(metrics, r["attempted"], r["failed"], failures, trace_ok)


def check_trace_file(path, failures):
    """The trace must parse as JSON and every span's parent must be in it."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        orphans = [e for e in events
                   if e["args"]["parent"] is not None
                   and e["args"]["parent"] not in ids]
    except (OSError, ValueError, KeyError, TypeError) as e:
        failures.append(f"trace file {path}: {e}")
        return False
    if orphans or not events:
        failures.append(f"trace file {path}: {len(orphans)} spans whose parent "
                        f"is missing, {len(events)} spans")
        return False
    print(f"trace: {len(events)} spans in {os.path.relpath(path, ROOT)}")
    return True


def declared(entries, values):
    """The metrics BENCHMARK.json names, in its order, with its units."""
    metrics = {}
    for entry in entries:
        name = entry["name"]
        if name not in values:
            die(f"the measuring program did not report {name}", 1)
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return metrics


def show(metrics, notes):
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {m['value']:>16.4f} {m['unit']}{note}")


def result(metrics, attempted, failed, failures, checks_ok):
    for f in failures:
        print(f"FAILED: {f}")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {"correct": failed == 0 and checks_ok and finite and not failures,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(spec, args, trace):
    """Every workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        r = (trace_run(spec, w["name"], args.seed, args.smoke) if trace
             else timed_run(spec, w["name"], args.seed, args.seconds,
                            args.smoke)[0])
        merged["correct"] &= r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            merged["metrics"][f"{w['name']}/{name}"] = m
    return merged


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version()}


def calibrate(spec, args):
    """Runs every workload --runs times on seeds first-seed.. and writes the
    results set.  Each seed is one round over every workload, so drift on
    the machine spreads over the workloads alike."""
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"],
           "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "runs": []}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in spec["workloads"]:
            r, info = timed_run(spec, w["name"], seed, args.seconds, False)
            doc["runs"].append({"workload": w["name"], "seed": seed,
                                "result": r, **info})
            with open(args.calibrate, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            if not r["correct"]:
                die(f"{w['name']} seed {seed} failed its checks", 1)


def spread(values):
    """Interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, better, bound):
    """One metric on one workload, A = parent, B = change (choosing-metrics
    guide §6-§8): regressed if B's median is worse by more than the bound;
    unresolved if either side's spread is wider than the bound, unless every
    B run beats every A run; improved if B wins at least 9 of 10 pairs and
    the medians differ by more than A's own interquartile range."""
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / ma
    if max(spread(a), spread(b)) > bound:
        every_run_better = (min(b) > max(a) if better == "higher"
                            else max(b) < min(a))
        return ("improved" if every_run_better else "unresolved"), change
    if change < -bound:
        return "regressed", change
    q1, _, q3 = statistics.quantiles(a, n=4)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if change > 0 and abs(mb - ma) > q3 - q1 and wins >= 0.9 * len(pairs):
        return "improved", change
    return "no worse", change


def compare(spec, path_a, path_b):
    sets = [load_json(p, "results set") for p in (path_a, path_b)]
    by = [{}, {}]
    for k, doc in enumerate(sets):
        for run in doc["runs"]:
            for name, m in run["result"]["metrics"].items():
                by[k].setdefault((run["workload"], name), []).append(m["value"])
    metrics = spec["end_to_end"]
    regressed = False
    print(f"A = {path_a}\nB = {path_b}\n")
    print(f"{'workload':<24}" + "".join(f"{m['name']:>22}" for m in metrics))
    details = []
    for w in spec["workloads"]:
        row = f"{w['name']:<24}"
        for m in metrics:
            key = (w["name"], m["name"])
            if key not in by[0] or key not in by[1]:
                row += f"{'missing':>22}"
                continue
            a, b = by[0][key], by[1][key]
            v, change = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            row += f"{v + f' {100 * change:+.1f}%':>22}"
            worst = max(spread(a), spread(b))
            suggested = min(MAX_BOUND, max(INITIAL_BOUNDS.get(m["name"], 0),
                                           3 * worst))
            details.append(
                f"{w['name']:<24} {m['name']:<16} median A {statistics.median(a):>14.4f}"
                f"  B {statistics.median(b):>14.4f}  spread A {100 * spread(a):5.2f}%"
                f"  B {100 * spread(b):5.2f}%  bound {100 * m['bound']:5.1f}%"
                f"  3x spread {100 * suggested:5.1f}%  (n={len(a)}/{len(b)})")
        print(row)
    print("\nspread = interquartile range / median; 3x spread = the bound "
          "calibration suggests, max(initial, 3 x the wider spread), capped "
          f"at {100 * MAX_BOUND:.0f}%")
    for line in details:
        print(line)
    return not regressed


def main():
    spec = load_json(SPEC, "benchmark declaration")
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="per-layer traced run (bare flag = 1)")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--calibrate", metavar="OUT")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    if args.compare:
        sys.exit(0 if compare(spec, *args.compare) else 1)
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.calibrate:
        calibrate(spec, args)
        sys.exit(0)
    if args.smoke:
        start = time.perf_counter()
        timed = run_all(spec, args, trace=False)
        traced = run_all(spec, args, trace=True)
        res = {"correct": timed["correct"] and traced["correct"],
               "attempted": timed["attempted"] + traced["attempted"],
               "failed": timed["failed"] + traced["failed"],
               "metrics": {**timed["metrics"], **traced["metrics"]}}
        print(f"smoke: {time.perf_counter() - start:.1f} s")
    elif args.workload:
        res = (trace_run(spec, args.workload, args.seed, False) if args.trace
               else timed_run(spec, args.workload, args.seed, args.seconds,
                              False)[0])
    else:
        res = run_all(spec, args, trace=bool(args.trace))
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
