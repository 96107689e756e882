"""Seeded query-mix benchmark for lieram.

    python3 perfbench/run.py --workload mod-nilpotent --seed 0 --seconds 30 --trace 0

Run from the root of a checkout (the engine is imported from ./src).  Each
run starts fresh interpreters (worker.py) so that set-up is measured cold:

  --trace 0  SETUP_RUNS set-ups (the worker's own plus SETUP_RUNS - 1
             set-up-only processes) and one worker that answers whole rounds
             of the workload for about --seconds of answering time.  Prints
             the end-to-end metrics.
  --trace 1  one worker that answers rounds for half of --seconds untraced,
             then replays the same rounds with every layer's public functions
             wrapped (tracer.py), and prints the per-layer metrics.

Times are reported at a reference host speed: a fixed piece of pure-Python
work (hostspeed.reference_work) is timed after every query, and each round's
times are multiplied by speed_factor(its median reference time); set-up
times likewise.  The raw times are printed and kept in the detail file.

Every answer is checked (checks.py); the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Details, the recorded
environment and the spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import speed_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 3
DEADLINE_S = 170  # a run must end within 180 s
OUT_DIR = ".perfbench"


def fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(1)


def spawn(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("worker exceeded the run deadline: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def environment(args, rounds):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join("src", "lieram")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "setup_runs": SETUP_RUNS if not args.trace else 1}


def end_to_end(work, setups):
    """The end-to-end metrics at reference host speed, and the raw ones."""
    scale = [speed_factor(ref) for ref in work["round_refs"]]
    lat_ms = [x * 1000 * f for f, lat in zip(scale, work["round_latencies"]) for x in lat]
    raw_ms = [x * 1000 for lat in work["round_latencies"] for x in lat]
    scaled = {
        "setup_s": statistics.median(s * speed_factor(ref) for s, ref in setups),
        "wall_s": statistics.median(w * f for w, f in zip(work["round_walls"], scale)),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }
    raw = {
        "setup_s": statistics.median(s for s, _ref in setups),
        "wall_s": statistics.median(work["round_walls"]),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
    }
    units = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}
    metrics["peak_rss_mb"] = {"value": work["peak_rss_mb"], "unit": "MB"}
    return metrics, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "lieram", "__init__.py")):
        fail("run from the root of a lieram checkout (src/lieram not found)")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        work = spawn(common + ["--mode", "trace", "--seconds", str(args.seconds),
                               "--spans", stem + "-spans.jsonl"], deadline)
        metrics = work["per_layer"]
        if not work["restored"]:
            work["failures"].append("tracer left a wrapped attribute behind")
    else:
        setups = [spawn(common + ["--mode", "setup"], deadline)
                  for _ in range(SETUP_RUNS - 1)]
        setups = [(s["setup_s"], s["ref_s"]) for s in setups]
        work = spawn(common + ["--mode", "run", "--seconds", str(args.seconds)], deadline)
        setups.append(tuple(work["setup"]))
        metrics, raw = end_to_end(work, setups)
        work["raw_end_to_end"] = raw

    attempted, failed = work["attempted"], len(work["failures"])
    env = environment(args, work["rounds"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"queries per run: {json.dumps(work['labels'], sort_keys=True)}; "
          f"{work['rounds']} rounds, {sum(map(len, work['round_latencies']))} timed samples, "
          f"{work['pinned_checked']} checked against pinned digests")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print("  raw (unscaled): " + ", ".join(
            f"{k} {v:.6g}" for k, v in work["raw_end_to_end"].items())
            + "; reference work per round (ms): "
            + " ".join(f"{x * 1000:.3f}" for x in work["round_refs"]))
    print(f"  {'fail_ratio':40s} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for f in work["failures"][:20]:
        print(f"  FAILED {f}")
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "raw": work}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
