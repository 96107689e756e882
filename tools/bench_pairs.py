"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_28.json \\
        [--pairs 10] [--workload W ...] [--seed S ...] [--trace 0] \\
        [--claim TEXT] [--workdir DIR]

PARENT and CHANGE are commits of this repository; each side runs from its
own clean clone at its commit, under --workdir (by default a temporary
directory, removed at the end).  For every workload (default: all in
BENCHMARK.json) and seed (default 0), pair k runs
`python3 perfbench/run.py --workload W --seed S --trace T` once on each
side, one after the other, the parent first when k is even.  The run length
is run.py's own default; each run's env line records it.  A run that exits
nonzero or fails an answer check stops the pairs: the runs made so far, the
stopping one included, are written with `claim_met` false and no summary,
and the script exits 1.

The output holds every run (its environment, attempted and failed answers,
and end-to-end metrics) and a summary per workload, seed and end-to-end
metric of BENCHMARK.json: both medians, the parent's quartiles (inclusive
method) and extremes, the change's extremes, the number of pairs in which
the change's value was lower, and the relative change of the medians.  Each
row also carries the metric's `bound` and `better` direction from
BENCHMARK.json and three verdicts, "better" and "worse" read in that
direction and a pair tied counting for neither side:
  worse_than_bound  the change's median is worse than the parent's by more
                    than the bound (relative to the parent's median);
  unresolved        the parent's interquartile range exceeds the bound
                    (relative to its median), and not every change run is
                    better than every parent run;
  gain_resolved     the change is better in at least 9 of 10 pairs, and its
                    median is better than the parent's by more than the
                    parent's interquartile range.

Once the pairs have all run, each side also counts its work:
`python3 tools/work.py --workload W --top 0` in its clone, for every
workload, gives one seed-0 round's average bytecodes and Python calls per
query label.  `work` lists one row per workload and label with both sides'
counts and the relative change of the bytecodes; a side whose count did not
finish gives its error in place of its counts.  Counts are not time: the
timed pairs decide.

    python3 tools/bench_pairs.py PARENT CHANGE --probes --out F [--pairs 10]

With --probes the pairs time the cold CLI instead: every command of
tools/probes.py's PROBES, run as probes.run runs it (a fresh `python3 -m
lieram.cli` child of the side's clone, with PYTHONDONTWRITEBYTECODE=1 and
without LIERAM_BOUND, its stdout hashed in chunks as it is read).  In pair
k each probe runs once on each side, one after the other, the parent first
when k is even.  The output holds every run (wall seconds, the child's peak
RSS in MB, exit status and digest) and, per probe, for `seconds` and
`peak_rss_mb`: both medians, the parent's quartiles, the number of pairs in
which the change's value was lower and the relative change of the medians;
and each side's pinned verdict, true when every run of that side gave the
digest PROBES holds.  No bound is applied and no gain is judged: the
rows describe the cold cost, the benchmark's workloads decide.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import probes  # noqa: E402  (tools/probes.py)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def clone(commit, where):
    git("clone", "--quiet", "--no-checkout", ROOT, where)
    git("checkout", "--quiet", "--detach", commit, cwd=where)
    return where


def run_once(checkout, workload, seed, trace):
    """One perfbench run in `checkout`: its environment line and its result, or
    None and the reason it did not finish."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                      f"{proc.stderr[-2000:]}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return env, json.loads(lines[-1])


def run_work(checkout, workload):
    """The rows tools/work.py prints for one seed-0 round of `workload` in
    `checkout`, keyed by query label, or None and the reason it did not
    finish."""
    cmd = [sys.executable, "tools/work.py", "--workload", workload, "--top", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, (f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                      f"{proc.stderr[-2000:]}")
    rows = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {row["label"]: row for row in rows}, None


def work_rows(checkouts, workloads):
    """Per workload and query label, both sides' work counts (run_work); one
    row with each side's error for a workload whose counts did not finish."""
    rows = []
    for workload in workloads:
        counts = {side: run_work(checkout, workload) for side, checkout in checkouts.items()}
        failed = {f"{side}_error": error for side, (_rows, error) in counts.items() if error}
        if failed:
            rows.append({"workload": workload, **failed})
            continue
        for label in dict.fromkeys(label for side_rows, _error in counts.values()
                                   for label in side_rows):
            row = {"workload": workload, "label": label}
            for side, (side_rows, _error) in counts.items():
                row.update((f"{side}_{name}", side_rows.get(label, {}).get(name))
                           for name in ("answers", "bytecodes", "calls"))
            if row["parent_bytecodes"] and row["change_bytecodes"]:
                row["relative_bytecodes"] = row["change_bytecodes"] / row["parent_bytecodes"] - 1
            rows.append(row)
    return rows


def compare(side):
    """One metric's values by pair, side = {"parent": {pair: value},
    "change": {pair: value}}: both medians, the parent's quartiles
    (inclusive method), the pairs in which the change's value was lower and
    the relative change of the medians."""
    parent, change = list(side["parent"].values()), list(side["change"].values())
    q1, _q2, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    pm, cm = statistics.median(parent), statistics.median(change)
    return {"parent_median": pm, "change_median": cm, "parent_q1": q1, "parent_q3": q3,
            "change_lower_in_pairs": sum(side["change"][k] < v
                                         for k, v in side["parent"].items()),
            "relative_change": (cm - pm) / pm}


def summarize(runs, metrics):
    """The summary rows of `runs` per workload, seed, trace and metric, the
    metrics given as BENCHMARK.json's end_to_end entries (name, better,
    bound)."""
    def cell_of(run):
        return run["workload"], run["seed"], run["trace"]

    summary = []
    for workload, seed, trace in dict.fromkeys(map(cell_of, runs)):
        cell = [r for r in runs if cell_of(r) == (workload, seed, trace)]
        for spec in metrics:
            metric, bound = spec["name"], spec["bound"]
            side = {s: {r["pair"]: r["metrics"][metric] for r in cell if r["side"] == s}
                    for s in ("parent", "change")}
            parent, change = list(side["parent"].values()), list(side["change"].values())
            row = compare(side)
            pm, cm = row["parent_median"], row["change_median"]
            iqr = row["parent_q3"] - row["parent_q1"]
            # sign * value is lower where the value is better
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * side["change"][k] < sign * v for k, v in side["parent"].items())
            every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
            summary.append({
                "workload": workload, "seed": seed, "trace": trace, "metric": metric,
                "pairs": len(parent), **row,
                "change_min": min(change), "change_max": max(change),
                "parent_min": min(parent), "parent_max": max(parent),
                "bound": bound, "better": spec["better"],
                "worse_than_bound": sign * (cm - pm) > bound * pm,
                "unresolved": iqr > bound * pm and not every_run_better,
                "gain_resolved": wins * 10 >= 9 * len(parent) and sign * (pm - cm) > iqr,
            })
    return summary


def pair_runs(checkouts, workloads, seeds, metrics, args):
    """Every run, pair by pair, the parent side first in even pairs, and the
    reason the pairs stopped early (None when they all ran)."""
    runs = []
    for workload in workloads:
        for seed in seeds:
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    env, result = run_once(checkouts[side], workload, seed, args.trace)
                    run = {"workload": workload, "seed": seed, "pair": k, "side": side,
                           "trace": args.trace}
                    runs.append(run)
                    if env is None:
                        run["error"] = result
                        return runs, f"{side} did not finish on {workload} seed {seed}"
                    run.update({
                        "git_commit": env["git_commit"],
                        "source_sha256": env["source_sha256"], "failed": result["failed"],
                        "attempted": result["attempted"], "rounds": env["rounds"],
                        "seconds": env["seconds"], "python": env["python"],
                        "nproc": env["nproc"], "cpu_model": env["cpu_model"],
                        "metrics": {m: result["metrics"][m]["value"] for m in metrics},
                    })
                    print(f"{workload} seed {seed} pair {k} {side}: "
                          + ", ".join(f"{m} {v:.6g}" for m, v in run["metrics"].items()),
                          flush=True)
                    if result["failed"]:
                        return runs, (f"{side} failed {result['failed']} of "
                                      f"{result['attempted']} answers on {workload} seed {seed}")
    return runs, None


def probe_pairs(checkouts, pairs):
    """Every cold probe run, pair by pair and probe by probe, the parent side
    first in even pairs."""
    runs = []
    for k in range(pairs):
        for command, _pin in probes.PROBES:
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                seconds, rss, sha, code = probes.run(shlex.split(command), checkouts[side])
                runs.append({"pair": k, "side": side, "command": command,
                             "seconds": seconds, "peak_rss_mb": rss, "exit": code,
                             "sha256": sha})
            print(f"pair {k} {command}: " + ", ".join(
                f"{r['side']} {r['seconds']:.3f} s {r['peak_rss_mb']:.1f} MB"
                for r in runs[-2:]), flush=True)
    return runs


def summarize_probes(runs):
    """One row per probe of `runs`: compare's figures for its wall seconds
    and its peak RSS, and each side's pinned verdict."""
    rows = []
    for command, pin in probes.PROBES:
        mine = [r for r in runs if r["command"] == command]
        row = {"command": command, "pairs": len(mine) // 2}
        for side in ("parent", "change"):
            row[f"{side}_pinned"] = all(r["sha256"] == pin for r in mine if r["side"] == side)
        for metric in ("seconds", "peak_rss_mb"):
            row[metric] = compare({s: {r["pair"]: r[metric] for r in mine if r["side"] == s}
                                   for s in ("parent", "change")})
        rows.append(row)
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--claim", default="none")
    ap.add_argument("--workdir")
    ap.add_argument("--probes", action="store_true",
                    help="time tools/probes.py's cold CLI commands instead of the benchmark")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (the quartiles need two values)")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = args.seed or [0]
    metrics = [m["name"] for m in bench["end_to_end"]]
    commits = {"parent": git("rev-parse", args.parent + "^{commit}"),
               "change": git("rev-parse", args.change + "^{commit}")}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: clone(commit, os.path.join(args.workdir or tmp, side))
                     for side, commit in commits.items()}
        if args.probes:
            return write_probes(args, commits, probe_pairs(checkouts, args.pairs))
        runs, stopped = pair_runs(checkouts, workloads, seeds, metrics, args)
        work = None if stopped else work_rows(checkouts, workloads)
    seconds = sorted({r["seconds"] for r in runs if "seconds" in r})
    out = {
        "what": (f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                 f"--seed S --trace T` (its default --seconds, "
                 f"{', '.join(f'{s:g}' for s in seconds) or 'unknown'} in its env line), "
                 "each side run from its own clean git clone; the pair index decides which "
                 "side ran first (even: parent first). "
                 f"Seed {', '.join(map(str, seeds))} on {', '.join(workloads)}, "
                 f"{args.pairs} pairs each; written by tools/bench_pairs.py."),
        "parent": commits["parent"],
        "change": commits["change"],
        "claim": args.claim,
    }
    if stopped:
        out.update({"claim_met": False, "stopped": stopped, "summary": None})
    else:
        out["summary"] = summarize(runs, bench["end_to_end"])
        out["work"] = work
    out["runs"] = runs
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    if stopped:
        sys.exit(f"bench_pairs: {stopped}; {len(runs)} runs written to {args.out}")


def write_probes(args, commits, runs):
    """Write the cold probe runs and their rows per probe to args.out."""
    out = {
        "what": (f"Alternating parent/change pairs of every tools/probes.py command, each run "
                 f"cold as `python3 -m lieram.cli` from its side's clean git clone, "
                 f"PYTHONDONTWRITEBYTECODE=1, LIERAM_BOUND unset; {args.pairs} pairs, the "
                 "pair index deciding which side ran first (even: parent first); written "
                 "by tools/bench_pairs.py --probes."),
        "parent": commits["parent"], "change": commits["change"], "claim": args.claim,
        "probes": summarize_probes(runs), "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
