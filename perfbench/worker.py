"""One benchmark process: a fresh interpreter, one thread, one closed-loop
client.  run.py starts it; it prints one JSON object as its last line.

  --mode setup   time the set-up alone (import lieram, build every root
                 system and field the workload touches), then time the
                 reference work, and exit
  --mode run     set up, warm up, then answer rounds of the workload until
                 --seconds of answering time is reached (or MAX_ROUNDS),
                 checking every answer outside the timed interval
  --mode trace   the same with half the rounds' time, then replay the same
                 rounds with the tracer installed, requiring byte-identical
                 stdout, and report per-layer totals
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from before lieram is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from answer import answer  # noqa: E402
from checks import check  # noqa: E402
from hostspeed import reference_seconds, speed_factor, time_reference  # noqa: E402
from workloads import DEFAULT_SEED, MAX_ROUNDS, WORKLOADS, Stream  # noqa: E402


def setup(workload):
    import lieram
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(lieram.__file__).startswith(src + os.sep):
        raise SystemExit(f"lieram imported from {lieram.__file__}, not from {src}")
    for t in workload.types:
        lieram.build_root_system(t)
    for p, e in workload.fields:
        lieram.make_field(p, e)


def stdout_digest(out) -> str:
    return hashlib.sha256(f"{out.rc}\n{out.stdout}".encode()).hexdigest()


def load_pins(workload, seed):
    if seed != DEFAULT_SEED:
        return {}
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(workload.name, {})


class Runner:
    def __init__(self, workload, seed):
        self.stream = Stream(workload, seed)
        self.pins = load_pins(workload, seed)
        self.attempted = 0
        self.failures = []
        self.pinned_checked = 0
        self.labels = {}

    def judge(self, q, out):
        d, problems = check(q, out)
        pinned = self.pins.get(q.ident)
        if pinned is not None:
            self.pinned_checked += 1
            if pinned != d:
                problems.append("projection digest differs from the pinned one")
        return problems

    def timed_rounds(self, seconds):
        """Answer whole rounds until the answering time is nearest `seconds`.

        After each query (outside its timed interval) the reference work is
        timed too; a round's median reference time measures the host's speed
        while the round ran."""
        rounds, walls, latencies, refs, stdout_digests = [], [], [], [], []
        while len(rounds) < MAX_ROUNDS:
            if walls and sum(walls) + statistics.mean(walls) / 2 >= seconds:
                break
            qs = self.stream.next_round()
            lat, ref = [], []
            for q in qs:
                out = answer(q)
                lat.append(out.seconds)
                stdout_digests.append(stdout_digest(out))
                self.attempted += 1
                self.labels[q.label] = self.labels.get(q.label, 0) + 1
                problems = self.judge(q, out)
                if problems:
                    self.failures.append(f"{q.ident}: {'; '.join(problems)}")
                ref.append(time_reference())
            rounds.append(qs)
            walls.append(sum(lat))
            latencies.append(lat)
            refs.append(statistics.median(ref))
        return rounds, walls, latencies, refs, stdout_digests

    def warmup(self):
        for q in self.stream.warmup():
            out = answer(q)
            self.attempted += 1
            problems = self.judge(q, out)
            if problems:
                self.failures.append(f"warm-up {q.ident}: {'; '.join(problems)}")


def traced_replay(tracer, rounds, stdout_digests):
    """Replay the rounds traced: (round walls, round reference times,
    stdout mismatches)."""
    walls, refs, mismatches, k = [], [], [], 0
    tracer.install()
    try:
        for r, qs in enumerate(rounds):
            wall, ref = 0.0, []
            for i, q in enumerate(qs):
                with tracer.root(f"r{r}q{i}"):
                    out = answer(q)
                wall += out.seconds
                if stdout_digest(out) != stdout_digests[k]:
                    mismatches.append(f"{q.ident}: stdout differs when traced")
                k += 1
                ref.append(time_reference())
            walls.append(wall)
            refs.append(statistics.median(ref))
    finally:
        tracer.restore()
    return walls, refs, mismatches


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    if args.mode != "trace":
        setup(wl)
        setup_s = time.perf_counter() - T0
        setup_ref_s = reference_seconds()
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref_s}))
            return
    else:
        import lieram  # noqa: F401  (imports cannot be traced; set-up can)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root("setup", "setup"):
                setup(wl)
        finally:
            tracer.restore()
        after_setup = tracer.mark()

    runner = Runner(wl, args.seed)
    runner.warmup()
    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    rounds, walls, latencies, refs, digests = runner.timed_rounds(seconds)
    result = {
        "rounds": len(rounds),
        "round_walls": walls,
        "round_latencies": latencies,
        "round_refs": refs,
        "attempted": runner.attempted,
        "labels": runner.labels,
        "pinned_checked": runner.pinned_checked,
    }
    if args.mode == "run":
        result["setup"] = [setup_s, setup_ref_s]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import per_layer_metrics
        traced_walls, traced_refs, mismatches = traced_replay(tracer, rounds, digests)
        runner.failures += mismatches
        overhead = statistics.median(
            t * speed_factor(ref_t) - u * speed_factor(ref_u)
            for t, ref_t, u, ref_u in zip(traced_walls, traced_refs, walls, refs))
        result["restored"] = tracer.restored()
        result["per_layer"] = per_layer_metrics(
            tracer.totals(end=after_setup), tracer.totals(start=after_setup),
            len(rounds), overhead)
        result["traced_round_walls"] = traced_walls
        if args.spans:
            tracer.write_jsonl(args.spans)
    result["failures"] = runner.failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
