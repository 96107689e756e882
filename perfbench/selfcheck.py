"""Self-check of the benchmark itself; runs in seconds.

    python3 perfbench/selfcheck.py

For every workload it draws a warm-up and MAX_ROUNDS rounds, checks that the
stream is deterministic per seed and never repeats an input, answers a handful of the
cheap queries and requires them to pass; then it corrupts answers in several
ways and requires each corruption to be counted as failed, and traces a few
queries to show that tracing leaves stdout byte-identical and restores every
wrapped function.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from answer import Outcome, answer  # noqa: E402
from checks import check, command_of  # noqa: E402
from tracer import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import MAX_ROUNDS, WORKLOADS, Stream  # noqa: E402

SEED = 12345


def expect(cond, msg):
    if not cond:
        sys.stderr.write(f"selfcheck FAILED: {msg}\n")
        sys.exit(1)


def cheap(q):
    t = q.ctype
    if "blocks" in q.label:
        return int(t[1:]) <= 2
    return int(t[1:]) <= 4 and t not in ("B4", "C4", "F4")


def check_streams():
    picked = []
    for wl in WORKLOADS.values():
        a, b = Stream(wl, SEED), Stream(wl, SEED)
        warm, rnd = a.warmup(), a.next_round()
        idents = [q.ident for q in warm + rnd]
        expect(idents == [q.ident for q in b.warmup() + b.next_round()],
               f"{wl.name}: same seed must give the same queries")
        expect(len(set(idents)) == len(idents), f"{wl.name}: an input repeats")
        other = Stream(wl, SEED + 1)
        expect([q.ident for q in other.warmup() + other.next_round()] != idents,
               f"{wl.name}: another seed must give other queries")
        expect(len(rnd) == len(wl.round), f"{wl.name}: round has the wrong size")
        for _ in range(MAX_ROUNDS - 1):
            a.next_round()  # every cell holds enough distinct inputs for a run
        seen = set()
        for q in warm + rnd:
            if q.label not in seen and cheap(q):
                seen.add(q.label)
                picked.append(q)
    return picked


def check_answers(queries):
    good = {}
    for q in queries:
        out = answer(q)
        _d, problems = check(q, out)
        expect(not problems, f"{q.ident}: {problems}")
        if out.rc == 0:
            good.setdefault(command_of(q), (q, out))
    return good


def corrupt(out, edit):
    data = json.loads(out.stdout)
    edit(data)
    return Outcome(0, json.dumps(data), "", out.seconds)


CORRUPTIONS = {
    "modular.blocks": lambda a: a["blocks"][0].__setitem__("dim", a["blocks"][0]["dim"] + 1),
    "modular.poincare": lambda a: a["coefficients"].append(1),
    "modular.unramified": lambda a: a.__setitem__("definitional", not a["definitional"]),
    "modular.finite-type": lambda a: a.__setitem__("verdict", "semisimple-ish"),
    "quantum.blocks": lambda a: a["blocks"][-1].__setitem__("orbit_size", 0),
    "quantum.unramified": lambda a: a.__setitem__("highestWeight", not a["highestWeight"]),
    "quantum.exceptional": lambda a: a["elements"].pop(),
    "verify.appendix": lambda a: a.__setitem__("all_ok", False),
}


def check_corruptions(good):
    for cmd, (q, out) in good.items():
        if cmd in CORRUPTIONS:
            _d, problems = check(q, corrupt(out, CORRUPTIONS[cmd]))
            expect(problems, f"corrupted {cmd} answer was not counted as failed")
        _d, problems = check(q, corrupt(out, lambda a: a.pop("command")))
        expect(problems, f"{cmd} answer lacking a projected key passed")
    q, out = next(iter(good.values()))
    for bad in (Outcome(2, "", "usage", 0.0), Outcome(None, "", "", 0.0, "Traceback\nBoom"),
                Outcome(1, "", "", 0.0), Outcome(0, "not json", "", 0.0)):
        _d, problems = check(q, bad)
        expect(problems, f"outcome rc={bad.rc} was not counted as failed")
    d, problems = check(q, Outcome(1, "", "error: domain\n", 0.0))
    expect(not problems, "a documented domain error (exit 1) must pass")
    runner = Runner(WORKLOADS["quantum"], SEED)
    runner.pins = {q.ident: "0" * 64}
    expect(runner.judge(q, out), "an answer differing from its pinned digest passed")
    data = json.loads(out.stdout)
    data["added_by_a_later_version"] = 1
    d_new, problems = check(q, Outcome(0, json.dumps(data), "", 0.0))
    expect(not problems and d_new == check(q, out)[0], "an added key must not change the digest")


def check_tracer(queries):
    import lieram.weyl
    original = lieram.weyl.enumerate_group
    plain = [answer(q).stdout for q in queries]
    tracer = Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        expect(lieram.weyl.enumerate_group is not original, "tracer did not wrap")
        for i, q in enumerate(queries):
            with tracer.root(f"q{i}"):
                out = answer(q)
            expect(out.stdout == plain[i], f"{q.ident}: stdout differs when traced")
    finally:
        tracer.restore()
    expect(tracer.restored() and lieram.weyl.enumerate_group is original,
           "tracer did not restore the originals")
    metrics = per_layer_metrics({}, tracer.totals(start=mark), 1, 0.0)
    expect([m for m in metrics] == [name for name, _u, _b in PER_LAYER],
           "per-layer metrics incomplete")
    expect(metrics["cli.self_s"]["value"] > 0, "no cli self time recorded")


def main():
    picked = check_streams()
    good = check_answers(picked)
    check_corruptions(good)
    check_tracer(picked[:6])
    expect(sorted(good) == sorted(CORRUPTIONS), f"commands not covered: {sorted(good)}")
    print(f"selfcheck ok: {len(picked)} queries answered and checked, "
          f"{len(good)} commands corrupted and caught, tracing byte-identical")


if __name__ == "__main__":
    main()
