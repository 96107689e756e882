"""Pin the projection digests of the default seed.

    python3 perfbench/pin.py [workload ...]

Answers every query the default seed can generate (warm-up and MAX_ROUNDS
rounds) once, untimed, and writes perfbench/digests.json.  A run at the
default seed then fails any answer whose projection differs from the pinned
one.  Re-pin only when an answer is meant to change, and say why.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from answer import answer  # noqa: E402
from checks import check  # noqa: E402
from workloads import DEFAULT_SEED, MAX_ROUNDS, WORKLOADS, Stream  # noqa: E402

PATH = os.path.join(HERE, "digests.json")


def pin(workload):
    stream = Stream(workload, DEFAULT_SEED)
    queries = stream.warmup()
    for _ in range(MAX_ROUNDS):
        queries += stream.next_round()
    digests = {}
    for q in queries:
        d, problems = check(q, answer(q))
        if problems:
            raise SystemExit(f"refusing to pin a failing answer: {q.ident}: {problems}")
        digests[q.ident] = d
    return digests


def main():
    names = sys.argv[1:] or sorted(WORKLOADS)
    pins = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            pins = json.load(fh)
    for name in names:
        pins[name] = pin(WORKLOADS[name])
        print(f"{name}: {len(pins[name])} digests")
    with open(PATH, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
