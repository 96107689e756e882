"""Exact work counts of answers in process: bytecodes and Python calls.

    python3 tools/work.py [--top K] ARGV...
    python3 tools/work.py --workload W [--top K]

ARGV is a command after `lieram`.  The script answers a warm-up command in
this process, then ARGV, with stdout captured, and prints for ARGV one JSON
line: the bytecodes it ran (sys.settrace opcode events) and the calls
cProfile counts (Python and built-in functions), then its K functions with
the most calls (default 10) as "calls function" lines.  The warm-up is
ARGV's own command on another input: the first of --weight, --torus or
--chi-s set to a list of as many zeros, or to ones (1/2 for a quantum
exponent) when the command reads it as all zeros already (by value, so
0/1,0/1, or 5,10,0 at p = 5, is zero).  A command that takes --chi-s but
was given none, or an empty one, has the zero character, so it warms up
with --chi-s set to ones (1/2); a command with none of these flags warms
up on ARGV itself.

--workload W counts one seed-0 round of perfbench's workload W the way
perfbench/worker.py runs it: its set-up (root systems and fields), its
warm-up answers, then the round's queries in order, each counted alone.
It prints one JSON line per query label, with the number of answers and
their average counts, then the top functions of the label's answers
summed.  perfbench/ is read, never changed.

Counts do not depend on the host's speed.  They may depend on the order of
set iteration, so the script runs itself again under PYTHONHASHSEED=0 when
that is not already set: two runs give the same counts.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import cProfile
import io
import json
import os
import pstats
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

_VALUE_FLAGS = ("--weight", "--torus", "--chi-s")


def warmup_argv(argv):
    """ARGV's own command on another input (see the module docstring)."""
    from lieram.cli import GRAMMAR
    from lieram.rootdata import check_cartan_type
    argv = list(argv)
    flag = next((flag for flag in _VALUE_FLAGS if flag in argv[:-1]), None)
    leaf = GRAMMAR.get(tuple(argv[:2]))
    if flag is None and leaf and any(f.name == "--chi-s" for f in leaf[1]):
        flag, argv = "--chi-s", [*argv, "--chi-s", ""]
    if flag is not None:
        i = argv.index(flag) + 1
        if argv[i].strip():
            count = argv[i].count(",") + 1
        else:  # the zero character, of the type's rank
            count = sum(n for _l, n in check_cartan_type(argv[argv.index("--type") + 1]))
        other = "1/2" if argv[0] == "quantum" else "1"
        argv[i] = ",".join([other if _is_zero(argv, argv[i], count) else "0"] * count)
    return argv


def _is_zero(argv, text, count):
    """Whether ARGV's command reads the value list `text` as all zeros (an
    empty one is the zero character): parsed as the CLI parses it, so that
    0/1,0/1 on the quantum side or 5,10,0 at p = 5 is zero too.  A list the
    CLI refuses is not zero."""
    from lieram import cli
    from lieram.errors import LieramError
    from lieram.scalars import make_field
    if not text.strip():
        return True
    try:
        if argv[0] == "quantum":
            return not any(cli.parse_torus(text, count).nums)
        base = make_field(int(argv[argv.index("--p") + 1]), 1)
        return not any(map(any, cli.parse_field_slots(text, base, count)[0]))
    except (cli.UsageError, LieramError, ValueError, IndexError):
        return False


def _count_opcodes(counter):
    def local(frame, event, _arg):
        if event == "opcode":
            counter[0] += 1
        return local

    def start(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return local
    return start


def count(fn):
    """(bytecodes, calls, calls per function) of one call of fn(), its stdout
    and stderr captured; the counting's own frames are left out."""
    opcodes, prof = [0], cProfile.Profile()

    def traced():
        sys.settrace(_count_opcodes(opcodes))
        try:
            fn()
        finally:
            sys.settrace(None)
    with _captured():
        prof.runcall(traced)
    per_function = collections.Counter()
    for (path, line, name), (_cc, calls, *_rest) in pstats.Stats(prof).stats.items():
        if path == __file__ or name in ("<built-in method sys.settrace>",
                                         "<method 'disable' of '_lsprof.Profiler' objects>"):
            continue
        where = name if path == "~" else f"{os.path.relpath(path, ROOT)}:{line}({name})"
        per_function[where] += calls
    return opcodes[0], sum(per_function.values()), per_function


@contextlib.contextmanager
def _captured():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def _cli(argv):
    from lieram import cli
    return lambda: cli.main(list(argv))


def _top(per_function, k, scale=1):
    return [f"{calls / scale:g} {where}" for where, calls in
            sorted(per_function.items(), key=lambda item: (-item[1], item[0]))[:k]]


def answer_counts(argv, top=10):
    """The output lines for one answer of ARGV after its warm-up."""
    with _captured():
        _cli(warmup_argv(argv))()
    bytecodes, calls, per_function = count(_cli(argv))
    row = {"command": " ".join(argv), "bytecodes": bytecodes, "calls": calls}
    return [json.dumps(row, sort_keys=True), *_top(per_function, top)]


def workload_counts(name, top=10):
    """The output lines for one seed-0 round of a perfbench workload."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from answer import _api_modular_blocks, answer
    from worker import setup
    from workloads import WORKLOADS, Stream
    workload = WORKLOADS[name]
    setup(workload)
    stream = Stream(workload, 0)
    for q in stream.warmup():
        answer(q)
    labels = {}
    for q in stream.next_round():
        fn = _cli(q.argv) if q.argv is not None else (lambda q=q: _api_modular_blocks(q.spec))
        bytecodes, calls, per_function = count(fn)
        label = labels.setdefault(q.label, [0, 0, 0, collections.Counter()])
        label[0] += 1
        label[1] += bytecodes
        label[2] += calls
        label[3].update(per_function)
    lines = []
    for label, (n, bytecodes, calls, per_function) in sorted(labels.items()):
        lines.append(json.dumps({"workload": name, "label": label, "answers": n,
                                 "bytecodes": round(bytecodes / n, 1),
                                 "calls": round(calls / n, 1)}, sort_keys=True))
        lines += _top(per_function, top, n)
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload of perfbench/workloads.py")
    ap.add_argument("--top", type=int, default=10)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if (args.workload is None) == (not args.argv):
        ap.error("give either ARGV or --workload")
    lines = (workload_counts(args.workload, args.top) if args.workload
             else answer_counts(args.argv, args.top))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
