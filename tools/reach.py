"""The functions of src/lieram that a fixed set of runs never enters.

    python3 tools/reach.py

The runs, all in this process with their stdout discarded: every thunk of
tests/test_golden_manifest.cases(), every suite of lieram.selftest, every
script in demos/, and the warm-up plus one seed-0 round of each perfbench
workload, each answer checked as perfbench checks it.  A function is entered
when a frame of its code is called while sys.setprofile watches; lieram is
first imported under the watch, so calls made at import time count too.
Every def counts, nested ones and methods included; lambdas do not.

Prints one line per production module (selftest.py aside): its name and how
many of its functions no run entered, then one indented line per such
function, its line number and qualified name.  A function listed here may
still be reached by a test or by another input; the list says where to look
before removing code, not what to remove.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lieram"


def functions(path):
    """{first line of the code object: qualified name} of each def in the
    module at `path`; a decorated function's code starts at its first
    decorator."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = name
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)
    visit(ast.parse(pathlib.Path(path).read_text(), str(path)), "")
    return out


def entered(runs):
    """(file, first line) of every code object called while the runs run."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)
    sys.setprofile(profile)
    try:
        for run in runs:
            run()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def unreached(paths, runs):
    """{path: [(line, qualified name)]} of the functions in the modules at
    `paths` that no run enters, in line order."""
    seen = entered(runs)
    out = {}
    for path in paths:
        real = os.path.realpath(path)
        out[path] = [(line, name) for line, name in sorted(functions(path).items())
                     if (real, line) not in seen]
    return out


def _quiet(fn):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            fn()
    return run


def _golden_manifest():
    import test_golden_manifest
    for _key, thunk in test_golden_manifest.cases():
        thunk()


def _selftest():
    from lieram import selftest
    for suite in selftest.SUITES.values():
        suite()


def _demos():
    for path in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _perfbench():
    from answer import answer
    from checks import check
    from workloads import DEFAULT_SEED, WORKLOADS, Stream
    for name in sorted(WORKLOADS):
        stream = Stream(WORKLOADS[name], DEFAULT_SEED)
        for q in stream.warmup() + stream.next_round():
            check(q, answer(q))


def main():
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(ROOT / sub))
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "selftest.py"]
    runs = [_quiet(fn) for fn in (_golden_manifest, _selftest, _demos, _perfbench)]
    for path, missed in unreached(paths, runs).items():
        print(f"{path.name}: {len(missed)} of {len(functions(path))} functions never entered")
        for line, name in missed:
            print(f"  {line:5}  {name}")


if __name__ == "__main__":
    main()
