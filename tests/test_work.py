"""tools/work.py: exact work counts of one answer in process, the same on
every run, and the averages of one seed-0 round of a perfbench workload."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "work.py")


@pytest.fixture(scope="module")
def work():
    spec = importlib.util.spec_from_file_location("work", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*argv):
    # a fresh process without PYTHONHASHSEED: the tool pins it itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return subprocess.run([sys.executable, TOOL, *argv], capture_output=True, text=True,
                          env=env, check=True).stdout.splitlines()


def test_two_runs_give_the_same_counts():
    argv = ["--top", "3", "modular", "unramified", "--type", "A2", "--p", "5", "--weight", "1,2"]
    first, second = run(*argv), run(*argv)
    assert first == second
    row = json.loads(first[0])
    assert row["command"] == "modular unramified --type A2 --p 5 --weight 1,2"
    assert row["bytecodes"] > 0 and row["calls"] > 0
    # the top functions, most calls first, each "calls function"
    calls = [float(line.split(" ", 1)[0]) for line in first[1:]]
    assert len(calls) == 3 and calls == sorted(calls, reverse=True)


def test_the_warm_up_answers_the_same_command_on_another_input(work):
    assert work.warmup_argv(["modular", "poincare", "--type", "A2", "--p", "5",
                             "--weight", "1,2"])[-1] == "0,0"
    assert work.warmup_argv(["modular", "poincare", "--type", "A2", "--p", "5",
                             "--weight", "0,0"])[-1] == "1,1"
    assert work.warmup_argv(["quantum", "blocks", "--type", "A2", "--ell", "5",
                             "--chi-s", "0,0"])[-1] == "1/2,1/2"
    argv = ["quantum", "exceptional", "--type", "G2"]
    assert work.warmup_argv(argv) == argv
    # no --chi-s, or an empty one, is the zero character
    assert work.warmup_argv(["modular", "blocks", "--type", "A3", "--p", "5"])[-2:] == [
        "--chi-s", "1,1,1"]
    assert work.warmup_argv(["quantum", "structure", "--type", "B2", "--ell", "5",
                             "--chi-s", ""])[-2:] == ["--chi-s", "1/2,1/2"]


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "A3", "--p", "5"],
    ["quantum", "blocks", "--type", "B2", "--ell", "5"],
])
def test_the_counted_answer_is_not_the_warm_up_s(argv, work, monkeypatch):
    # the warm-up walks another Phi' or fiber, so the counted answer makes a
    # walk of its own and adds its entry to the memo
    from lieram import weyl
    monkeypatch.setattr(weyl._walks, "entries", {})
    monkeypatch.setattr(weyl._walks, "total", 0)
    sizes, count = [], work.count

    def counted(fn):
        sizes.append(len(weyl._walks.entries))
        out = count(fn)
        sizes.append(len(weyl._walks.entries))
        return out
    monkeypatch.setattr(work, "count", counted)
    work.answer_counts(argv, 0)
    assert sizes[1] == sizes[0] + 1


def test_a_workload_round_is_counted_per_label():
    rows = [json.loads(line) for line in run("--workload", "mod-nilpotent", "--top", "0")]
    assert {row["label"]: row["answers"] for row in rows} == {
        "modular blocks": 8, "modular poincare": 12, "modular finite-type": 8,
        "modular unramified": 32}
    assert all(row["bytecodes"] > row["calls"] > 0 for row in rows)


@pytest.mark.parametrize("argv,spellings", [
    (["quantum", "blocks", "--type", "B2", "--ell", "5", "--chi-s", "0,0"],
     ["0/1,0/1", "0, 0"]),
    (["modular", "blocks", "--type", "A3", "--p", "5", "--chi-s", "0,0,0"], ["5,10,0"]),
])
def test_a_zero_spelled_otherwise_warms_up_as_zero(argv, spellings, work):
    # the warm-up reads the value as the CLI does, so another spelling of
    # zero warms up on ones as well, and its answer walks as the canonical
    # one does; a Fraction literal parses in a few more bytecodes than "0"
    assert work.warmup_argv(argv)[-1] in ("1/2,1/2", "1,1,1")
    canonical = json.loads(run("--top", "0", *argv)[0])["bytecodes"]
    for text in spellings:
        spelled = [*argv[:-1], text]
        assert work.warmup_argv(spelled) == work.warmup_argv(argv)
        bytecodes = json.loads(run("--top", "0", *spelled)[0])["bytecodes"]
        assert abs(bytecodes - canonical) <= canonical / 100, (text, bytecodes, canonical)
