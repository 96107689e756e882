"""The verdicts tools/bench_pairs.py writes in each summary row, on synthetic
runs: a regression past the bound, a parent spread wider than the bound, and
a gain that wins 9 of 10 pairs by more than the parent's interquartile
range, read in the metric's own direction.  And its stop path, with git,
the clones and the runs stubbed: a run that fails an answer or exits
nonzero stops the pairs, and the runs made so far are written with no
summary."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pairs):
    return bench_pairs.summarize


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 0.015
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.35

# name: (better, parent runs, change runs, worse_than_bound, unresolved, gain_resolved)
CASES = {
    "unchanged": ("lower", TIGHT, TIGHT[::-1], False, False, False),
    "gain": ("lower", TIGHT, [v * 0.9 for v in TIGHT], False, False, True),
    "gain_in_8_pairs": ("lower", TIGHT, [0.9] * 8 + [1.5, 1.5], False, False, False),
    "gain_inside_the_spread": ("lower", TIGHT, [v - 0.01 for v in TIGHT], False, False, False),
    "regression": ("lower", TIGHT, [v * 1.3 for v in TIGHT], True, False, False),
    "regression_within_bound": ("lower", TIGHT, [v * 1.2 for v in TIGHT], False, False, False),
    "spread_past_the_bound": ("lower", WIDE, WIDE[::-1], False, True, False),
    "spread_but_every_run_better": ("lower", WIDE, [0.5] * 10, False, False, True),
    "higher_is_better_gain": ("higher", TIGHT, [v * 1.1 for v in TIGHT], False, False, True),
    "higher_is_better_regression": ("higher", TIGHT, [v * 0.7 for v in TIGHT], True, False,
                                    False),
    "ties_count_for_neither": ("lower", TIGHT, TIGHT, False, False, False),
}


def test_each_summary_row_carries_its_verdicts(summarize):
    metrics = [{"name": name, "better": better, "bound": 0.25}
               for name, (better, *_rest) in CASES.items()]
    runs = [{"workload": "w", "seed": 0, "trace": 0, "pair": k, "side": side,
             "metrics": {name: case[1 if side == "parent" else 2][k]
                         for name, case in CASES.items()}}
            for k in range(10) for side in ("parent", "change")]
    rows = {row["metric"]: row for row in summarize(runs, metrics)}
    assert sorted(rows) == sorted(CASES)
    for name, (better, _parent, _change, worse, unresolved, gain) in CASES.items():
        row = rows[name]
        assert (row["bound"], row["better"], row["pairs"]) == (0.25, better, 10), name
        assert (row["worse_than_bound"], row["unresolved"], row["gain_resolved"]) == (
            worse, unresolved, gain), name


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    METRICS = [m["name"] for m in json.load(_fh)["end_to_end"]]


def _run_pairs(bench_pairs, monkeypatch, tmp_path, stop_at=None, how=None):
    """main on 3 pairs of one workload, with git, clone and run_once stubbed;
    run number `stop_at` (from 1) fails an answer (how="failed") or exits
    nonzero (how="exit").  Returns the written output, the sides in the order
    run, and main's SystemExit (None when it returned)."""
    order = []

    def run_once(checkout, workload, seed, trace):
        order.append(os.path.basename(checkout))
        if len(order) == stop_at and how == "exit":
            return None, "perfbench/run.py exited 2"
        env = {"git_commit": "c", "source_sha256": "s", "rounds": 4, "seconds": 30,
               "python": "3", "nproc": 2, "cpu_model": "cpu"}
        value = 1.0 + 0.01 * len(order)
        return env, {"failed": int(len(order) == stop_at), "attempted": 10,
                     "metrics": {m: {"value": value} for m in METRICS}}
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: "0" * 40)
    monkeypatch.setattr(bench_pairs, "clone", lambda commit, where: where)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "HEAD~1", "HEAD", "--out", str(out),
                                      "--pairs", "3", "--workload", "quantum",
                                      "--workdir", str(tmp_path)])
    try:
        bench_pairs.main()
        stopped = None
    except SystemExit as exc:
        stopped = exc
    return json.loads(out.read_text()), order, stopped


def test_a_clean_pair_set_writes_a_summary(bench_pairs, monkeypatch, tmp_path):
    out, order, stopped = _run_pairs(bench_pairs, monkeypatch, tmp_path)
    assert stopped is None
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert len(out["runs"]) == 6 and "stopped" not in out and "claim_met" not in out
    assert [row["metric"] for row in out["summary"]] == METRICS
    assert {row["pairs"] for row in out["summary"]} == {3}


@pytest.mark.parametrize("how", ["failed", "exit"])
def test_a_run_that_fails_stops_the_pairs(bench_pairs, monkeypatch, tmp_path, how):
    # the third run (pair 1, change first) fails: the three runs made are
    # written, the failing one included, with no summary, and main exits 1
    out, order, stopped = _run_pairs(bench_pairs, monkeypatch, tmp_path, 3, how)
    assert order == ["parent", "change", "change"]
    assert isinstance(stopped.code, str) and stopped.code.startswith("bench_pairs: ")
    assert (out["claim_met"], out["summary"]) == (False, None)
    assert out["stopped"].startswith("change ")
    assert [(r["pair"], r["side"]) for r in out["runs"]] == [
        (0, "parent"), (0, "change"), (1, "change")]
    last = out["runs"][-1]
    if how == "exit":
        assert "metrics" not in last and last["error"] == "perfbench/run.py exited 2"
        assert out["stopped"] == "change did not finish on quantum seed 0"
    else:
        assert last["failed"] == 1 and set(last["metrics"]) == set(METRICS)
        assert out["stopped"] == "change failed 1 of 10 answers on quantum seed 0"
