"""The verdicts tools/bench_pairs.py writes in each summary row, on synthetic
runs: a regression past the bound, a parent spread wider than the bound, and
a gain that wins 9 of 10 pairs by more than the parent's interquartile
range, read in the metric's own direction.  And its stop path, with git,
the clones and the runs stubbed: a run that fails an answer or exits
nonzero stops the pairs, and the runs made so far are written with no
summary.  After a clean pair set each side's work counts are written side by
side, with tools/work.py stubbed.  With --probes every cold probe runs once
per side and pair from that side's clone (the runner stubbed), and each
probe's row holds both medians, the parent's quartiles, the pairs won and
both sides' pinned verdicts."""

import importlib.util
import json
import os
import subprocess
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


def _run_pairs(bench_pairs, monkeypatch, tmp_path, stop_at=None, how=None,
               run_work=lambda checkout, workload: ({}, None)):
    """main on 3 pairs of one workload, with git, clone, run_once and
    run_work stubbed; run number `stop_at` (from 1) fails an answer
    (how="failed") or exits nonzero (how="exit").  Returns the written
    output, the sides in the order run, and main's SystemExit (None when it
    returned)."""
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
    monkeypatch.setattr(bench_pairs, "run_work", run_work)
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
    assert "work" not in out
    last = out["runs"][-1]
    if how == "exit":
        assert "metrics" not in last and last["error"] == "perfbench/run.py exited 2"
        assert out["stopped"] == "change did not finish on quantum seed 0"
    else:
        assert last["failed"] == 1 and set(last["metrics"]) == set(METRICS)
        assert out["stopped"] == "change failed 1 of 10 answers on quantum seed 0"


def test_each_side_records_its_work_counts(bench_pairs, monkeypatch, tmp_path):
    # once the pairs have run: one count per side and workload, in that
    # side's clone, joined per label with the relative change of the
    # bytecodes; a side whose count did not finish gives its error
    calls = []

    def run_work(checkout, workload):
        side = os.path.basename(checkout)
        calls.append((side, workload))
        scale = 0.75 if side == "change" else 1
        return {"quantum blocks": {"label": "quantum blocks", "answers": 17,
                                   "bytecodes": 400 * scale, "calls": 40 * scale}}, None
    out, _order, stopped = _run_pairs(bench_pairs, monkeypatch, tmp_path, run_work=run_work)
    assert stopped is None and calls == [("parent", "quantum"), ("change", "quantum")]
    assert out["work"] == [{"workload": "quantum", "label": "quantum blocks",
                            "parent_answers": 17, "parent_bytecodes": 400, "parent_calls": 40,
                            "change_answers": 17, "change_bytecodes": 300.0,
                            "change_calls": 30.0, "relative_bytecodes": -0.25}]

    def failing(checkout, workload):
        if os.path.basename(checkout) == "change":
            return None, "tools/work.py exited 1"
        return run_work(checkout, workload)
    out, _order, stopped = _run_pairs(bench_pairs, monkeypatch, tmp_path, run_work=failing)
    assert stopped is None
    assert out["work"] == [{"workload": "quantum", "change_error": "tools/work.py exited 1"}]


def test_work_counts_are_read_per_label(bench_pairs, monkeypatch):
    # tools/work.py's JSON rows keyed by label, its top-function lines
    # skipped; a nonzero exit is an error with its stderr
    rows = [{"workload": "quantum", "label": label, "answers": 2, "bytecodes": 10.5,
             "calls": 3.0} for label in ("quantum blocks", "verify appendix")]
    stdout = "\n".join([json.dumps(rows[0]), "12 src/lieram/cli.py:1(main)",
                         json.dumps(rows[1]), "3 len"]) + "\n"
    seen = []

    def run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd))
        code = 0 if cwd == "ok" else 1
        return subprocess.CompletedProcess(cmd, code, stdout, "boom" if code else "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_work("ok", "quantum") == ({row["label"]: row for row in rows}, None)
    counts, error = bench_pairs.run_work("bad", "quantum")
    assert counts is None and error.endswith("in bad exited 1:\nboom")
    assert seen == [(["tools/work.py", "--workload", "quantum", "--top", "0"], where)
                    for where in ("ok", "bad")]


def test_probe_pairs_time_every_probe_cold_on_both_sides(bench_pairs, monkeypatch, tmp_path):
    # --probes: each probe once per side per pair, the parent first in even
    # pairs, from each side's clone; per probe both medians, the parent's
    # quartiles, the pairs won and each side's pinned verdict
    pins = (("a --x 1", "pa"), ("b", "pb"))
    calls = []

    def run(argv, root):
        side = os.path.basename(root)
        command = " ".join(argv)
        calls.append((side, command))
        # the change's last run of b is off its pin
        sha = "off" if (side, command) == ("change", "b") and len(calls) > 8 else dict(pins)[
            command]
        seconds = (0.9 if side == "change" else 1.0) + 0.001 * len(calls)
        return seconds, 20.0 if side == "change" else 18.0, sha, 0
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kw: "0" * 40)
    monkeypatch.setattr(bench_pairs, "clone", lambda commit, where: where)
    monkeypatch.setattr(bench_pairs.probes, "run", run)
    monkeypatch.setattr(bench_pairs.probes, "PROBES", pins)
    out = tmp_path / "PROBES.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "HEAD~1", "HEAD", "--probes", "--out",
                                      str(out), "--pairs", "3", "--workdir", str(tmp_path)])
    bench_pairs.main()
    got = json.loads(out.read_text())
    assert calls == [(side, command) for k in range(3) for command, _pin in pins
                     for side in (("parent", "change") if k % 2 == 0 else ("change", "parent"))]
    assert len(got["runs"]) == 12 and {r["exit"] for r in got["runs"]} == {0}
    a, b = got["probes"]
    assert (a["command"], a["pairs"], b["command"]) == ("a --x 1", 3, "b")
    assert (a["parent_pinned"], a["change_pinned"]) == (True, True)
    assert (b["parent_pinned"], b["change_pinned"]) == (True, False)
    assert a["seconds"]["change_lower_in_pairs"] == 3
    assert a["peak_rss_mb"]["change_lower_in_pairs"] == 0
    assert a["peak_rss_mb"]["parent_median"] == 18.0
    assert a["peak_rss_mb"]["relative_change"] == pytest.approx(1 / 9)
    parent = sorted(r["seconds"] for r in got["runs"]
                    if (r["side"], r["command"]) == ("parent", "a --x 1"))
    assert (a["seconds"]["parent_q1"], a["seconds"]["parent_median"]) == (
        pytest.approx((parent[0] + parent[1]) / 2), parent[1])
