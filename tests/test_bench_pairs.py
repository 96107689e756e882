"""The verdicts tools/bench_pairs.py writes in each summary row, on synthetic
runs: a regression past the bound, a parent spread wider than the bound, and
a gain that wins 9 of 10 pairs by more than the parent's interquartile
range, read in the metric's own direction."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


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
