"""cli._dumps against json.dumps(..., sort_keys=True, indent=2), which it
replaces on every JSON answer: the same bytes on the golden payloads, on the
payloads of the pinned manifest cells and on adversarial values; a dict key
that is not a str is a TypeError."""

import json
import pathlib

import pytest

from lieram import cli
from lieram.cli import _dumps
from test_golden_manifest import cases

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*_*.json")), ids=lambda p: p.name)
def test_golden_payloads(path):
    doc = json.loads(path.read_text())
    assert _dumps(doc) == _reference(doc) == path.read_text()[:-1]


def test_manifest_payloads(monkeypatch):
    # every payload the manifest's CLI cells hand to _emit, as built (tuples
    # and all), plus the parsed stdout of every cell
    payloads = []
    emit = cli._emit

    def recording(args, payload, rows=None):
        payloads.append(payload)
        return emit(args, payload, rows)

    monkeypatch.setattr(cli, "_emit", recording)
    for _key, run in cases():
        doc = json.loads(run())
        assert _dumps(doc) == _reference(doc)
    assert len(payloads) > 150
    assert [i for i, x in enumerate(payloads) if _dumps(x) != _reference(x)] == []


ADVERSARIAL = [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
    (), (1, 2), [(3, (4,)), ()], {"t": (1, "x")},
    "", "plain", "café ∃ \U0001d53d", "tab\there\nnew\x00\x1f\x7f\"q\"\\",
    0, -1, -(10**40), 10**40, [-3, 0, 7, 10**20],
    True, False, None, [True, False], [1, True, 2], [0, False], [1, None, 2],
    [1, "2", 3], [1, 2.5], 2.5, [float("inf"), float("-inf")],
    {"b": 1, "a": [2, {"z": None, "y": [True]}], "é": "x", "": 0},
    [[1, 2], [3], []],
]


@pytest.mark.parametrize("value", ADVERSARIAL, ids=repr)
def test_adversarial_values(value):
    assert _dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{(1,): 2}], {True: 0}],
                         ids=repr)
def test_non_str_keys_are_a_type_error(value):
    with pytest.raises(TypeError):
        _dumps(value)
