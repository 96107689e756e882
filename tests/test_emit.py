"""cli._dumps against json.dumps(..., sort_keys=True, indent=2), which it
replaces on every JSON answer: the same bytes on the golden payloads, on the
payloads of the pinned manifest cells and on adversarial values; a dict key
that is not a str is a TypeError.  Block lists are written one block at a
time from their columns (cli._json_pieces); joined, the pieces are the same
bytes as the reference on every block answer of the manifest."""

import json
import pathlib
import random
from collections.abc import Mapping
from operator import getitem
from typing import NamedTuple

import pytest

from lieram import cli, weyl
from lieram.cli import _dumps, _json_pieces
from lieram.errors import InvariantViolation
from lieram.modular import BlockReport, PChar, mod_blocks
from lieram.quantum import QBlockReport, QChar, q_blocks
from lieram.rootdata import check_cartan_type, root_system
from lieram.scalars import make_field
from lieram.selftest import modular_cells
from lieram.weyl import BlockList, BlockRecord, Kind
from test_golden_manifest import cases

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _as_dicts(payload):
    # the payload with each block report serialised through its to_dict
    if "blocks" not in payload:
        return payload
    return {**payload, "blocks": [b.to_dict() for b in payload["blocks"]]}


@pytest.fixture(scope="module")
def emitted():
    """Every payload the manifest's CLI cells hand to _emit, as built
    (tuples and all); each cell's stdout parses as JSON."""
    calls = []
    emit = cli._emit

    def recording(args, payload, rows=None):
        calls.append(payload)
        return emit(args, payload, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", recording)
        docs = [json.loads(run()) for _key, run in cases()]
    return calls, docs


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*_*.json")), ids=lambda p: p.name)
def test_golden_payloads(path):
    doc = json.loads(path.read_text())
    assert _dumps(doc) == _reference(doc) == path.read_text()[:-1]


def test_manifest_payloads(emitted):
    # every payload, and the parsed stdout of every cell
    calls, docs = emitted
    for doc in docs:
        assert _dumps(doc) == _reference(doc)
    assert len(calls) > 150
    payloads = [_as_dicts(call) for call in calls]
    assert [i for i, x in enumerate(payloads) if _dumps(x) != _reference(x)] == []


def test_streamed_blocks_match_the_reference(emitted):
    # every block answer of the manifest: the CLI cells as recorded, and the
    # cells whose character lies outside F_p (the manifest's "api" cells)
    # with the payload they would have.  A list's first rendering writes one
    # piece per report; the second and later ones write the same bytes, the
    # blocks in one piece
    calls, _docs = emitted
    blocks = [payload for payload in calls if "blocks" in payload]
    for _t, _p, _name, chi in modular_cells():
        if chi.field.e > 1:
            blocks.append({"command": "modular.blocks", "chi": cli._chi_dict(chi),
                           "blocks": mod_blocks(chi)})
    bad = []
    for i, payload in enumerate(blocks):
        payload["blocks"].json = None  # as if no answer had written it yet
        renderings = [list(_json_pieces(payload)) for _ in range(3)]
        want = _reference(_as_dicts(payload)) + "\n"
        if ({"".join(pieces) for pieces in renderings} != {want}
                or list(map(len, renderings)) != [len(payload["blocks"]) + 2, 3, 3]):
            bad.append(i)
    assert bad == []
    assert "".join(_json_pieces({"blocks": []})) == '{\n  "blocks": []\n}\n'
    # both sides, empty and non-empty supports; chi in F_p, F_{p^2}, and
    # Lambda_chi in F_p and F_{p^p}
    seen = {(p["command"], bool(p["chi"]["support"])) for p in blocks}
    assert len(seen) == 4
    fields = {(p["chi"]["field"]["e"], p["blocks"][0].field.e, p["blocks"][0].field.p)
              for p in blocks if "field" in p["chi"]}
    assert {1, 2} == {e for e, _e, _p in fields}
    assert any(e == p for _e, e, p in fields) and any(e == 1 for _e, e, _p in fields)
    # one text per value and answer: a coordinate whose trimmed value is
    # empty, a report whose eta and lambda share a value, and quantum chi_s
    # with denominators (N = ell D > ell)
    reports = [b.to_dict() for p in blocks if p["command"] == "modular.blocks"
               for b in p["blocks"]]
    assert any([] in d["eta"] + d["lambda"] for d in reports)
    assert any({tuple(v) for v in d["eta"]} & {tuple(v) for v in d["lambda"]} for d in reports)
    assert any(not x.endswith("/1") for p in blocks
               if p["command"] == "quantum.blocks" for x in p["chi"]["chi_s"])


def _values(table):
    return list(table.values() if isinstance(table, Mapping) else table)


_A2 = ["modular", "blocks", "--type", "A2", "--p", "7"]
_D4 = ["modular", "blocks", "--type", "D4", "--p", "5"]
_B3 = ["quantum", "blocks", "--type", "B3", "--ell", "7"]


@pytest.mark.parametrize("argv, again", [
    # Lambda_chi in F_{7^7}: 28 blocks of 2 point stabilisers, Phi' = A1 in both
    ([*_A2, "--chi-s", "AS(1),0"], [*_A2, "--chi-s", "AS(2),0", "--support", "1"]),
    # a nilpotent cell: 20 blocks of 15 point stabilisers
    ([*_D4, "--support", "1,3"], [*_D4, "--support", "2"]),
    # N = 42: 70 blocks of 4 point stabilisers; chi_s^2 is the same in both
    ([*_B3, "--chi-s", "1/2,0,1/3", "--support", "1"], [*_B3, "--chi-s", "0,0,1/3"]),
], ids=["argv0", "argv1", "argv2"])
def test_each_text_is_rendered_once_per_answer(argv, again, monkeypatch, capsys):
    # In a process that has written no block and keeps no block list, so
    # that the first answer is its list's first rendering: to_dict once per
    # kind, on its first block, and that to_dict rendered once, with a mark
    # for the orbit size and each table item, at the depth of a block; no
    # report rendered whole.  Each coordinate table's values are rendered
    # once per process, at the depth of a list item, and each answer renders
    # its head, cut at the marks.  A second answer of the same kinds (in
    # argv1 the same list, which the memo keeps) calls no to_dict and renders
    # no fixed field, nor a table the first answer rendered
    payloads, to_dicts, rendered, depth = [], [], [], [0]
    emit, dumps = cli._emit, cli._dumps

    def recording_emit(args, payload, rows=None):
        payloads.append(payload)
        return emit(args, payload, rows)

    def counted_dumps(obj, nl="\n"):
        if not depth[0]:  # not a part of a larger value
            rendered[-1].append((obj, nl))
        depth[0] += 1
        try:
            return dumps(obj, nl)
        finally:
            depth[0] -= 1

    def counted(to_dict):
        def wrapper(report):
            to_dicts[-1].append(report)
            return to_dict(report)
        return wrapper
    monkeypatch.setattr(cli, "_emit", recording_emit)
    monkeypatch.setattr(cli, "_dumps", counted_dumps)
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    monkeypatch.setattr(cli, "_TEXTS", {})
    # no kept walk, so no kept list: the first answer is its list's first rendering
    monkeypatch.setattr(weyl._walks, "entries", {})
    monkeypatch.setattr(weyl._walks, "total", 0)
    for cls in (BlockReport, QBlockReport):
        monkeypatch.setattr(cls, "to_dict", counted(cls.to_dict))
    outs = []
    for answer in (argv, again):
        to_dicts.append([])
        rendered.append([])
        assert cli.main(answer) == 0
        outs.append(capsys.readouterr().out)
    monkeypatch.undo()
    seen, tables_seen = set(), {}
    for payload, out, calls, made in zip(payloads, outs, rendered, to_dicts):
        blocks = payload["blocks"]
        firsts = {}
        for b in blocks:
            if b.kind not in seen:
                firsts.setdefault(b.kind, b)
        seen.update(firsts)
        assert made == list(firsts.values())
        whole = [b.to_dict() for b in blocks]
        assert not [obj for obj, _nl in calls if obj in whole]
        marked = [{k: [cli._MARK] * len(v) if k in blocks.tables
                   else cli._MARK if k == "orbit_size" else v
                   for k, v in b.to_dict().items()} for b in firsts.values()]
        new = {id(t): t for tables in blocks.tables.values() for t in tables
               if id(t) not in tables_seen}
        tables_seen.update(new)
        expected = [({**payload, "blocks": [cli._MARK] * 2}, "\n"),
                    *((d, "\n    ") for d in marked),
                    *((v, "\n        ") for t in new.values() for v in _values(t))]
        assert sorted(map(repr, calls)) == sorted(map(repr, expected))
        assert out == _reference(_as_dicts(payload)) + "\n"
    first, second = payloads
    kinds = {b.kind for b in first["blocks"]}
    assert 1 < len(kinds) == len({id(b.stabilizer) for b in first["blocks"]}) < len(
        first["blocks"])
    # the second answer is another character of the same kinds, which
    # shares a coordinate table with the first
    assert outs[0] != outs[1]
    assert {b.kind for b in second["blocks"]} == kinds
    assert to_dicts[1] == []
    assert [nl for _obj, nl in rendered[1]] == ["\n"] + ["\n        "] * (len(rendered[1]) - 1)
    assert len(rendered[1]) < 1 + sum(
        len(_values(t)) for tables in second["blocks"].tables.values() for t in tables)


class _Fixed(Kind):
    # a block kind whose one fixed field is `fixed`
    __slots__ = ("fixed", "dim")


class _ToyReport(BlockRecord, kind=_Fixed):
    # a block whose one table key is "items"
    __slots__ = ()
    FIELDS = ("items", "orbit_size", "kind")

    def to_dict(self):
        return {"fixed": self.fixed, "items": list(self.items), "orbit_size": self.orbit_size}


def _toy(report, rows, tables, key="items"):
    # a BlockList of `report` views of (point, size, kind) rows over the
    # coordinate tables `tables` of one key; each kind is its own sub
    points, sizes, kinds = zip(*rows)
    return BlockList((points, sizes, kinds), lambda kind: kind, {key: tables},
                     lambda x, size, kind: report(tuple(map(getitem, tables, x)), size, kind))


def test_texts_are_shared_only_at_one_depth():
    # a table's values are the list items of its key, of any shape; a
    # to_dict that writes the key as anything but a list of one item per
    # coordinate is refused
    s, t = _Fixed("s", 1), _Fixed("t", 2)
    tables = ((1, (2,)), "3", None, ()), {"a": (), 7: (4, 5), None: "x"}
    good = _toy(_ToyReport, [((0, "a"), 3, s), ((1, 7), 1, t), ((3, None), 2, s),
                             ((0, 7), 4, s)], tables)
    payload = {"blocks": good}
    assert "".join(_json_pieces(payload)) == _reference(_as_dicts(payload)) + "\n"
    assert good.dims == {1: 3, 2: 1} and good.dim_sum == 5
    for shape in (tuple, lambda items: dict(enumerate(items)), lambda items: list(items)[:1]):
        class _Bad(_ToyReport):
            __slots__ = ()

            def to_dict(self, shape=shape):
                return {**super().to_dict(), "items": shape(self.items)}
        with pytest.raises(InvariantViolation, match="list item per coordinate"):
            list(_json_pieces({"blocks": _toy(_Bad, [((0, "a"), 1, _Fixed("u", 1))], tables)}))


class _PercentReport(_ToyReport):
    # a block whose keys and texts hold what % and str.format read: the
    # table keys "%s", before orbit_size, and "{0}%", after it
    __slots__ = ()

    def to_dict(self):
        return {"%(x)s": "%%", "%s": list(self.items), "orbit_size": self.orbit_size,
                "{0}%": list(self.items), "}": self.fixed}


def test_percent_signs_and_braces_are_text():
    # in the fixed and table texts and in the keys of the template
    fixed = _Fixed("%s {0} }{ %", 1)
    tables = ("%", "%s", "{}", "{0}", "%%s"), ("100%", "%(x)s", "%i", "}")
    rows = [((0, 1), 1, fixed), ((4, 0), 2, _Fixed(("%", "{}"), 1)), ((2, 3), 3, fixed)]
    points, sizes, kinds = zip(*rows)

    def view(x, size, kind):
        return _PercentReport(tuple(map(getitem, tables, x)), size, kind)
    blocks = BlockList((points, sizes, kinds), lambda kind: kind, {"%s": tables, "{0}%": tables},
                       view)
    payload = {"%": "%s", "blocks": blocks, "{": "}"}
    pieces = list(_json_pieces(payload))
    assert "".join(pieces) == _reference(_as_dicts(payload)) + "\n"
    assert len(pieces) == len(blocks) + 2


def test_templates_are_keyed_by_the_kind_not_the_stabiliser(monkeypatch):
    # One point stabiliser, the same Subsystem object, under kinds that
    # differ: a nilpotent chi (so Phi' = A3, a Poincare list) against a
    # semisimple one (null); two semisimple chi of Phi' = A1 and A1xA1 (the
    # coset type, dim and witness differ); a modular and a quantum answer.
    # Each pair in both orders, in a process that has written no report
    rs = root_system(check_cartan_type("A3"))
    F5 = make_field(5, 1)

    def modular(*values):
        return mod_blocks(PChar(rs, 5, values=tuple(map(F5.from_int, values))))
    nilpotent, a1, a1xa1 = modular(0, 0, 0), modular(0, 1, 1), modular(0, 1, 0)
    quantum = q_blocks(QChar(rs, 7))
    assert (a1[0].stab_coset_type, a1xa1[0].stab_coset_type) == ("A1", "A1xA1")
    assert {b.stab_coset_type for b in nilpotent} == {b.stab_fiber_type for b in quantum} == {
        "A3"}
    for pair in ((nilpotent, a1), (a1, a1xa1), (nilpotent, quantum)):
        shared = set.intersection(*({b.stabilizer for b in blocks} for blocks in pair))
        kinds = [{b.kind for b in blocks if b.stabilizer in shared} for blocks in pair]
        assert shared and kinds[0].isdisjoint(kinds[1])
        for order in (pair, pair[::-1]):
            monkeypatch.setattr(cli, "_TEMPLATES", {})
            for blocks in order:
                payload = {"blocks": blocks}
                assert "".join(_json_pieces(payload)) == _reference(_as_dicts(payload)) + "\n"
    assert {b.poincare is None for b in [*nilpotent, *a1]} == {True, False}


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


class _Int(int):
    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


class _Str(str):
    def __str__(self):
        return "_Str()"


class _Dict(dict):
    pass


class _Pair(NamedTuple):
    first: object
    second: object


_CHARS = "aZ0 %{}\"\\\x00\x1f\x7f\n\té∃\U0001d53d"


def _corpus(seed=25, size=600):
    """Seeded nested values of every kind json.dumps reads: bools among
    ints, subclasses of int, str, tuple (a NamedTuple) and dict, empty
    containers at every depth, non-ASCII and control characters in values
    and keys, None and floats."""
    rng = random.Random(seed)

    def text():
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(4)))

    def value(depth):
        kind = rng.randrange(13 if depth < 4 else 7)
        if kind < 7:
            return [lambda: rng.randrange(-9, 10**rng.randrange(1, 25)), lambda: rng.random() < .5,
                    lambda: None, lambda: rng.choice([0.0, -2.5, 1e300, float("inf"),
                                                      float("nan")]),
                    text, lambda: _Int(rng.randrange(-9, 99)), lambda: _Str(text())][kind]()
        n = rng.randrange(4)
        if kind == 7:  # ints and bools, as block reports hold them
            return [rng.choice([0, 1, -7, 10**20, True, False]) for _ in range(n)]
        items = [value(depth + 1) for _ in range(n)]
        if kind == 8:
            return items
        if kind == 9:
            return tuple(items)
        if kind == 10:
            return _Pair(value(depth + 1), value(depth + 1))
        pairs = {rng.choice([text, lambda: _Str(text())])(): x for x in items}
        return pairs if kind == 11 else _Dict(pairs)
    return [value(0) for _ in range(size)]


def _kinds(x, depth=0):
    # what the corpus covers: types, empty containers by depth, bools among
    # ints, and text by where it sits
    out = {type(x).__name__}
    if isinstance(x, str):
        out |= {("text", c < " ", c > "~") for c in x}
    if isinstance(x, (list, tuple, dict)):
        if not x:
            out.add(("empty", type(x).__name__, depth))
        if {bool, int} <= set(map(type, x)):
            out.add("bool among ints")
        for k in x if isinstance(x, dict) else ():
            out |= {("key", c < " ", c > "~") for c in k}
        for v in x.values() if isinstance(x, dict) else x:
            out |= _kinds(v, depth + 1)
    return out


def test_dumps_is_json_dumps_on_a_seeded_corpus():
    corpus = _corpus()
    assert [x for x in corpus if _dumps(x) != _reference(x)] == []
    kinds = set().union(*map(_kinds, corpus))
    assert {"bool", "int", "_Int", "str", "_Str", "_Pair", "_Dict", "NoneType",
            "float"} <= kinds
    assert "bool among ints" in kinds
    for depth in range(4):  # containers nest to depth 3
        assert {("empty", t, depth) for t in ("list", "tuple", "dict")} <= kinds, depth
    assert {(where, *c) for where in ("text", "key")
            for c in ((True, False), (False, True))} <= kinds


@pytest.mark.parametrize("value", [_Dict({1: "a"}), _Pair({"a": 1}, {None: 2}),
                                   [_Dict(a={(1,): 2})]], ids=repr)
def test_non_str_keys_in_subclasses_are_a_type_error(value):
    with pytest.raises(TypeError):
        _dumps(value)
