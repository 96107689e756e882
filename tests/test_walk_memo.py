"""The memo of block walks: weyl.block_list keeps the skeleton of each walk
(least point, orbit size and point stabiliser per block) per (root
system, Phi', encoding, modulus, axes), and reuses it within the process.
The points bound is checked before the memo is read, a failing walk is never
kept, the retained point sets total at most the points check's default, and
the reports built from a reused walk are the query's own.  The kind of a
report is kept per point stabiliser and Phi' (and, modular, nilpotency),
unless its construction raises."""

import collections
from fractions import Fraction

import pytest

from lieram import modular, weyl
from lieram.cli import main
from lieram.errors import BoundExceeded, InvariantViolation, NoParabolicConjugate
from lieram.modular import PChar, mod_blocks
from lieram.quantum import QChar, TorusElement, q_blocks
from lieram.rootdata import build_root_system
from lieram.scalars import make_field


def _clear():
    # the memo of walks, with the block lists kept on them: a list kept from
    # an earlier answer would answer without a walk
    weyl._walks.clear()


@pytest.fixture
def walks(monkeypatch):
    """Empty memos, emptied again at the end of the test, and a counter of
    the walks made (calls of weyl._walk_skeleton) in between."""
    made = collections.Counter()
    skeleton = weyl._walk_skeleton

    def counted(rs, levi, on, modulus, axes):
        made[rs.type_str, on, modulus] += 1
        return skeleton(rs, levi, on, modulus, axes)
    _clear()
    monkeypatch.setattr(weyl, "_walk_skeleton", counted)
    yield made
    _clear()


def _dicts(blocks):
    return [b.to_dict() for b in blocks]


def _a2_characters():
    a2 = build_root_system("A2")
    return PChar(a2, 5, support=(0,)), QChar(a2, 5)


def test_the_bound_is_checked_before_the_memo(walks):
    # 25 points each; a walk kept under the default bound is no answer under
    # a bound of 24, on either side
    mod_chi, q_chi = _a2_characters()
    assert mod_blocks(mod_chi) and q_blocks(q_chi)
    assert sum(walks.values()) == 2
    for _ in range(2):
        for blocks in (mod_blocks, q_blocks):
            chi = mod_chi if blocks is mod_blocks else q_chi
            with pytest.raises(BoundExceeded, match="^25 points to walk exceeds bound 24$"):
                blocks(chi, 24)
    assert sum(walks.values()) == 2
    assert _dicts(mod_blocks(mod_chi, 25)) == _dicts(mod_blocks(mod_chi))


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "A2", "--p", "5"],
    ["quantum", "blocks", "--type", "A2", "--ell", "5"],
])
def test_the_cli_bound_is_checked_before_the_memo(argv, walks, capsys):
    assert main(argv) == 0
    answer = capsys.readouterr().out
    for _ in range(2):
        assert main([*argv, "--bound", "24"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 25 points to walk exceeds bound 24\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == answer
    assert sum(walks.values()) == 1


def test_a_support_sweep_walks_once(walks):
    # the nilpotent part of chi plays no part in the partition: the 8
    # supports of A3/p7 nilpotent share one walk, and each answer equals a
    # fresh computation
    a3 = build_root_system("A3")
    supports = [tuple(i for i in range(3) if mask >> i & 1) for mask in range(8)]
    swept = [_dicts(mod_blocks(PChar(a3, 7, support=s))) for s in supports]
    assert walks == {("A3", "values", 7): 1}
    for support, answer in zip(supports, swept):
        _clear()
        assert _dicts(mod_blocks(PChar(a3, 7, support=support))) == answer
    assert walks == {("A3", "values", 7): 9}
    assert {answer[0]["poincare"] is None for answer in swept} == {False}


def test_a_regular_character_keeps_no_walk(walks, monkeypatch):
    # Phi' is empty: every point is a block of its own, with stabiliser Phi'
    # and dim 1, listed without a walk or an orbit partition; the memo keeps
    # nothing of it, and a character with a Levi after it is kept as before
    F5 = make_field(5, 1)
    a2 = build_root_system("A2")
    regular = (PChar(a2, 5, values=(F5.from_int(1), F5.from_int(2))),
               QChar(a2, 7, chi_s=TorusElement((Fraction(7, 10), Fraction(2, 9)))))
    partitions = []
    partition = weyl.orbit_partition

    def counted(points, gen_actions):
        partitions.append(gen_actions)
        return partition(points, gen_actions)
    monkeypatch.setattr(weyl, "orbit_partition", counted)
    for chi, blocks, points in zip(regular, (mod_blocks, q_blocks), (25, 49)):
        assert chi.levi.basis == ()
        answer = blocks(chi)
        assert len(answer) == points
        assert {(b.orbit_size, b.dim) for b in answer} == {(1, 1)}
        assert {id(b.stabilizer) for b in answer} == {id(chi.levi)}
        assert (weyl._walks.entries, weyl._walks.total) == ({}, 0)
    assert walks == {} and partitions == []
    mod_blocks(PChar(a2, 5))
    assert len(partitions) == 1
    assert weyl._walks.total == 25


def test_a_failing_walk_is_never_kept(walks, monkeypatch):
    # all of W moves points of this fiber out of it: every query raises,
    # none is answered from the memo, and the memo keeps nothing of it
    chi = QChar(build_root_system("B3"), 7, chi_s=TorusElement(
        (Fraction(1, 2), 0, Fraction(1, 3))))
    integer_actions = weyl.integer_actions
    with monkeypatch.context() as m:
        m.setattr(weyl, "integer_actions", lambda rs, _roots, *args: integer_actions(
            rs, rs.simple_roots, *args))
        for _ in range(3):
            with pytest.raises(InvariantViolation, match="a walk left it"):
                q_blocks(chi)
    assert walks == {("B3", "torus", 42): 3}
    assert (weyl._walks.entries, weyl._walks.total) == ({}, 0)
    assert q_blocks(chi)
    assert walks == {("B3", "torus", 42): 4}
    assert weyl._walks.total == 7**3


def test_a_kind_whose_construction_raises_is_never_kept(walks, monkeypatch):
    # a Poincare series that raises leaves no kind behind, and the next
    # query builds every kind of its blocks afresh
    chi = PChar(build_root_system("A2"), 5)
    monkeypatch.setattr(chi.rs, "_subsystems", {})  # new stabilisers, of no kept kind
    kept = modular._kind.cache_info().currsize

    def refuse(_zero):
        raise NoParabolicConjugate("refused")
    with monkeypatch.context() as m:
        m.setattr(modular, "_poincare", refuse)
        for _ in range(2):
            with pytest.raises(NoParabolicConjugate, match="refused"):
                mod_blocks(chi)
    assert modular._kind.cache_info().currsize == kept
    blocks = mod_blocks(chi)
    assert modular._kind.cache_info().currsize == kept + len({b.kind for b in blocks}) > kept + 1


def test_a_report_changed_by_a_caller_changes_no_later_answer(walks):
    # a report is a read-only view: its fields and its kind's take no
    # assignment.  What a view returns is fresh or immutable, and so are the
    # tables of its list, so a caller that changes them changes no answer
    mod_chi, q_chi = _a2_characters()
    for blocks, chi in ((mod_blocks, mod_chi), (q_blocks, q_chi)):
        first = blocks(chi)
        want = _dicts(first)
        for b in first:
            kind_fields = type(b.kind).__slots__
            for owner, names in ((b, type(b).FIELDS + kind_fields), (b.kind, kind_fields)):
                for name in names:
                    with pytest.raises(AttributeError):
                        setattr(owner, name, None)
                    with pytest.raises(AttributeError):
                        delattr(owner, name)
                with pytest.raises(AttributeError):
                    owner.other = None
            if blocks is mod_blocks:
                for value in (*b.lam, *b.eta):
                    value.coeffs = (1, 2)
                b.finite_type_witness["point_type"] = "changed"
            else:
                b.rep.nums = ()
        for tables in first.tables.values():
            for table in tables:
                with pytest.raises(TypeError):
                    table[0] = "changed"
        assert _dicts(first) == want
        assert _dicts(blocks(chi)) == want
    assert sum(walks.values()) == 2


def test_a_witness_or_dict_changed_by_a_caller_changes_no_other_report(walks):
    # A2/p5 nilpotent: the blocks of one point stabiliser share one verdict,
    # yet each finite_type_witness and each to_dict result is a fresh dict
    mod_chi, q_chi = _a2_characters()
    for blocks, chi in ((mod_blocks, mod_chi), (q_blocks, q_chi)):
        answer = blocks(chi)
        want = _dicts(answer)
        assert len({id(b.stabilizer) for b in answer}) < len(answer)
        for b in answer:
            d = b.to_dict()
            d["stabilizer_types"]["point"] = "changed"
            for value in d.values():
                if type(value) is list:
                    value.append("changed")
                    if value[0] and type(value[0]) is list:
                        value[0].append("changed")
            if blocks is mod_blocks:
                for witness in (b.finite_type_witness, d["finite_type_witness"]):
                    witness["point_type"] = "changed"
                    if witness["differing_component"]:
                        witness["differing_component"]["small"] = "changed"
        assert _dicts(answer) == want
        assert _dicts(blocks(chi)) == want
    assert sum(walks.values()) == 2
    witnesses = [b.finite_type_witness for b in mod_blocks(mod_chi)]
    assert sum(w["differing_component"] is not None for w in witnesses) >= 2


def test_the_retained_points_stay_within_the_default_bound(walks, monkeypatch):
    # with a budget of 75 points: A2 (25), then B2 (25), A2 used again,
    # then G2 (49 points) drops B2, the least recently used, and a walk of
    # more than 75 points (A3/p5, 125, under a raised bound) is not kept,
    # nor is the list made on it
    monkeypatch.setattr(weyl._walks, "bound", 75)
    F5 = make_field(5, 1)
    a2 = PChar(build_root_system("A2"), 5)
    b2 = PChar(build_root_system("B2"), 5, values=(F5.one(), F5.zero()))
    g2 = PChar(build_root_system("G2"), 7)
    a3 = PChar(build_root_system("A3"), 5)
    for chi in (a2, b2, a2, g2):
        mod_blocks(chi)
        assert weyl._walks.total <= 75
    assert walks == {("A2", "values", 5): 1, ("B2", "values", 5): 1, ("G2", "values", 7): 1}
    assert weyl._walks.total == 25 + 49
    mod_blocks(a3, 10**6)
    mod_blocks(a2)
    assert walks[("A2", "values", 5)] == 1
    mod_blocks(b2)  # drops G2, now the least recently used
    assert walks[("B2", "values", 5)] == 2
    assert weyl._walks.total == 25 + 25
    mod_blocks(a3, 10**6)
    assert walks[("A3", "values", 5)] == 2
    assert sum(points for points, _walk in weyl._walks.entries.values()) == weyl._walks.total
