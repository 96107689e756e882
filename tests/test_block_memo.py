"""Block lists kept on their walks in one process (weyl._walks): a list
depends on chi only through its walk and, on the modular side, the ambient
field and code tables of its view, so answers that share those share one
list, and from the list's second rendering on the CLI writes its blocks
from the text kept on it, unless the list has more than
cli.BLOCK_LIST_BOUND blocks.  Every answer is the cold one byte for byte, in
any order; an answer met once keeps no text; a bound below a kept list's
points or field still refuses it; and the kept walks, with their lists,
hold at most the default of the points check (errors.BOUNDS), the least
recently used dropped first."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from lieram import cli, modular, quantum, weyl
from lieram.modular import PChar, mod_blocks
from lieram.quantum import QChar, TorusElement, q_blocks
from lieram.errors import BOUNDS
from lieram.rootdata import build_root_system
from lieram.scalars import make_field

NILPOTENT = [["modular", "blocks", "--type", "A3", "--p", "5", "--chi-s", "0,0,0",
              "--support", ",".join(map(str, support))]
             for n in range(4) for support in itertools.combinations((1, 2, 3), n)]
SEMISIMPLE = ["modular", "blocks", "--type", "A3", "--p", "5", "--chi-s", "1,0,2"]
QUANTUM = ["quantum", "blocks", "--type", "A3", "--ell", "5", "--chi-s", "1/3,0,0",
           "--support", "1"]
SEQUENCE = [*NILPOTENT, SEMISIMPLE, QUANTUM, NILPOTENT[0]]


def _cold(argv):
    env = {**{k: v for k, v in os.environ.items() if k != "LIERAM_BOUND"},
           "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "lieram.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def pins():
    """The stdout of each command of SEQUENCE, each from a fresh process."""
    return {" ".join(argv): _cold(argv) for argv in SEQUENCE}


@pytest.fixture
def lists(monkeypatch):
    """An empty memo of walks for the test; what the test keeps goes with
    it.  Yields the memo and the lists built per side, in order."""
    monkeypatch.setattr(weyl._walks, "entries", {})
    monkeypatch.setattr(weyl._walks, "total", 0)
    monkeypatch.delenv("LIERAM_BOUND", raising=False)
    built = {"modular": [], "quantum": []}
    for name, module in (("modular", modular), ("quantum", quantum)):
        def counted(*args, name=name):
            built[name].append(weyl.BlockList(*args))
            return built[name][-1]
        monkeypatch.setattr(module, "BlockList", counted)
    return weyl._walks, built


def _kept(memo):
    # the list kept on each walk, by the walk's key
    return {key: kept[2] for key, (_points, kept) in memo.entries.items()}


def _built(built):
    return {name: len(made) for name, made in built.items()}


def _answer(argv, capsys):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("order", ["manifest", "shuffled"])
def test_answers_that_share_chi_s_share_one_list(order, pins, lists, capsys):
    memo, built = lists
    sequence = list(SEQUENCE)
    if order == "shuffled":
        random.Random(45).shuffle(sequence)
    assert [argv for argv in sequence if _answer(argv, capsys) != pins[" ".join(argv)]] == []
    assert {code for code, _out, _err in pins.values()} == {0}
    # one nilpotent list for the 8 supports, one semisimple and one quantum,
    # each on a walk of its own
    assert _built(built) == {"modular": 2, "quantum": 1}
    texts = {key[2] + (" nilpotent" if key[1].rank == key[0].rank else ""): blocks.json
             for key, blocks in _kept(memo).items()}
    assert set(texts) == {"values nilpotent", "values", "torus"}
    # rendered 9 times, the nilpotent list keeps its text; the other two,
    # rendered once, keep none
    assert type(texts.pop("values nilpotent")) is str
    assert set(texts.values()) == {False}


def test_a_repeated_chi_s_is_the_same_list(lists):
    memo, built = lists
    a3 = build_root_system("A3")
    supports = [s for n in range(4) for s in itertools.combinations(range(3), n)]
    first = mod_blocks(PChar(a3, 5))
    assert all(mod_blocks(PChar(a3, 5, support=s), bound) is first
               for s in supports for bound in (None, 125, 10**9))
    chi_s = TorusElement((Fraction(1, 3), 0, 0))
    q_first = q_blocks(QChar(a3, 5, chi_s=chi_s))
    assert all(q_blocks(QChar(a3, 5, chi_s=chi_s, support=s, eps=eps)) is q_first
               for s in ((), (0,)) for eps in (1, 2))
    assert _built(built) == {"modular": 1, "quantum": 1}
    # another p, ell or fiber is another walk, and so another list
    assert mod_blocks(PChar(a3, 7)) is not first
    assert q_blocks(QChar(a3, 7, chi_s=chi_s)) is not q_first
    assert q_blocks(QChar(a3, 5, chi_s=TorusElement((Fraction(2, 3), 0, 0)))) is not q_first
    assert _built(built) == {"modular": 2, "quantum": 3} and len(memo.entries) == 5
    assert mod_blocks(PChar(a3, 5)) is first


def test_a_quantum_chi_s_of_the_same_fiber_is_the_same_list(lists, capsys):
    # B2/ell=5: chi_s = (1/2, 0) and (0, 1/2) square to 1, so they have one
    # fiber and one walk, and the list of the first answers the second byte
    # for byte as a cold child does
    memo, built = lists
    argvs = [["quantum", "blocks", "--type", "B2", "--ell", "5", "--chi-s", chi_s]
             for chi_s in ("1/2,0", "0,1/2")]
    b2 = build_root_system("B2")
    first, second = (q_blocks(QChar(b2, 5, chi_s=TorusElement(exps)))
                     for exps in ((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    assert second is first and _built(built) == {"modular": 0, "quantum": 1}
    assert len(memo.entries) == 1
    for argv in argvs:
        assert _answer(argv, capsys) == _cold(argv)
    assert _built(built) == {"modular": 0, "quantum": 1}


def test_a_modular_chi_s_of_the_same_walk_is_another_list(lists):
    # B3/p5: chi_s = (1, 0, 2) and twice it have the same Phi' (alpha_2 and
    # its negative), so the same walk, but other Artin-Schreier bases, so
    # other code tables: the walk is reused and each gets a list of its own;
    # a repeated chi_s again takes the list kept last on the walk
    memo, built = lists
    b3 = build_root_system("B3")
    F5 = make_field(5, 1)
    chis = [PChar(b3, 5, values=tuple(map(F5.from_int, values)))
            for values in ((1, 0, 2), (2, 0, 4))]
    assert chis[0].levi is chis[1].levi and chis[0].levi.basis
    walked = []
    skeleton = weyl._walk_skeleton
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weyl, "_walk_skeleton", lambda *key: walked.append(key) or skeleton(*key))
        first, second = map(mod_blocks, chis)
        assert mod_blocks(chis[1]) is second
    assert len(walked) == 1 and len(memo.entries) == 1
    assert second is not first and _built(built) == {"modular": 2, "quantum": 0}
    assert first.points is second.points
    assert [b.to_dict() for b in first] != [b.to_dict() for b in second]
    assert [b.to_dict() for b in mod_blocks(chis[0])] == [b.to_dict() for b in first]


def test_an_answer_met_once_keeps_no_text(lists, capsys):
    # 50 distinct block answers, none repeated: each list was rendered once
    # and holds no text
    memo, built = lists
    answers = [["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", f"{a},{b}"]
               for a in range(5) for b in range(5)]
    answers += [["quantum", "blocks", "--type", "A2", "--ell", "5", "--chi-s", f"{a}/5,{b}/5"]
                for a in range(5) for b in range(5)]
    for argv in answers:
        code, out, _err = _answer(argv, capsys)
        assert code == 0 and out
    assert _built(built) == {"modular": 25, "quantum": 25}
    assert {blocks.json for made in built.values() for blocks in made} == {False}
    assert {blocks.json for blocks in _kept(memo).values()} == {False}


def test_a_long_list_keeps_no_text(lists, capsys):
    # A4/p7 at chi_s = (0, 1, 1, 1): Phi' = A1 on 7^4 points, 1372 blocks,
    # more than the bound of a kept text; rendered three times from one
    # kept list, it keeps none, and every answer is the cold one
    memo, built = lists
    argv = ["modular", "blocks", "--type", "A4", "--p", "7", "--chi-s", "0,1,1,1"]
    answers = [_answer(argv, capsys) for _ in range(3)]
    (blocks,) = _kept(memo).values()
    assert len(blocks) == 1372 > cli.BLOCK_LIST_BOUND
    assert _built(built)["modular"] == 1 and blocks.json is False
    assert answers == [_cold(argv)] * 3
@pytest.mark.parametrize("argv, bound, refusal", [
    (["modular", "blocks", "--type", "A3", "--p", "5"], "124",
     "error: 125 points to walk exceeds bound 124\n"),
    # 25 points, Lambda_chi in F_{5^5}
    (["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "AS(1),0"], "3124",
     "error: field size 5^5 exceeds bound 3124\n"),
    (["quantum", "blocks", "--type", "A2", "--ell", "7", "--chi-s", "1/2,0"], "48",
     "error: 49 points to walk exceeds bound 48\n"),
])
def test_a_bound_below_a_kept_list_still_refuses_it(argv, bound, refusal, lists, capsys):
    memo, _built = lists
    code, answer, _err = _answer(argv, capsys)
    assert code == 0 and len(memo.entries) == 1
    for _ in range(2):
        assert _answer([*argv, "--bound", bound], capsys) == (1, "", refusal)
        assert _answer(argv, capsys) == (0, answer, "")
    assert _answer([*argv, "--bound", str(int(bound) + 1)], capsys) == (0, answer, "")


def test_the_kept_blocks_stay_within_the_bound(lists, monkeypatch):
    # the memo is weighed by the points of each walk, counted before it, at
    # most the points check's default in all.  Under a bound of 150: A2/p5
    # (25) and G2/p7 (49) are kept with their lists, A3/p5 (125) then drops
    # both, a walk of more points than the bound (B3/p7, 343) is not kept,
    # and A2 again fits beside A3, at 150 points
    memo, built = lists
    assert memo.bound == BOUNDS["points"][0]
    monkeypatch.setattr(memo, "bound", 150)
    chis = [PChar(build_root_system(t), p) for t, p in (("A2", 5), ("G2", 7), ("A3", 5),
                                                         ("B3", 7), ("A2", 5))]
    kept = []
    for chi in chis:
        blocks = mod_blocks(chi, 10**6)
        assert memo.total <= 150
        assert memo.total == sum(len(key[4][0]) ** len(key[4]) for key in memo.entries)
        assert all(lst.points is walked[0] for _points, (walked, _inputs, lst)
                   in memo.entries.values())
        kept.append([key[0].type_str for key in memo.entries])
        # the answer's list is kept on its walk, the most recently used, if kept
        assert (list(_kept(memo).values())[-1] is blocks) == (chi.rs.type_str != "B3")
    assert kept == [["A2"], ["A2", "G2"], ["A3"], ["A3"], ["A3", "A2"]]
    assert _built(built)["modular"] == 5
