"""Block lists kept per (root system, p or ell, chi_s) in one process
(weyl._lists): a list depends on chi only through chi_s, so answers that
share chi_s share one list, and from the list's second rendering on the CLI
writes its blocks from the text kept on it.  Every answer is the cold one
byte for byte, in any order; an answer met once keeps no text; a bound below
a kept list's points or field still refuses it; and the kept lists hold at
most the memo's bound of blocks, the least recently used dropped first."""

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
    """An empty memo of block lists for the test; what the test keeps goes
    with it.  Yields the memo and a count of the lists built per side."""
    monkeypatch.setattr(weyl._lists, "entries", {})
    monkeypatch.setattr(weyl._lists, "total", 0)
    monkeypatch.delenv("LIERAM_BOUND", raising=False)
    built = {"modular": 0, "quantum": 0}
    for name, module in (("modular", modular), ("quantum", quantum)):
        make = module._block_list

        def counted(*args, make=make, name=name):
            built[name] += 1
            return make(*args)
        monkeypatch.setattr(module, "_block_list", counted)
    return weyl._lists, built


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
    # one nilpotent list for the 8 supports, one semisimple and one quantum
    assert built == {"modular": 2, "quantum": 1}
    texts = {key[0] + (" nilpotent" if key[0] == "values" and not any(key[3]) else ""):
             blocks.json for key, (_weight, blocks) in memo.entries.items()}
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
    assert built == {"modular": 1, "quantum": 1}
    # another p, ell or chi_s is another list
    assert mod_blocks(PChar(a3, 7)) is not first
    assert q_blocks(QChar(a3, 7, chi_s=chi_s)) is not q_first
    assert q_blocks(QChar(a3, 5, chi_s=TorusElement((Fraction(2, 3), 0, 0)))) is not q_first
    assert built == {"modular": 2, "quantum": 3}
    assert memo.total == sum(len(blocks) for _w, blocks in memo.entries.values())


def test_an_answer_met_once_keeps_no_text(lists, capsys, monkeypatch):
    # 50 distinct block answers, none repeated: every list is kept (under a
    # bound raised for the test), and each was rendered once and holds no text
    memo, built = lists
    monkeypatch.setattr(memo, "bound", 10**6)
    answers = [["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", f"{a},{b}"]
               for a in range(5) for b in range(5)]
    answers += [["quantum", "blocks", "--type", "A2", "--ell", "5", "--chi-s", f"{a}/5,{b}/5"]
                for a in range(5) for b in range(5)]
    for argv in answers:
        code, out, _err = _answer(argv, capsys)
        assert code == 0 and out
    assert built == {"modular": 25, "quantum": 25} and len(memo.entries) == 50
    assert {blocks.json for _w, blocks in memo.entries.values()} == {False}


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
    # with a bound of 60 blocks: A2/p5 regular lists of 25 blocks each and
    # the A2/p7 regular list of 49, the least recently used dropped first;
    # a list of more blocks than the bound (A3/p5 regular, 125) is not kept
    memo, built = lists
    assert (memo.bound, weyl._walks.bound) == (weyl.BLOCK_LIST_BOUND, weyl.DEFAULT_GROUP_BOUND)
    monkeypatch.setattr(memo, "bound", 60)
    F5, F7 = make_field(5, 1), make_field(7, 1)
    a2, a3 = build_root_system("A2"), build_root_system("A3")
    x, y, z = (PChar(a2, 5, values=(F5.from_int(1), F5.from_int(k))) for k in (1, 2, 3))
    big = PChar(a3, 5, values=(F5.one(),) * 3)
    wide = PChar(a2, 7, values=(F7.one(), F7.one()))
    for chi in (x, y, x, z, big, y, wide, wide):
        mod_blocks(chi)
        assert memo.total <= 60
        assert memo.total == sum(len(blocks) for _w, blocks in memo.entries.values())
    # x, y, x again (kept), z drops y, big is not kept, y drops x, wide drops
    # z and y, and wide again is kept
    assert built["modular"] == 6
    assert [len(blocks) for _w, blocks in memo.entries.values()] == [49]
    mod_blocks(big)
    assert built["modular"] == 7 and memo.total == 49
