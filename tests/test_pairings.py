"""The pairings of all positive roots against the single-root formulas they
replace on the stabiliser paths: modular._pairings, which pairs each
coefficient slot (modular._slots) through weyl.integer_pairings, against
selftest.pair on coroot values over F_p, F_{p^2} and F_{p^p} (random
coefficients and AS literals), and weyl.integer_pairings against
selftest.root_value on torus points with mixed denominators; seeded, 220
points per type (55 torus points on ranks 7 and 8).  The types bring in
root norms 1, 2 and 3 and the largest tables.  integer_pairings pairs by
height, so the height steps of root systems and of their classified
subsystems are checked too, and the table of a subsystem against the full
table."""

import math
import operator
import random
from fractions import Fraction

import pytest

from lieram.cli import parse_field_values
from lieram.modular import _pairings, _slots
from lieram.quantum import TorusElement
from lieram.rootdata import build_root_system
from lieram.scalars import DEFAULT_FIELD_BOUND, make_field
from lieram.selftest import pair, root_value
from lieram.weyl import integer_pairings, reflection_stabilizer

TYPES = ["A2", "B2", "B3", "C3", "D4", "G2", "F4", "A1xB2", "G2xA1", "E6", "E7", "E8",
         "B8", "C8"]
P = 5
PER_KIND = 55


def _field_point(rng, rank, kind):
    """Coroot values of one point; about half the coordinates are constants,
    so pairings in F_p and zero pairings occur too."""
    if kind == "AS":
        tokens = [rng.choice([f"AS({rng.randrange(1, P)})", str(rng.randrange(P)), "g^7"])
                  for _ in range(rank)]
        tokens[rng.randrange(rank)] = f"AS({rng.randrange(1, P)})"  # ambient F_{p^p}
        return parse_field_values(",".join(tokens), P, rank, DEFAULT_FIELD_BOUND)[0]
    field = make_field(P, {"p": 1, "p2": 2, "pp": P}[kind])
    return tuple(
        field.elem([rng.randrange(P) for _ in range(field.e)]) if rng.random() < 0.5
        else field.from_int(rng.randrange(P) * (rng.random() < 0.7))
        for _ in range(rank))


@pytest.mark.parametrize("type_str", TYPES)
def test_value_pairings_match_pair(type_str):
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    seen = {"zero": 0, "fp": 0, "other": 0}
    for kind in ("p", "p2", "pp", "AS"):
        for _ in range(PER_KIND):
            values = _field_point(rng, rs.rank, kind)
            field = values[0].field
            e = field.e
            assert kind in ("p", "p2") or e == P
            pad = (0,) * e
            got = _pairings(rs, *_slots(values))
            assert list(got) == list(rs.pos_roots)
            for b, slots in got.items():
                want = pair(rs, values, b)
                assert slots == (want.coeffs + pad)[:e]
                assert (not any(slots)) == want.is_zero()
                in_fp = len(want.coeffs) <= 1
                assert (not any(slots[1:])) == in_fp
                seen["zero" if want.is_zero() else "fp" if in_fp else "other"] += 1
    assert min(seen.values()) > 0


@pytest.mark.parametrize("type_str", TYPES)
def test_torus_pairings_match_root_value(type_str):
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    ones = 0
    # 55 points on the rank-7 and rank-8 types, whose oracle tables are the largest
    for _ in range(4 * PER_KIND if rs.rank < 7 else PER_KIND):
        dens = [rng.choice((1, 2, 3, 5, 7, 10, 14, 21, 30)) for _ in range(rs.rank)]
        t = TorusElement(tuple(Fraction(rng.randrange(-d, 2 * d) * (rng.random() < 0.7), d)
                               for d in dens))
        N = math.lcm(*(e.q.denominator for e in t.exps))
        code = tuple(e.q.numerator * (N // e.q.denominator) for e in t.exps)
        got = integer_pairings(rs, "torus", N)(code)
        assert len(got) == rs.N
        for b, v in zip(rs.pos_roots, got):
            want = root_value(rs, t, b)
            assert 0 <= v < N and Fraction(v, N) == want.q
            assert (v == 0) == want.is_one()
            ones += want.is_one()
    assert ones > 0


def test_unknown_encoding():
    with pytest.raises(ValueError):
        integer_pairings(build_root_system("A2"), "weights", 5)


@pytest.mark.parametrize("type_str", TYPES)
def test_each_positive_root_is_an_earlier_root_plus_a_simple_one(type_str):
    rs = build_root_system(type_str)
    assert len(rs.height_steps) == rs.N == len(set(rs.pos_roots))
    zero = (0,) * rs.rank
    for n, (b, (j, i)) in enumerate(zip(rs.pos_roots, rs.height_steps)):
        assert -1 <= j < n
        parent = rs.pos_roots[j] if j >= 0 else zero
        assert tuple(map(operator.add, parent, rs.simple_roots[i])) == b
    assert {b for b, (j, _i) in zip(rs.pos_roots, rs.height_steps) if j < 0} == set(
        rs.simple_roots)


def _check_steps(rs, sub):
    roots, steps = sub.height_steps
    assert roots[:len(sub.basis)] == sub.basis
    assert list(roots[len(sub.basis):]) == [b for b in rs.pos_roots
                                            if b in sub.roots and b not in sub.basis]
    assert len(steps) == len(roots)
    zero = (0,) * rs.rank
    for n, (b, (j, k)) in enumerate(zip(roots, steps)):
        assert -1 <= j < n
        parent = roots[j] if j >= 0 else zero
        assert tuple(map(operator.add, parent, sub.basis[k])) == b
    assert {b for b, (j, _k) in zip(roots, steps) if j < 0} == set(sub.basis)


@pytest.mark.parametrize("type_str", TYPES)
def test_subsystem_and_tuple_tables_match_the_full_table(type_str):
    # the stabilisers of seeded points on both encodings: each one's height
    # steps cover its positive roots, and its table is read off the full
    # table
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    at = {b: n for n, b in enumerate(rs.pos_roots)}
    ranks = set()
    for on, modulus in (("values", P), ("values", 7), ("torus", 10), ("torus", 21)):
        full = integer_pairings(rs, on, modulus)
        for _ in range(PER_KIND // 5):
            x = tuple(rng.randrange(modulus) * (rng.random() < 0.6) for _ in range(rs.rank))
            table = full(x)
            sub = reflection_stabilizer(rs, lambda b: table[at[b]] == 0)
            _check_steps(rs, sub)
            ranks.add(sub.rank)
            roots = sub.height_steps[0]
            assert integer_pairings(rs, on, modulus, roots=sub)(x) == tuple(
                table[at[b]] for b in roots)
    assert len(ranks) > 1
