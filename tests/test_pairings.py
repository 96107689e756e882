"""The pairings of all positive roots against the single-root formulas they
replace on the stabiliser paths: modular._pairings, which pairs each
coefficient slot (modular._slots) through weyl.integer_pairings, against
selftest.pair on coroot values over F_p, F_{p^2} and F_{p^p} (random
coefficients and AS literals), and weyl.integer_pairings against
selftest.root_value on torus points with mixed denominators; seeded, 220
points per type."""

import math
import random
from fractions import Fraction

import pytest

from lieram.cli import parse_field_values
from lieram.modular import _pairings, _slots
from lieram.quantum import TorusElement
from lieram.rootdata import build_root_system
from lieram.scalars import DEFAULT_FIELD_BOUND, make_field
from lieram.selftest import pair, root_value
from lieram.weyl import integer_pairings

TYPES = ["A2", "B3", "C3", "D4", "G2", "F4", "A1xB2", "E6"]
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
            got = _pairings(rs, _slots(values, field), field.p)
            assert list(got) == list(rs.pos_roots)
            for b, slots in got.items():
                want = pair(rs, values, b)
                assert slots == (want.coeffs + pad)[:e]
                assert (not any(slots)) == want.is_zero()
                assert (not any(slots[1:])) == want.in_prime_field()
                seen["zero" if want.is_zero() else
                     "fp" if want.in_prime_field() else "other"] += 1
    assert min(seen.values()) > 0


@pytest.mark.parametrize("type_str", TYPES)
def test_torus_pairings_match_root_value(type_str):
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    ones = 0
    for _ in range(4 * PER_KIND):
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
