"""Subsystem.is_parabolic and Subsystem.coset_poincare against their
definitions.  A classified subsystem Psi is parabolic iff it equals Phi
inter span_Q(Psi), here found by one solve_linear solve per positive root;
its coset series is W(t) divided, one component at a time, by the Poincare
polynomial W_i(t) of each component of Psi.  The subsystems are the zero
sets {alpha : eta(h_alpha) = 0} of every eta in F_p^r on the rank-2 and
rank-3 types at p = 5 and 7, of seeded eta on F4, D5, E6 and E7 at p = 7
and 11, and the two non-parabolic subsystems of long roots, D4 in F4 and
A1xA1 in B2."""

import itertools
import operator
import random

import pytest

from lieram import rootdata
from lieram.rootdata import build_root_system, degrees, solve_linear, subsystem_classify


def _zero_set(rs, eta, p):
    # {alpha : eta(h_alpha) = 0 mod p}, eta(h_beta) = sum_i beta^vee_i eta_i
    return [b for b in rs.all_roots() if not sum(map(operator.mul, rs.coroot(b), eta)) % p]


def _parabolic_by_solves(sub):
    # Phi inter span_Q(Psi) on the positive roots, one solve per root
    rs = sub.rs
    solve = solve_linear([[b[i] for b in sub.basis] for i in range(rs.rank)])
    span = {b for b in rs.pos_roots if solve(list(b)) is not None}
    return span == {b for b in sub.roots if rs.is_positive(b)}


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] += x * y
    return out


def _poincare_polynomial(components):
    # prod [d]_t over the degrees, [d]_t = 1 + t + ... + t^(d-1)
    out = [1]
    for d in degrees(components):
        out = _times(out, [1] * d)
    return out


def _divided(num, den):
    # num / den for a monic den dividing num, by long division
    num, quotient = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = c = num[k + len(den) - 1]
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert not any(num), "the division is not exact"
    return quotient


def _series_by_division(sub):
    series = _poincare_polynomial(sub.rs.components)
    for component in sub.components:
        series = _divided(series, _poincare_polynomial([component]))
    return tuple(series)


def _mismatches(subs):
    return [(sub.rs.type_str, sub.type_str) for sub in subs
            if sub.is_parabolic != _parabolic_by_solves(sub)
            or sub.coset_poincare != _series_by_division(sub)]


def _every_zero_set(t, p):
    rs = build_root_system(t)
    return {id(sub): sub for sub in (subsystem_classify(rs, _zero_set(rs, eta, p))
                                     for eta in itertools.product(range(p), repeat=rs.rank))}


@pytest.mark.parametrize("t", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_every_zero_set_of_small_types(t):
    subs = [sub for p in (5, 7) for sub in _every_zero_set(t, p).values()]
    assert len(subs) > 4
    assert _mismatches(subs) == []
    # the empty zero set (a regular eta) and Phi itself (eta = 0) are among them
    assert {sub.rank for sub in subs} >= {0, build_root_system(t).rank}


@pytest.mark.parametrize("t", ["F4", "D5", "E6", "E7"])
def test_seeded_zero_sets_of_large_types(t):
    rs = build_root_system(t)
    rng = random.Random(f"parabolic/{t}")
    subs = {}
    for p in (7, 11):
        for _ in range(300):
            # a third of the values 0, so that larger zero sets are met
            eta = [0 if rng.random() < 1 / 3 else rng.randrange(p) for _ in range(rs.rank)]
            sub = subsystem_classify(rs, _zero_set(rs, eta, p))
            subs[id(sub)] = sub
    assert len({sub.rank for sub in subs.values()}) > 3
    assert _mismatches(subs.values()) == []


def test_long_roots_that_are_not_parabolic():
    # D4 in F4 and A1xA1 in B2 span the whole space, yet hold no short root
    for t, letters in (("F4", "D4"), ("B2", "A1xA1")):
        rs = build_root_system(t)
        sub = subsystem_classify(rs, [b for b in rs.all_roots() if rs.norm(b) == 2])
        assert sub.type_str == letters
        assert not sub.is_parabolic and not _parabolic_by_solves(sub)
        assert sub.coset_poincare == _series_by_division(sub)


def test_the_series_is_kept_per_pair_of_degree_lists():
    # the subsystems of one type share the series of one stabiliser type
    # (A1 in B3 on a long and on a short simple root), so a second type met
    # is one lookup: the same tuple, computed once
    rs = build_root_system("B3")
    long_a1, short_a1 = (subsystem_classify(rs, [a, tuple(-x for x in a)])
                         for a in (rs.simple_roots[0], rs.simple_roots[2]))
    assert long_a1 is not short_a1 and long_a1.type_str == short_a1.type_str == "A1"
    assert long_a1.coset_poincare is short_a1.coset_poincare
    assert rootdata.coset_series.cache_info().hits > 0
    assert rootdata.coset_series((2, 4, 6), (2,)) == tuple(
        _divided(_poincare_polynomial([("B", 3)]), [1, 1]))
