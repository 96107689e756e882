"""Root system construction, pairings, subsystems, hypothesis flags."""

import random

import pytest

from lieram.errors import InvalidType, NotClosed
from lieram.rootdata import (
    build_root_system,
    check_closed,
    hypothesis_check,
    parse_cartan_type,
    subsystem_classify,
    two_rho_dot,
)
from lieram.scalars import make_field
from lieram.selftest import close_up, pair

CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}

ALL_TYPES = ([f"A{r}" for r in range(1, 9)]
             + [f"B{r}" for r in range(2, 9)]
             + [f"C{r}" for r in range(2, 9)]
             + [f"D{r}" for r in range(3, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("t", ALL_TYPES)
def test_positive_root_counts_and_highest(t):
    rs = build_root_system(t)
    letter, rank = t[0], int(t[1:])
    expected = {"E": {6: 36, 7: 63, 8: 120}.get(rank), "F": 24, "G": 6}.get(letter)
    if expected is None:
        expected = CLASSICAL_COUNTS[letter](rank)
    assert rs.N == expected
    # unique maximal element, positive a-coefficients
    a0 = rs.highest_root(0)
    assert all(rs.leq(b, a0) for b in rs.pos_roots)
    assert all(c > 0 for c in rs.a)


def test_a1_trivial():
    rs = build_root_system("A1")
    assert rs.pos_roots == ((1,),)
    assert rs.a == (1,)


def test_g2_by_closure():
    rs = build_root_system("G2")
    # oracle: the six positive roots of G2 written out (alpha1 short)
    assert set(rs.pos_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    assert rs.a == (3, 2)
    assert rs.d == (1, 3)


def test_b2_bourbaki():
    rs = build_root_system("B2")
    assert set(rs.pos_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert rs.a == (1, 2)
    assert rs.d == (2, 1)  # alpha1 long, alpha2 short


def test_closure_property_small_types():
    for t in ("A2", "B2", "G2", "A3", "C3"):
        rs = build_root_system(t)
        allr = rs.all_roots()
        for b in allr:
            for g in allr:
                s = tuple(x + y for x, y in zip(b, g))
                if s in allr:
                    pass  # membership itself is the closure bookkeeping
        assert len(allr) == 2 * rs.N


def test_pair_examples():
    a2 = build_root_system("A2")
    F = make_field(7, 1)
    rho = (F.one(), F.one())
    assert pair(a2, rho, a2.highest_root(0)) == F.from_int(2)
    zero = (F.zero(), F.zero())
    assert pair(a2, zero, a2.highest_root(0)).is_zero()
    b2 = build_root_system("B2")
    rho2 = (F.one(), F.one())
    assert b2.coroot((1, 2)) == (1, 1)
    assert pair(b2, rho2, (1, 2)) == F.from_int(2)


def test_pair_linear_and_coroot_additive():
    b2 = build_root_system("B2")
    F = make_field(5, 1)
    # additivity of coroots for same-length beta, gamma, beta+gamma
    for b in b2.pos_roots:
        for g in b2.pos_roots:
            s = tuple(x + y for x, y in zip(b, g))
            if b2.is_root(s) and b2.norm(b) == b2.norm(g) == b2.norm(s):
                cb, cg, cs = b2.coroot(b), b2.coroot(g), b2.coroot(s)
                assert tuple(x + y for x, y in zip(cb, cg)) == cs


def test_two_rho_dot():
    assert two_rho_dot(build_root_system("A1"), (1,)) == 2
    g2 = build_root_system("G2")
    assert two_rho_dot(g2, g2.highest_root(0)) == 18
    b2 = build_root_system("B2")
    assert two_rho_dot(b2, tuple(-c for c in b2.highest_root(0))) == -8
    # (2 rho, alpha_i) = 2 d_i everywhere
    for t in ALL_TYPES:
        rs = build_root_system(t)
        for i in range(rs.rank):
            e = tuple(1 if k == i else 0 for k in range(rs.rank))
            assert two_rho_dot(rs, e) == 2 * rs.d[i]


def test_subsystem_classify_worked_examples():
    a3 = build_root_system("A3")
    s = subsystem_classify(a3, close_up(a3, [(1, 0, 0), (0, 0, 1)]))
    assert s.type_str == "A1xA1" and s.order == 4

    g2 = build_root_system("G2")
    s = subsystem_classify(g2, close_up(g2, [(0, 1), (3, 1)]))
    assert s.type_str == "A2" and s.order == 6
    assert s.roots == frozenset({(0, 1), (3, 1), (3, 2),
                                 (0, -1), (-3, -1), (-3, -2)})

    b2 = build_root_system("B2")
    s = subsystem_classify(b2, close_up(b2, [(1, 0), (1, 2)]))
    assert s.type_str == "A1xA1" and s.order == 4


def test_subsystem_invariant_under_negation_and_permutation():
    g2 = build_root_system("G2")
    roots = close_up(g2, [(0, 1), (3, 1)])
    negated = frozenset(tuple(-c for c in b) for b in roots)
    for variant in (roots, negated, frozenset(sorted(roots, reverse=True))):
        assert subsystem_classify(g2, variant).type_str == "A2"


def test_subsystem_not_closed():
    a2 = build_root_system("A2")
    with pytest.raises(NotClosed):
        subsystem_classify(a2, {(1, 0), (-1, 0), (0, 1), (0, -1)})
    with pytest.raises(NotClosed):
        subsystem_classify(a2, {(1, 0)})


def closed_by_all_pairs(rs, S):
    """Oracle: negation-stable, and every ordered pair of S sums to a
    non-root or to a member of S."""
    return (all(tuple(-c for c in b) in S for b in S)
            and not any(rs.is_root(s) and s not in S
                        for b in S for g in S for s in [tuple(x + y for x, y in zip(b, g))]))


@pytest.mark.parametrize("t", ["A3", "B3", "G2", "F4"])
def test_check_closed_matches_the_all_pairs_oracle(t):
    rs = build_root_system(t)
    rng = random.Random(t)
    roots, pos = sorted(rs.all_roots()), list(rs.pos_roots)

    def neg(b):
        return tuple(-c for c in b)

    verdicts = []
    for trial in range(240):
        kind = trial % 4
        if kind == 0:  # closed: generated by a few roots
            S = set(close_up(rs, rng.sample(roots, rng.randint(0, 3))))
        elif kind == 1:  # a closed set with one pair of roots taken out
            S = set(close_up(rs, rng.sample(roots, rng.randint(2, 4))))
            b = rng.choice(sorted(S))
            S -= {b, neg(b)}
        elif kind == 2:  # negation-stable, random
            half = rng.sample(pos, rng.randint(0, len(pos)))
            S = set(half) | set(map(neg, half))
        else:  # any subset of the roots
            S = set(rng.sample(roots, rng.randint(0, len(roots))))
        closed = closed_by_all_pairs(rs, S)
        verdicts.append(closed)
        if closed:
            assert check_closed(rs, S) == frozenset(S)
        else:
            with pytest.raises(NotClosed):
                check_closed(rs, S)
    assert 20 < sum(verdicts) < len(verdicts) - 20


def test_subsystem_letter_disambiguation():
    b3 = build_root_system("B3")
    assert subsystem_classify(b3, b3.all_roots()).type_str == "B3"
    c3 = build_root_system("C3")
    assert subsystem_classify(c3, c3.all_roots()).type_str == "C3"
    f4 = build_root_system("F4")
    assert subsystem_classify(f4, f4.all_roots()).type_str == "F4"
    # long roots of B3 form D3 = A3; short roots of B3 form A1 x A1 x A1
    longs = frozenset(b for b in b3.all_roots() if b3.norm(b) == 2)
    assert subsystem_classify(b3, longs).type_str == "A3"
    shorts_closed = close_up(b3, [b for b in b3.all_roots() if b3.norm(b) == 1])
    # short roots are not closed in B3 (e_i + e_j is long); close and check
    assert subsystem_classify(b3, shorts_closed).type_str == "B3"
    # long roots of C3 are mutually orthogonal
    longs_c = frozenset(b for b in c3.all_roots() if c3.norm(b) == 2)
    assert subsystem_classify(c3, longs_c).type_str == "A1xA1xA1"


def test_hypothesis_check():
    assert hypothesis_check("G2", 3)["goodPrime"] is False
    assert hypothesis_check("A4", 5)["traceFormOK"] is False
    rep = hypothesis_check("A2", 7)
    assert rep["goodPrime"] and rep["traceFormOK"] and rep["ok"]
    assert hypothesis_check("E8", 5)["goodPrime"] is False
    assert hypothesis_check("A1", 2)["ok"] is False  # p must be odd


def test_reducible_types():
    rs = build_root_system("A1xA1")
    assert rs.N == 2 and rs.rank == 2
    assert rs.highest_root(0) == (1, 0) and rs.highest_root(1) == (0, 1)
    rs2 = build_root_system("A2xB2")
    assert rs2.N == 3 + 4
    assert rs2.cartan[0][2] == 0  # block diagonal


def test_type_parsing():
    assert parse_cartan_type("a2xB3") == (("A", 2), ("B", 3))
    assert parse_cartan_type("C1") == (("A", 1),)
    with pytest.raises(InvalidType):
        parse_cartan_type("H4")
    with pytest.raises(InvalidType):
        parse_cartan_type("E9")
    # D2 = A1xA1 has two maximal roots; D starts at rank 3
    with pytest.raises(InvalidType, match="invalid component D2"):
        parse_cartan_type("D2")
    assert parse_cartan_type("D3") == (("D", 3),)
    with pytest.raises(InvalidType):
        parse_cartan_type("")


def test_weyl_orders_and_index():
    assert build_root_system("G2").weyl_order() == 12
    assert build_root_system("E6").weyl_order() == 51840
    a2 = build_root_system("A2")
    assert subsystem_classify(a2, a2.all_roots()).index_of_connection() == 3
