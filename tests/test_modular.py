"""Lambda_chi, blocks, dimensions, unramified criteria, Poincare series,
finite-type verdicts — with brute-force stabilizers as the independent oracle
for the dimension formula."""

import itertools
import random
from fractions import Fraction

import pytest

from lieram.errors import (
    BoundExceeded,
    HypothesisFailure,
    InvalidSupport,
    NoParabolicConjugate,
    NonPrime,
    NotNilpotentContext,
)
from lieram.cli import parse_field_values
from lieram.modular import (
    PChar,
    _finite_type,
    _slots,
    _table,
    block_finite_type,
    block_unramified,
    dim_C,
    eta_subsystems,
    finite_type_on_slots,
    mod_blocks,
    poincare_on_slots,
    poincare_series,
    regularity_and_structure,
    unramified_count,
    unramified_on_slots,
)
from lieram.quantum import QChar, TorusElement, hc_shift, q_unramified, simplicity_necessary, w_t
from lieram.rootdata import build_root_system, subsystem_classify
from lieram.scalars import make_field
from lieram.selftest import (
    close_up,
    enumerate_lambda_chi,
    finite_type_by_closure,
    pair,
    stabilizer_bruteforce,
)
from lieram.weyl import enumerate_group, reflection_stabilizer


def F(p, e=1):
    return make_field(p, e)


def plus_rho(lam):
    # eta = lambda + rho by FFElem addition: rho(h_i) = 1
    return tuple(v + 1 for v in lam)


def minus_rho(eta):
    return tuple(v - 1 for v in eta)


def test_pchar_validation():
    a2 = build_root_system("A2")
    with pytest.raises(HypothesisFailure):
        PChar(a2, 3)  # 3 | rank+1: trace form fails
    with pytest.raises(HypothesisFailure):
        PChar(build_root_system("G2"), 3)
    chi = PChar(a2, 5)
    assert chi.levi.type_str == "A2"
    with pytest.raises(InvalidSupport):
        PChar(a2, 5, support=(7,))
    for p in (0, 1, 4, -5):  # not prime: refused before the hypothesis flags
        with pytest.raises(NonPrime, match=f"^{p} is not prime$"):
            PChar(build_root_system("A3"), p)


def test_a_weight_of_the_wrong_length_is_refused():
    # r - 1 and r + 1 values, and none on a rank-1 type: a ValueError, not an
    # answer read off a missing or extra value, nor a bare IndexError; the
    # same for as many slot vectors given to the slot probes
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    for rs, p, n in ((a2, 5, 1), (a2, 5, 3), (a1, 3, 0)):
        values, slots = (F(p).zero(),) * n, [(0,)] * n
        for probe in (lambda: PChar(rs, p, values=values), lambda: block_unramified(rs, values),
                      lambda: poincare_series(rs, values),
                      lambda: block_finite_type(rs, values),
                      lambda: unramified_on_slots(rs, slots, p),
                      lambda: finite_type_on_slots(rs, slots, p),
                      lambda: poincare_on_slots(rs, slots, p)):
            with pytest.raises(ValueError, match=f"^{n} values given for rank {rs.rank}$"):
                probe()


def test_a_torus_point_of_the_wrong_length_is_refused():
    # the same refusal on the quantum side: r - 1 and r + 1 exponents, and
    # none on a rank-1 type, at each public entry point that takes a torus
    # point; a ValueError, not a Phi' or a fiber read off a cut or padded
    # point, nor a bare IndexError
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    for rs, ell, n in ((a2, 5, 1), (a2, 5, 3), (a1, 3, 0)):
        t, chi = TorusElement((Fraction(1, 3),) * n), QChar(rs, ell)
        for probe in (lambda: QChar(rs, ell, chi_s=t), lambda: w_t(rs, t),
                      lambda: hc_shift(rs, t, ell), lambda: hc_shift(rs, t, ell, "back"),
                      lambda: q_unramified(rs, t, "component", ell),
                      lambda: q_unramified(rs, t, "highestWeight", ell),
                      lambda: simplicity_necessary(chi, t)):
            with pytest.raises(ValueError, match=f"^{n} exponents given for rank {rs.rank}$"):
                probe()


def test_lambda_chi_counts_its_points_against_the_bound():
    # the same refusal as mod_blocks, before any weight is listed
    chi = PChar(build_root_system("A2"), 5)
    for run in (enumerate_lambda_chi, mod_blocks):
        with pytest.raises(BoundExceeded, match="^25 points to walk exceeds bound 10$"):
            run(chi, bound=10)
    assert len(enumerate_lambda_chi(chi, bound=25)[0]) == 25
    big = PChar(build_root_system("A2"), 999999937)
    with pytest.raises(BoundExceeded, match="points to walk exceeds bound 1000000$"):
        enumerate_lambda_chi(big)


def test_lambda_chi_zero_char():
    a1 = build_root_system("A1")
    chi = PChar(a1, 3)
    weights, ambient = enumerate_lambda_chi(chi)
    assert ambient.e == 1
    assert sorted(w[0].as_int() for w in weights) == [0, 1, 2]


@pytest.mark.parametrize("t,p", [("A1", 3), ("A2", 5), ("B2", 3), ("G2", 5)])
def test_lambda_chi_cardinality(t, p):
    rs = build_root_system(t)
    chi = PChar(rs, p)
    weights, _ = enumerate_lambda_chi(chi)
    assert len(set(weights)) == p**rs.rank


def test_lambda_chi_extension_case():
    # c = 1 over F_3: base point in F_27 solving x^3 - x = 1, plus translates
    a1 = build_root_system("A1")
    chi = PChar(a1, 3, values=(F(3).from_int(1),))
    weights, ambient = enumerate_lambda_chi(chi)
    assert (ambient.p, ambient.e) == (3, 3)
    one = ambient.from_int(1)
    for w in weights:
        x = w[0]
        assert x**3 - x == one  # each solves the Artin-Schreier equation
    assert len(set(weights)) == 3
    # the set is a single additive coset of F_p
    base = weights[0][0]
    assert {w[0] for w in weights} == {base + ambient.from_int(j) for j in range(3)}


def test_mod_blocks_a1_p3():
    a1 = build_root_system("A1")
    blocks = mod_blocks(PChar(a1, 3))
    assert len(blocks) == 2
    by_lam = {b.lam[0].as_int(): b for b in blocks}
    assert by_lam[2].dim == 1 and by_lam[2].unramified
    assert by_lam[0].dim == 2 and not by_lam[0].unramified
    assert by_lam[0].orbit_size == 2
    assert sum(b.dim for b in blocks) == 3


def test_mod_blocks_a2_p5():
    a2 = build_root_system("A2")
    blocks = mod_blocks(PChar(a2, 5))
    assert len(blocks) == 7
    assert sum(b.dim for b in blocks) == 25


def test_mod_blocks_regular_semisimple():
    a1 = build_root_system("A1")
    chi = PChar(a1, 3, values=(F(3).from_int(1),))
    blocks = mod_blocks(chi)
    assert len(blocks) == 3
    assert all(b.dim == 1 and b.unramified for b in blocks)
    assert all(b.stab_point_type == "1" and b.stab_coset_type == "1"
               for b in blocks)


def test_dim_C_examples():
    a1 = build_root_system("A1")
    f3 = F(3)
    assert dim_C(a1, (f3.zero(),)) == 1    # Steinberg point
    assert dim_C(a1, (f3.one(),)) == 2
    f25 = F(5, 2)
    a2 = build_root_system("A2")
    g = f25.generator  # not in F_5
    assert dim_C(a2, (g, g * 2)) in (1,)  # generic: both trivial


def test_dim_C_against_bruteforce_stabilizers():
    # oracle: [W(eta + Lambda) : W(eta)] with the definitional stabilizers
    for t, p in (("A2", 5), ("B2", 3), ("G2", 5)):
        rs = build_root_system(t)
        W = enumerate_group(rs)
        fp = F(p)
        pts = []
        r = rs.rank
        for k in range(p**r):
            digits = [(k // p**i) % p for i in range(r)]
            pts.append(tuple(fp.from_int(d) for d in digits))
        for eta in pts:
            point_stab = stabilizer_bruteforce(
                W, [eta], lambda w, x: w.act_values(x))
            coset_stab = [w for w in W
                          if all(len((a - b).coeffs) <= 1  # in F_p
                                 for a, b in zip(w.act_values(eta), eta))]
            assert len(coset_stab) % len(point_stab) == 0
            assert dim_C(rs, eta) == len(coset_stab) // len(point_stab)


def test_levi_reduction_consistency():
    # W(eta + Lambda) equals the reflection subgroup of Phi' on Lambda_chi
    a2 = build_root_system("A2")
    f5 = F(5)
    chi = PChar(a2, 5, values=(f5.zero(), f5.one()))  # Phi' = {±alpha1}
    assert chi.levi.type_str == "A1"
    weights, _ambient = enumerate_lambda_chi(chi)
    for lam in weights:
        _zero, fp_sub = eta_subsystems(a2, plus_rho(lam))
        assert fp_sub.roots == chi.levi.roots


def test_is_unramified_examples():
    a1 = build_root_system("A1")
    f3 = F(3)
    both = {"simpleRootCriterion": True, "definitional": True}
    assert block_unramified(a1, (f3.from_int(-1),)) == both  # lambda = -rho
    assert block_unramified(a1, (f3.zero(),)) == dict.fromkeys(both, False)

    # A2 over F_25: (lam+rho)(h_1) outside F_5, (lam+rho)(h_2) = 0
    a2 = build_root_system("A2")
    f25 = F(5, 2)
    g = f25.generator
    assert g**5 != g
    lam = (g - f25.one(), f25.from_int(-1))
    assert block_unramified(a2, lam) == both
    # both stabilizers are <s2>
    zero, fp_sub = eta_subsystems(a2, plus_rho(lam))
    assert zero.order == 2 and fp_sub.order == 2


def test_unramified_counts():
    a2 = build_root_system("A2")
    f5 = F(5)
    res = unramified_count(PChar(a2, 5))
    assert res["predicted"] == 1 and res["enumerated"] == 1 and res["agree"]
    chi = PChar(a2, 5, values=(f5.zero(), f5.one()))
    res = unramified_count(chi)
    assert res["s"] == 1 and res["predicted"] == 5 and res["agree"]
    chi_rss = PChar(build_root_system("A1"), 3, values=(F(3).one(),))
    res = unramified_count(chi_rss)
    assert res["predicted"] == 3 and res["agree"]


def test_poincare_series():
    a2 = build_root_system("A2")
    f5 = F(5)
    assert poincare_series(a2, (f5.zero(), f5.zero())) == (1,)
    # W(eta) = <s1>: eta = (0, c) with nothing else vanishing
    eta = (f5.zero(), f5.from_int(1))
    assert poincare_series(a2, eta) == (1, 1, 1)
    b2 = build_root_system("B2")
    eta_b = (f5.zero(), f5.from_int(1))
    assert poincare_series(b2, eta_b) == (1, 1, 1, 1)
    # P(1) = [W : W(eta)], also where |W| is far beyond enumeration
    assert sum(poincare_series(a2, eta)) == dim_C(a2, eta)
    e8 = build_root_system("E8")
    eta_e8 = tuple(F(7).from_int(k) for k in (1, 2, 3, 4, 5, 6, 0, 1))
    P = poincare_series(e8, eta_e8)
    assert sum(P) == dim_C(e8, eta_e8) and P[-1] == 1 and P == P[::-1]
    with pytest.raises(NotNilpotentContext):
        f25 = F(5, 2)
        poincare_series(a2, (f25.generator, f25.zero()))
    # bad primes: W(eta) is not conjugate to a standard parabolic
    for t, p, values in (("G2", 2, (1, 0)), ("F4", 3, (1, 1, 1, 1))):
        with pytest.raises(NoParabolicConjugate):
            poincare_series(build_root_system(t), tuple(F(p).from_int(v) for v in values))


def test_poincare_nonsimple_stabilizer_conjugates():
    # eta with only eta(h_alpha0) = 0 needs a conjugation before W(eta) is
    # generated by simple reflections
    a2 = build_root_system("A2")
    f5 = F(5)
    eta = (f5.one(), f5.from_int(4))  # eta(h_a0) = 5 = 0
    zero, _ = eta_subsystems(a2, eta)
    assert zero.basis == ((1, 1),)  # not simple
    assert poincare_series(a2, eta) == (1, 1, 1)


def test_finite_type_verdicts():
    # each verdict is asked at lambda = eta - rho
    a2 = build_root_system("A2")
    f5 = F(5)
    v, w = block_finite_type(a2, minus_rho((f5.zero(), f5.one())))
    assert v == "unknown-boundary"
    assert w["differing_component"] == {"big": "A2", "small": "A1"}
    v, _ = block_finite_type(a2, minus_rho((f5.zero(), f5.one())),
                             assume_unique_simple=True)
    assert v == "finite"
    v, _ = block_finite_type(a2, minus_rho((f5.zero(), f5.zero())))
    assert v == "semisimple"
    a3 = build_root_system("A3")
    v, _ = block_finite_type(
        a3, minus_rho((f5.one(), f5.zero(), f5.one())))  # W(eta) = <s2>, rank diff 2
    assert v == "infinite"
    # middle-node removal: rank diff 1 but small side disconnected
    v, _ = block_finite_type(
        a3, minus_rho((f5.zero(), f5.one(), f5.zero())))  # W(eta) = <s1, s3>
    assert v == "infinite"
    b2 = build_root_system("B2")
    v, w = block_finite_type(b2, minus_rho((f5.zero(), f5.one())))
    assert v == "unknown-boundary"  # (B2, A1) pair
    g2 = build_root_system("G2")
    v, w = block_finite_type(g2, minus_rho((f5.zero(), f5.one())))
    assert v == "unknown-boundary"  # (G2, A1)


def test_finite_type_matches_the_closure_oracle():
    # the verdict and witness read off the two component lists equal the
    # closure oracle's on every pair small <= big of closures of at most 3
    # positive roots, and on the stabiliser pair of every eta in F_5^r and
    # of 200 seeded eta over F_25, with either value of assume_unique_simple
    rng = random.Random(0)
    f5, f25 = F(5), F(5, 2)
    verdicts, accepted, two_gone = set(), set(), 0
    for t in ("A1xB2", "B3", "C3", "G2", "A3"):
        rs = build_root_system(t)
        subs = {subsystem_classify(rs, close_up(rs, seed))
                for k in range(4) for seed in itertools.combinations(rs.pos_roots, k)}
        pairs = {(small, big) for small in subs for big in subs if small.roots <= big.roots}
        for small, big in pairs:
            if small.rank == big.rank - 1:
                two_gone += sum(not close_up(rs, basis) <= small.roots
                                for _l, _n, basis in big.components) == 2
        etas = [tuple(map(f5.from_int, x)) for x in itertools.product(range(5), repeat=rs.rank)]
        etas += [tuple(f25.elem((rng.randrange(5), rng.randrange(5))) for _ in range(rs.rank))
                 for _ in range(200)]
        for eta in etas:
            pairs.add(eta_subsystems(rs, eta))
        for small, big in pairs:
            for unique in (False, True):
                want = finite_type_by_closure(rs, small, big, unique)
                assert _finite_type(small, big, unique) == want, (t, small, big)
                verdicts.add(want[0])
                if want[0] == "finite":
                    d = want[1]["differing_component"]
                    accepted.add((d["big"], d["small"]))
        for eta in etas:
            assert block_finite_type(rs, minus_rho(eta)) == finite_type_by_closure(
                rs, *eta_subsystems(rs, eta)), (t, eta)
    assert verdicts == {"semisimple", "finite", "unknown-boundary", "infinite"}
    assert accepted >= {("A1", "1"), ("A2", "A1"), ("A3", "A2"), ("B2", "A1"),
                        ("B3", "B2"), ("C3", "B2"), ("G2", "A1")}
    assert two_gone


def _probe_by_field_arithmetic(rs, lam):
    # eta = lam + rho and each eta(h_beta) by FFElem arithmetic
    # (selftest.pair); the two unramified flags and the (zero, fp)
    # stabilisers read off those values
    eta = plus_rho(lam)
    vals = {b: pair(rs, eta, b) for b in rs.pos_roots}
    zero = reflection_stabilizer(rs, lambda b: vals[b].is_zero())
    # a value lies in F_p when it has no coefficient after the constant term
    fp = reflection_stabilizer(rs, lambda b: len(vals[b].coeffs) <= 1)
    simple = not any(len(v.coeffs) == 1 for v in eta)
    return eta, {"simpleRootCriterion": simple, "definitional": fp.order == zero.order}, zero, fp


def test_slot_probes_match_field_arithmetic_on_extension_fields():
    # every lambda of Lambda_chi for the B2/p=3 mixed-Levi character of
    # demos/unramified_criteria.py (ambient F_27) and an A2/p=5 AS(1),0
    # character (ambient F_{5^5}): eta on slots, both unramified flags and
    # the zero and F_p stabilisers of the slot path against the oracle
    b2, a2 = build_root_system("B2"), build_root_system("A2")
    values, field = parse_field_values("AS(1),0", 5, 2)
    chars = [PChar(b2, 3, values=(F(3).zero(), F(3).one()), support=(0,)),
             PChar(a2, 5, values=values, support=(0,), field=field)]
    seen = set()
    for chi in chars:
        rs = chi.rs
        weights, ambient = enumerate_lambda_chi(chi)
        assert ambient.e > 1
        for lam in weights:
            eta, flags, zero, fp = _probe_by_field_arithmetic(rs, lam)
            assert lam[0].field == eta[0].field == ambient
            assert _table(rs, *_slots(lam), 1)[0] == _slots(eta)[0]
            assert block_unramified(rs, lam) == flags, lam
            assert [s.roots for s in eta_subsystems(rs, eta)] == [zero.roots, fp.roots]
            assert dim_C(rs, eta) == fp.order // zero.order
            assert block_finite_type(rs, lam) == finite_type_by_closure(rs, zero, fp)
            seen.add((rs.type_str, *flags.values(), zero.type_str, fp.type_str))
    # both flags take both values on each type, with stabilisers other than 1
    assert {s[:3] for s in seen} >= {("B2", False, False), ("B2", True, True),
                                     ("A2", False, False), ("A2", True, True)}
    assert {s[3] for s in seen} - {"1"} and {s[4] for s in seen} - {"1"}


def test_regularity_and_structure():
    a1 = build_root_system("A1")
    chi = PChar(a1, 3, support=(0,))
    out = regularity_and_structure(chi)
    assert out["regular"] and out["fullyAzumaya"]
    assert out["descriptor"] == {"matrix_size": 3, "local_dims": [1, 2]}
    chi0 = PChar(build_root_system("A2"), 5)
    out = regularity_and_structure(chi0)
    assert not out["regular"] and out["descriptor"] is None
    chi_rss = PChar(a1, 3, values=(F(3).one(),))
    out = regularity_and_structure(chi_rss)
    assert out["regular"]
    assert out["descriptor"]["local_dims"] == [1, 1, 1]


def test_rank_identity_beyond_rank_three():
    b3 = build_root_system("B3")
    blocks = mod_blocks(PChar(b3, 5))
    assert sum(b.dim for b in blocks) == 125


def test_block_dims_constant_on_classes():
    # the dimension formula is class-invariant and matches the orbit sizes
    a2 = build_root_system("A2")
    for chi in (PChar(a2, 5), PChar(a2, 5, values=(F(5).zero(), F(5).one()))):
        blocks = mod_blocks(chi)
        weights, _ambient = enumerate_lambda_chi(chi)
        for b in blocks:
            assert b.orbit_size == b.dim
        assert sum(b.orbit_size for b in blocks) == len(weights)
