"""Lambda_chi, blocks, dimensions, unramified criteria, Poincare series,
finite-type verdicts — with brute-force stabilizers as the independent oracle
for the dimension formula."""

import pytest

from lieram.errors import (
    HypothesisFailure,
    InvalidSupport,
    NoParabolicConjugate,
    NonPrime,
    NotNilpotentContext,
)
from lieram.modular import (
    ModWeight,
    PChar,
    dim_C,
    enumerate_lambda_chi,
    eta_subsystems,
    finite_type_verdict,
    is_unramified,
    mod_blocks,
    poincare_series,
    regularity_and_structure,
    rho_weight,
    unramified_count,
)
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from lieram.selftest import stabilizer_bruteforce
from lieram.weyl import enumerate_group


def F(p, e=1):
    return make_field(p, e)


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


def test_lambda_chi_zero_char():
    a1 = build_root_system("A1")
    chi = PChar(a1, 3)
    weights, ambient = enumerate_lambda_chi(chi)
    assert ambient.e == 1
    assert sorted(w.values[0].as_int() for w in weights) == [0, 1, 2]


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
        x = w.values[0]
        assert x**3 - x == one  # each solves the Artin-Schreier equation
    assert len(set(weights)) == 3
    # the set is a single additive coset of F_p
    base = weights[0].values[0]
    assert {w.values[0] for w in weights} == {base + ambient.from_int(j)
                                              for j in range(3)}


def test_mod_blocks_a1_p3():
    a1 = build_root_system("A1")
    blocks = mod_blocks(PChar(a1, 3))
    assert len(blocks) == 2
    by_lam = {b.lam.values[0].as_int(): b for b in blocks}
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
    assert dim_C(a1, ModWeight((f3.zero(),))) == 1    # Steinberg point
    assert dim_C(a1, ModWeight((f3.one(),))) == 2
    f25 = F(5, 2)
    a2 = build_root_system("A2")
    g = f25.generator()  # not in F_5
    assert dim_C(a2, ModWeight((g, g * 2))) in (1,)  # generic: both trivial


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
        for eta_vals in pts:
            eta = ModWeight(eta_vals)
            point_stab = stabilizer_bruteforce(
                W, [eta_vals], lambda w, x: w.act_values(x))
            coset_stab = [w for w in W
                          if all(v.in_prime_field()
                                 for v in (ModWeight(w.act_values(eta_vals))
                                           - eta).values)]
            assert len(coset_stab) % len(point_stab) == 0
            assert dim_C(rs, eta) == len(coset_stab) // len(point_stab)


def test_levi_reduction_consistency():
    # W(eta + Lambda) equals the reflection subgroup of Phi' on Lambda_chi
    a2 = build_root_system("A2")
    f5 = F(5)
    chi = PChar(a2, 5, values=(f5.zero(), f5.one()))  # Phi' = {±alpha1}
    assert chi.levi.type_str == "A1"
    weights, ambient = enumerate_lambda_chi(chi)
    rho = rho_weight(a2, ambient)
    for lam in weights:
        _zero, fp_sub = eta_subsystems(a2, lam + rho)
        assert fp_sub.roots == chi.levi.roots


def test_is_unramified_examples():
    a1 = build_root_system("A1")
    f3 = F(3)
    minus_rho = ModWeight((f3.from_int(-1),))
    assert is_unramified(a1, minus_rho, "simpleRootCriterion")
    assert is_unramified(a1, minus_rho, "definitional")
    lam0 = ModWeight((f3.zero(),))
    assert not is_unramified(a1, lam0, "simpleRootCriterion")
    assert not is_unramified(a1, lam0, "definitional")

    # A2 over F_25: (lam+rho)(h_1) outside F_5, (lam+rho)(h_2) = 0
    a2 = build_root_system("A2")
    f25 = F(5, 2)
    g = f25.generator()
    assert g**5 != g
    lam = ModWeight((g - f25.one(), f25.from_int(-1)))
    assert is_unramified(a2, lam, "simpleRootCriterion")
    assert is_unramified(a2, lam, "definitional")
    # both stabilizers are <s2>
    zero, fp_sub = eta_subsystems(a2, lam + rho_weight(a2, f25))
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
    assert poincare_series(a2, ModWeight((f5.zero(), f5.zero()))) == (1,)
    # W(eta) = <s1>: eta = (0, c) with nothing else vanishing
    eta = ModWeight((f5.zero(), f5.from_int(1)))
    assert poincare_series(a2, eta) == (1, 1, 1)
    b2 = build_root_system("B2")
    eta_b = ModWeight((f5.zero(), f5.from_int(1)))
    assert poincare_series(b2, eta_b) == (1, 1, 1, 1)
    # P(1) = [W : W(eta)], also where |W| is far beyond enumeration
    assert sum(poincare_series(a2, eta)) == dim_C(a2, eta)
    e8 = build_root_system("E8")
    eta_e8 = ModWeight(tuple(F(7).from_int(k) for k in (1, 2, 3, 4, 5, 6, 0, 1)))
    P = poincare_series(e8, eta_e8)
    assert sum(P) == dim_C(e8, eta_e8) and P[-1] == 1 and P == P[::-1]
    with pytest.raises(NotNilpotentContext):
        f25 = F(5, 2)
        poincare_series(a2, ModWeight((f25.generator(), f25.zero())))
    # bad primes: W(eta) is not conjugate to a standard parabolic
    for t, p, values in (("G2", 2, (1, 0)), ("F4", 3, (1, 1, 1, 1))):
        with pytest.raises(NoParabolicConjugate):
            poincare_series(build_root_system(t),
                            ModWeight(tuple(F(p).from_int(v) for v in values)))


def test_poincare_nonsimple_stabilizer_conjugates():
    # eta with only eta(h_alpha0) = 0 needs a conjugation before W(eta) is
    # generated by simple reflections
    a2 = build_root_system("A2")
    f5 = F(5)
    eta = ModWeight((f5.one(), f5.from_int(4)))  # eta(h_a0) = 5 = 0
    zero, _ = eta_subsystems(a2, eta)
    assert zero.basis == ((1, 1),)  # not simple
    assert poincare_series(a2, eta) == (1, 1, 1)


def test_finite_type_verdicts():
    a2 = build_root_system("A2")
    f5 = F(5)
    v, w = finite_type_verdict(a2, ModWeight((f5.zero(), f5.one())))
    assert v == "unknown-boundary"
    assert w["differing_component"] == {"big": "A2", "small": "A1"}
    v, _ = finite_type_verdict(a2, ModWeight((f5.zero(), f5.one())),
                               assume_unique_simple=True)
    assert v == "finite"
    v, _ = finite_type_verdict(a2, ModWeight((f5.zero(), f5.zero())))
    assert v == "semisimple"
    a3 = build_root_system("A3")
    v, _ = finite_type_verdict(
        a3, ModWeight((f5.one(), f5.zero(), f5.one())))  # W(eta) = <s2>, rank diff 2
    assert v == "infinite"
    # middle-node removal: rank diff 1 but small side disconnected
    v, _ = finite_type_verdict(
        a3, ModWeight((f5.zero(), f5.one(), f5.zero())))  # W(eta) = <s1, s3>
    assert v == "infinite"
    b2 = build_root_system("B2")
    v, w = finite_type_verdict(b2, ModWeight((f5.zero(), f5.one())))
    assert v == "unknown-boundary"  # (B2, A1) pair
    g2 = build_root_system("G2")
    v, w = finite_type_verdict(g2, ModWeight((f5.zero(), f5.one())))
    assert v == "unknown-boundary"  # (G2, A1)


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
        weights, ambient = enumerate_lambda_chi(chi)
        rho = rho_weight(a2, ambient)
        for b in blocks:
            assert b.orbit_size == b.dim
        assert sum(b.orbit_size for b in blocks) == len(weights)
