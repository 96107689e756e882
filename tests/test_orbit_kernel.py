"""The integer-tuple orbit kernel of mod_blocks / q_blocks against the
FFElem / UnityExp transport it replaced: the same representatives in the same
order and the same orbit sizes."""

from fractions import Fraction

import pytest

from lieram.cli import parse_field_values
from lieram.modular import ModWeight, PChar, enumerate_lambda_chi, mod_blocks, rho_weight
from lieram.quantum import QChar, TorusElement, ell_fiber, q_blocks
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from lieram.weyl import integer_actions, orbit_partition, simple_reflection


def modular_orbits_by_transport(chi):
    """(lambda, orbit size) per block, walking FFElem values with act_values."""
    rs = chi.rs
    weights, ambient = enumerate_lambda_chi(chi)
    rho = rho_weight(rs, ambient)
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    classes = orbit_partition(
        [(lam + rho).values for lam in weights],
        [lambda t, w=w: w.act_values(t) for w in gens],
        key=lambda t: tuple((v - ambient.one()).coeffs for v in t))
    return [(ModWeight(cls[0]) - rho, len(cls)) for cls in classes]


def quantum_orbits_by_transport(chi):
    """(representative, orbit size) per block, walking UnityExp exponents with
    act_torus_exponents."""
    rs = chi.rs
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    classes = orbit_partition(
        ell_fiber(rs, chi.chi_s, chi.ell),
        [lambda t, w=w: TorusElement(w.act_torus_exponents(t.exps)) for w in gens],
        key=lambda t: t.key())
    return [(cls[0], len(cls)) for cls in classes]


def _fp2_character():
    # F_{5^2} values with nonzero absolute trace: Lambda_chi lives in F_{5^10}
    a2 = build_root_system("A2")
    F25 = make_field(5, 2)
    values = (F25.elem((1, 1)), F25.elem((0, 1)))
    assert any(v.trace_to_prime() for v in values)
    return PChar(a2, 5, values=values, field=F25)


def _literal_character(t, p, text):
    rs = build_root_system(t)
    values, field = parse_field_values(text, p, rs.rank, 10**9)
    return PChar(rs, p, values=values, field=field)


MODULAR_CELLS = {
    "A2/p5 nilpotent": (lambda: PChar(build_root_system("A2"), 5, support=(0,)), 1),
    "B3/p5 F_p chi": (lambda: _literal_character("B3", 5, "1,0,2"), 5),
    "A2/p7 AS(c)": (lambda: _literal_character("A2", 7, "AS(3),2"), 7),
    "A2/p5 F_p^2 chi": (_fp2_character, 10),
}


@pytest.mark.parametrize("cell", sorted(MODULAR_CELLS))
def test_modular_kernel_matches_transport(cell):
    make_chi, e = MODULAR_CELLS[cell]
    chi = make_chi()
    blocks = mod_blocks(chi)
    assert blocks[0].lam.field.e == e
    got = [(b.lam, b.orbit_size) for b in blocks]
    assert got == modular_orbits_by_transport(chi)
    assert sum(size for _, size in got) == chi.p**chi.rs.rank


QUANTUM_CELLS = {
    "G2/l7 chi_s=(3/4,4/5)": ("G2", 7, (Fraction(3, 4), Fraction(4, 5))),
    "B3/l5 chi_s=1": ("B3", 5, (0, 0, 0)),
    "B3/l5 chi_s=(1/2,0,1/3)": ("B3", 5, (Fraction(1, 2), 0, Fraction(1, 3))),
}


@pytest.mark.parametrize("cell", sorted(QUANTUM_CELLS))
def test_quantum_kernel_matches_transport(cell):
    t, ell, exps = QUANTUM_CELLS[cell]
    rs = build_root_system(t)
    chi = QChar(rs, ell, chi_s=TorusElement(exps))
    got = [(b.rep, b.orbit_size) for b in q_blocks(chi)]
    assert got == quantum_orbits_by_transport(chi)
    assert sum(size for _, size in got) == ell**rs.rank


@pytest.mark.parametrize("t", ["A3", "B3", "C3", "G2", "F4", "A1xB2"])
def test_integer_maps_are_the_simple_reflections(t):
    # on points off Lambda_chi and off the fiber too: every coordinate varies
    rs = build_root_system(t)
    r = rs.rank
    F49 = make_field(7, 2)
    value_maps = integer_actions(rs, "values", 7, 2)
    N = 60
    torus_maps = integer_actions(rs, "torus", N)
    for k in range(12):
        coeffs = [((3 * k + i) % 7, (k * i + 1) % 7) for i in range(r)]
        values = tuple(F49.elem(c) for c in coeffs)
        code = tuple(c for pair in coeffs for c in pair)
        nums = tuple((7 * k + 11 * i) % N for i in range(r))
        for j in range(r):
            s = simple_reflection(rs, j)
            moved = s.act_values(values)
            assert value_maps[j](code) == tuple(
                c for v in moved for c in (v.coeffs + (0, 0))[:2])
            qs = s.act_torus_exponents(TorusElement(
                tuple(Fraction(n, N) for n in nums)).exps)
            assert torus_maps[j](nums) == tuple(int(q.q * N) for q in qs)
