"""The integer-tuple orbit kernel of mod_blocks / q_blocks against the
FFElem / UnityExp transport it replaced, and the walk of Stab_W(chi) against
the walk of whole W-orbits: the same representatives in the same order and the
same orbit sizes.  The stabiliser walk stays inside the point set (the
modular one runs on the constant terms of Lambda_chi, which its generators
carry along), and its guard refuses generators that fall short of
Stab_W(chi).  Each block's stabiliser data, read on Phi' and memoised per
query, equal the oracles' on the block's own point; the guards refuse a
point set off Phi'."""

import collections
import random
from fractions import Fraction

import pytest

from lieram import modular, quantum
from lieram.cli import parse_field_values
from lieram.errors import InvariantViolation
from lieram.modular import ModWeight, PChar, enumerate_lambda_chi, mod_blocks, rho_weight
from lieram.quantum import QChar, TorusElement, q_blocks
from lieram.rootdata import build_root_system, subsystem_classify
from lieram.scalars import make_field
from lieram.selftest import (
    block_stabiliser_mismatches,
    ell_fiber,
    modular_cells,
    quantum_cells,
    root_reflection,
)
from lieram.weyl import (
    WeylElement,
    integer_actions,
    orbit_partition,
    simple_reflection,
    stabilizer_reflections,
)
from test_golden_manifest import RANK34_MODULAR, RANK34_QUANTUM


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
    # the simple roots against simple_reflection, and every positive root
    # against the reflection matrix of selftest.root_reflection; on points off
    # Lambda_chi and off the fiber too: every coordinate varies
    rs = build_root_system(t)
    r = rs.rank
    F49 = make_field(7, 2)
    N = 60
    pairs = [(tuple(int(k == j) for k in range(r)), simple_reflection(rs, j))
             for j in range(r)]
    pairs += [(b, root_reflection(rs, b)) for b in rs.pos_roots]
    roots = [b for b, _oracle in pairs]
    value_maps = integer_actions(rs, roots, "values", 7, 2)
    torus_maps = integer_actions(rs, roots, "torus", N)
    for k in range(12):
        coeffs = [((3 * k + i) % 7, (k * i + 1) % 7) for i in range(r)]
        values = tuple(F49.elem(c) for c in coeffs)
        code = tuple(c for pair in coeffs for c in pair)
        nums = tuple((7 * k + 11 * i) % N for i in range(r))
        for (_g, s), value_map, torus_map in zip(pairs, value_maps, torus_maps):
            moved = s.act_values(values)
            assert value_map(code) == tuple(
                c for v in moved for c in (v.coeffs + (0, 0))[:2])
            qs = s.act_torus_exponents(TorusElement(
                tuple(Fraction(n, N) for n in nums)).exps)
            assert torus_map(nums) == tuple(int(q.q * N) for q in qs)


# -- the stabiliser walk against the full-W walk ------------------------------

def _full_w(rs, *_args):
    # the oracle's generators: the simple roots, whose reflections generate
    # all of W; its orbits leave the point set, and orbit_partition keeps
    # only the points inside it
    return [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]


def _blocks(chi):
    return mod_blocks(chi) if isinstance(chi, PChar) else q_blocks(chi)


def _full_width_codes(chi):
    """The points of Lambda_chi as codes over all e coefficient slots of the
    ambient field F_{p^e}, and that field."""
    weights, ambient = enumerate_lambda_chi(chi)
    return [modular._code(lam.values, ambient.e) for lam in weights], ambient


def modular_orbits_full_width(chi):
    """(lambda, eta, orbit size) per block: the full-width codes of
    Lambda_chi + rho = Lambda_chi walked under all of W (orbit_partition
    keeps the points inside the set), keyed by lambda = eta - rho."""
    rs = chi.rs
    codes, ambient = _full_width_codes(chi)
    p, e = ambient.p, ambient.e

    def key(code):
        lam = list(code)
        lam[::e] = [(c - 1) % p for c in code[::e]]
        return tuple(lam)

    classes = orbit_partition(codes, integer_actions(rs, _full_w(rs), "values", p, e), key)
    return [(modular._weight(ambient, key(cls[0])), modular._weight(ambient, cls[0]),
             len(cls)) for cls in classes]


def _walked_and_oracle(chi, monkeypatch):
    if isinstance(chi, PChar):
        # on an extension field all of W does not preserve Lambda_chi, so a
        # width-1 walk under it is no oracle: this one walks the full width
        got = [(b.lam, b.eta, b.orbit_size) for b in mod_blocks(chi)]
        return got, modular_orbits_full_width(chi)
    got = [b.to_dict() for b in q_blocks(chi)]
    with monkeypatch.context() as m:
        m.setattr(quantum, "stabilizer_reflections", _full_w)
        want = [b.to_dict() for b in q_blocks(chi)]
    return got, want


def _matrix_cells():
    for t, p, name, chi in modular_cells():
        yield f"modular {t}/p{p} {name}", chi
    for t, ell, name, chi in quantum_cells():
        yield f"quantum {t}/l{ell} {name}", chi


def _manifest_cells():
    for t, p, chi_s in RANK34_MODULAR:
        rs = build_root_system(t)
        yield f"modular {t}/p{p} regnil", PChar(rs, p, support=tuple(range(rs.rank)))
        yield f"modular {t}/p{p} {chi_s}", _literal_character(t, p, chi_s)
    for t in RANK34_QUANTUM:
        rs = build_root_system(t)
        yield f"quantum {t}/l5 regunip", QChar(rs, 5, support=tuple(range(rs.rank)))


def _non_standard(levi):
    return any(sum(b) != 1 for b in levi.basis)


def _draw_non_standard(draw):
    for _attempt in range(500):
        chi = draw()
        if _non_standard(chi.levi):
            return chi
    raise AssertionError("no draw has a non-standard Levi")


def _seeded_cells(seed=7):
    """Semisimple characters drawn with a fixed seed, each with a
    non-standard Levi (a basis root that is not simple)."""
    rng = random.Random(seed)
    yield "quantum B2/l7 (0,1/3)", QChar(build_root_system("B2"), 7,
                                          chi_s=TorusElement((0, Fraction(1, 3))))
    for t, p, ell in (("G2", 7, 5), ("B3", 5, 7), ("C3", 5, 5)):
        rs = build_root_system(t)
        F = make_field(p, 1)
        chi = _draw_non_standard(lambda: PChar(
            rs, p, values=tuple(F.from_int(rng.randrange(p)) for _ in range(rs.rank))))
        yield f"modular {t}/p{p} {chi.values}", chi
        chi = _draw_non_standard(lambda: QChar(rs, ell, chi_s=TorusElement(
            tuple(Fraction(rng.randrange(12), 12) for _ in range(rs.rank)))))
        yield f"quantum {t}/l{ell} {chi.chi_s}", chi


CELL_SETS = {"matrix": _matrix_cells, "manifest": _manifest_cells,
             "seeded": _seeded_cells}


@pytest.mark.parametrize("cells", sorted(CELL_SETS))
def test_stabiliser_walk_matches_the_full_w_walk(cells, monkeypatch):
    # the same representatives in the same order and the same orbit sizes;
    # on the quantum side every other field of each block too (the modular
    # stabiliser fields: test_block_stabilisers_match_the_oracles)
    bad = []
    for label, chi in CELL_SETS[cells]():
        got, want = _walked_and_oracle(chi, monkeypatch)
        sizes = [b[2] if isinstance(chi, PChar) else b["orbit_size"] for b in got]
        if got != want:
            bad.append(label)
        elif sum(sizes) != (chi.p if isinstance(chi, PChar) else chi.ell) ** chi.rs.rank:
            bad.append(label + " (orbit sizes)")
    assert bad == []


def test_block_walks_build_no_weyl_elements(monkeypatch):
    # the walks act by rank-one reflections read off the root data: no Weyl
    # matrix is built for a generator, for the guard or per block
    built = collections.Counter()
    init = WeylElement.__init__

    def counted(self, *args):
        built["elements"] += 1
        init(self, *args)

    cells = [*_matrix_cells(), *_seeded_cells()]
    with monkeypatch.context() as m:
        m.setattr(WeylElement, "__init__", counted)
        for label, chi in cells:
            assert _blocks(chi), label
    assert built["elements"] == 0
    # the count has teeth: the oracle's transport builds them
    with monkeypatch.context() as m:
        m.setattr(WeylElement, "__init__", counted)
        modular_orbits_by_transport(MODULAR_CELLS["A2/p5 nilpotent"][0]())
    assert built["elements"] > 0


def _watch_walks(monkeypatch):
    """Wrap the generator maps of every block walk; returns (seen, widths):
    counts of the images computed and of those outside the point set, and
    the lengths of the points and images the walks see."""
    seen, widths = collections.Counter(), collections.Counter()

    def checked(points, gen_actions, key):
        pointset = set(points)
        widths.update(map(len, pointset))

        def watched(act):
            def step(x):
                y = act(x)
                seen["images"] += 1
                seen["outside"] += y not in pointset
                widths[len(y)] += 1
                return y
            return step
        return orbit_partition(points, [watched(a) for a in gen_actions], key)

    monkeypatch.setattr(modular, "orbit_partition", checked)
    monkeypatch.setattr(quantum, "orbit_partition", checked)
    return seen, widths


def _walk_generators(chi, monkeypatch):
    """The generators mod_blocks walks Lambda_chi with."""
    gens = []

    def recording(*args):
        gens[:] = stabilizer_reflections(*args)
        return gens
    with monkeypatch.context() as m:
        m.setattr(modular, "stabilizer_reflections", recording)
        mod_blocks(chi)
    return gens


def _leaving_lambda_chi(chi, gens):
    """Apply the reflection of each root in `gens` to the full-width code of
    every point of Lambda_chi; counts the images, those outside Lambda_chi,
    and those whose constant slots differ from the width-1 image of the
    point's constant slots."""
    codes, ambient = _full_width_codes(chi)
    p, e = ambient.p, ambient.e
    pointset = set(codes)
    seen = collections.Counter()
    for wide, narrow in zip(integer_actions(chi.rs, gens, "values", p, e),
                            integer_actions(chi.rs, gens, "values", p)):
        for code in codes:
            y = wide(code)
            seen["images"] += 1
            seen["outside"] += y not in pointset
            seen["off_projection"] += y[::e] != narrow(code[::e])
    return seen


def test_block_walks_stay_inside_the_point_set(monkeypatch):
    # the modular walk runs on constant terms alone: its generators map
    # Lambda_chi, at full width, into itself, and act on the constant slots
    # as the width-1 walk does
    images = 0
    for label, chi in [*_matrix_cells(), *_seeded_cells(), *_extension_cells()]:
        if isinstance(chi, PChar):
            seen = _leaving_lambda_chi(chi, _walk_generators(chi, monkeypatch))
            images += seen["images"]
            assert (seen["outside"], seen["off_projection"]) == (0, 0), label
    assert images > 0
    # the check has teeth: the full-W reflections leave Lambda_chi
    chi = _literal_character("B3", 5, "1,0,2")
    seen = _leaving_lambda_chi(chi, _full_w(chi.rs))
    assert seen["outside"] > 0 and seen["off_projection"] == 0
    # the quantum walk stays inside the fiber
    seen, _widths = _watch_walks(monkeypatch)
    for _label, chi in [*_matrix_cells(), *_seeded_cells()]:
        if isinstance(chi, QChar):
            q_blocks(chi)
    assert seen["images"] > 0
    assert seen["outside"] == 0


def test_modular_walks_run_on_constant_terms(monkeypatch):
    # on F_{p^e}, e > 1, every point the walk sees is an r-tuple
    _seen, widths = _watch_walks(monkeypatch)
    for label in ("A2/p5 F_p^2 chi", "A2/p7 AS(c)", "B3/p5 F_p chi"):
        chi = MODULAR_CELLS[label][0]()
        widths.clear()
        assert mod_blocks(chi)[0].lam.field.e > 1, label
        assert set(widths) == {chi.rs.rank}, label


def test_guard_refuses_a_proper_sub_levi(monkeypatch):
    # chi = (0, 0, 1) on A3 has Levi A2; the reflection of one of its basis
    # roots fixes chi but generates too small a group
    a3 = build_root_system("A3")
    F7 = make_field(7, 1)
    mod_chi = PChar(a3, 7, values=(F7.zero(), F7.zero(), F7.one()))
    q_chi = QChar(build_root_system("A2"), 5)
    for chi in (mod_chi, q_chi):
        assert chi.levi.type_str == "A2"
        beta = chi.levi.basis[0]
        sub = subsystem_classify(chi.rs, frozenset({beta, tuple(-c for c in beta)}))
        monkeypatch.setattr(chi, "levi", sub)
        with pytest.raises(InvariantViolation, match="Stab_W"):
            _blocks(chi)


# -- per-block stabiliser data, read on Phi', against the oracles --------------

def _extension_cells():
    # e > 1, where reading only the constant slot of each pairing matters
    for label in ("A2/p7 AS(c)", "A2/p5 F_p^2 chi", "B3/p5 F_p chi"):
        yield label, MODULAR_CELLS[label][0]()


STABILISER_CELL_SETS = {**CELL_SETS, "extension": _extension_cells}


@pytest.mark.parametrize("cells", sorted(STABILISER_CELL_SETS))
def test_block_stabilisers_match_the_oracles(cells):
    # point and coset/fiber types, dim, Poincare series, verdict and witness of
    # every block against eta_subsystems / finite_type_verdict /
    # poincare_series / w_t on the block's own point
    bad = {label: wrong for label, chi in STABILISER_CELL_SETS[cells]()
           if (wrong := block_stabiliser_mismatches(chi))}
    assert bad == {}


def test_a_corrupted_lambda_chi_base_is_refused(monkeypatch):
    # chi = (1, 0, 2) on B3 has alpha_2 in Phi'; an Artin-Schreier root of 1
    # in place of the solution 0 of lambda(h_2)^p - lambda(h_2) = 0 moves
    # eta(h_alpha_2) out of F_p, so the F_p set is no longer Phi'
    chi = _literal_character("B3", 5, "1,0,2")
    assert (0, 1, 0) in chi.levi.roots
    solve = modular.artin_schreier_solve

    def corrupted(rhs, bound):
        return solve(rhs.field.one() if rhs.is_zero() else rhs, bound)

    monkeypatch.setattr(modular, "artin_schreier_solve", corrupted)
    with pytest.raises(InvariantViolation, match="F_p are not Phi'"):
        mod_blocks(chi)


def test_a_fiber_point_outside_the_levi_is_refused(monkeypatch):
    # chi_s = (1/3, 1/3) on A2 is regular (Phi' empty); walking the fiber of
    # chi_s = 1 instead puts t = 1, on which every root vanishes, first
    rs = build_root_system("A2")
    chi = QChar(rs, 5, chi_s=TorusElement((Fraction(1, 3), Fraction(1, 3))))
    assert chi.levi.roots == frozenset()
    chi.chi_s = TorusElement((0, 0))
    # past the Stab_W guard, which would see chi_s^2 = 1 fixed by all of W
    monkeypatch.setattr(quantum, "stabilizer_reflections", lambda *_args: [])
    with pytest.raises(InvariantViolation, match="outside Phi'"):
        q_blocks(chi)


def test_reports_do_not_share_a_witness():
    # A2/p5 nilpotent: several blocks have point type A1 in A2, so they share
    # one memoised verdict; each report must still own its witness
    blocks = mod_blocks(PChar(build_root_system("A2"), 5))
    witnesses = [b.finite_type_witness for b in blocks]
    nested = [w["differing_component"] for w in witnesses if w["differing_component"]]
    assert len(nested) >= 2 and nested[0] == nested[1]
    assert len({id(w) for w in witnesses}) == len(witnesses)
    assert len({id(d) for d in nested}) == len(nested)
    nested[0]["small"] = "changed"
    assert nested[1]["small"] != "changed"
