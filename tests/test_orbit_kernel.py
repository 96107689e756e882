"""The integer-tuple orbit kernel of mod_blocks / q_blocks against the
FFElem / UnityExp transport it replaced, and the walk of Stab_W(chi) against
the walk of whole W-orbits: the same representatives in the same order and the
same orbit sizes.  The stabiliser walk stays inside the point set (the
modular one runs on the constant terms of Lambda_chi, which its generators
carry along), and the selftest oracle of its premise, |W.chi| |W(Phi')| =
|W|, refuses generators that fall short of Stab_W(chi).  Each block's
stabiliser data, read on Phi' and memoised per query, equal the oracles' on
the block's own point, and are computed once per distinct point stabiliser;
the guards refuse a point set off Phi'.  A test that patches a function
the walk calls empties the memos of walks and block lists first (the
patched_walk fixture) and checks that the patched function ran, so it never
passes on a memoised walk or list."""

import collections
import contextlib
import functools
import math
import random
from fractions import Fraction

import pytest

from lieram import modular, rootdata, weyl
from lieram.cli import parse_field_values
from lieram.errors import InvariantViolation
from lieram.modular import PChar, mod_blocks
from lieram.quantum import QChar, TorusElement, q_blocks
from lieram.rootdata import build_root_system, subsystem_classify
from lieram.scalars import make_field
from lieram.selftest import (
    block_stabiliser_mismatches,
    ell_fiber,
    enumerate_lambda_chi,
    modular_cells,
    orbit_partition_by_key,
    quantum_cells,
    root_reflection,
    walked_orbit_times_levi_is_w,
)
from lieram.weyl import WeylElement, integer_actions, simple_reflection
from test_golden_manifest import RANK34_MODULAR, RANK34_QUANTUM


def _at_stride(maps, e):
    """The width-1 maps `maps` on full-width codes of values in F_{p^e}
    (value i's coefficient t at i e + t): each acts on every coefficient
    slot, the coordinates t, t + e, ..., alone."""
    def wide(act):
        def step(code):
            return tuple(c for cs in zip(*(act(code[t::e]) for t in range(e))) for c in cs)
        return step
    return [wide(act) for act in maps]


def _full_width_code(values, e):
    # values in F_{p^e} as one flat tuple, each value's coefficients padded to e
    pad = (0,) * e
    return tuple(c for v in values for c in (v.coeffs + pad)[:e])


def modular_orbits_by_transport(chi):
    """(lambda, orbit size) per block, walking FFElem values with act_values."""
    rs = chi.rs
    weights, ambient = enumerate_lambda_chi(chi)
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    classes = orbit_partition_by_key(
        [tuple(v + 1 for v in lam) for lam in weights],  # eta = lambda + rho
        [lambda t, w=w: w.act_values(t) for w in gens],
        key=lambda t: tuple((v - ambient.one()).coeffs for v in t))
    return [(tuple(v - 1 for v in cls[0]), len(cls)) for cls in classes]


def quantum_orbits_by_transport(chi):
    """(representative, orbit size) per block, walking UnityExp exponents with
    act_torus_exponents."""
    rs = chi.rs
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    classes = orbit_partition_by_key(
        ell_fiber(rs, chi.chi_s, chi.ell),
        [lambda t, w=w: TorusElement(e.q for e in w.act_torus_exponents(t.exps))
         for w in gens],
        key=lambda t: tuple(_reduced(e.q) for e in t.exps))
    return [(cls[0], len(cls)) for cls in classes]


def _reduced(q):
    # an exponent in [0, 1) as its reduced (numerator, denominator)
    return q.numerator, q.denominator


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
    "A2/p7 AS(1),0": (lambda: _literal_character("A2", 7, "AS(1),0"), 7),
    "A2/p5 F_p^2 chi": (_fp2_character, 10),
}


@pytest.mark.parametrize("cell", sorted(MODULAR_CELLS))
def test_modular_kernel_matches_transport(cell):
    make_chi, e = MODULAR_CELLS[cell]
    chi = make_chi()
    blocks = mod_blocks(chi)
    assert blocks[0].lam[0].field.e == e
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
    value_maps = _at_stride(integer_actions(rs, roots, "values", 7), 2)
    torus_maps = integer_actions(rs, roots, "torus", N)
    for k in range(12):
        coeffs = [((3 * k + i) % 7, (k * i + 1) % 7) for i in range(r)]
        values = tuple(F49.elem(c) for c in coeffs)
        code = tuple(c for pair in coeffs for c in pair)
        nums = tuple((7 * k + 11 * i) % N for i in range(r))
        for (_g, s), value_map, torus_map in zip(pairs, value_maps, torus_maps):
            assert value_map(code) == _full_width_code(s.act_values(values), 2)
            qs = s.act_torus_exponents(TorusElement(
                tuple(Fraction(n, N) for n in nums)).exps)
            assert torus_map(nums) == tuple(int(q.q * N) for q in qs)


@pytest.fixture
def patched_walk(monkeypatch):
    """A context manager for block walks under patched weyl functions: it
    yields a monkeypatch context, and empties the memo of walks (and so of
    the block lists kept on them) on entry, so the next query walks with
    the patches rather than reuse a walk or a list, and on exit, so no walk
    or list made under the patches outlives them."""
    @contextlib.contextmanager
    def patched():
        _clear_memos()
        try:
            with monkeypatch.context() as m:
                yield m
        finally:
            _clear_memos()
    return patched


def _clear_memos():
    weyl._walks.clear()


# -- the stabiliser walk against the full-W walk ------------------------------

def _full_w(rs, *_args):
    # the oracle's generators: the simple roots, whose reflections generate
    # all of W; its orbits leave the point set, and orbit_partition_by_key
    # keeps only the points inside it
    return [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]


def _blocks(chi):
    return mod_blocks(chi) if isinstance(chi, PChar) else q_blocks(chi)


def _full_width_codes(chi):
    """The points of Lambda_chi, as weights and as codes over all e
    coefficient slots of the ambient field F_{p^e}, and that field."""
    weights, ambient = enumerate_lambda_chi(chi)
    return weights, [_full_width_code(lam, ambient.e) for lam in weights], ambient


def modular_orbits_full_width(chi):
    """(lambda, eta, orbit size) per block: the full-width codes of
    Lambda_chi + rho = Lambda_chi walked under all of W (orbit_partition_by_key
    keeps the points inside the set), keyed by lambda = eta - rho."""
    rs = chi.rs
    _weights, codes, ambient = _full_width_codes(chi)
    p, e = ambient.p, ambient.e

    def key(code):
        lam = list(code)
        lam[::e] = [(c - 1) % p for c in code[::e]]
        return tuple(lam)

    def weight(code):
        return tuple(ambient.elem(code[i:i + e]) for i in range(0, len(code), e))

    classes = orbit_partition_by_key(
        codes, _at_stride(integer_actions(rs, _full_w(rs), "values", p), e), key)
    return [(weight(key(cls[0])), weight(cls[0]), len(cls)) for cls in classes]


def _walked_and_oracle(chi, patched_walk):
    if isinstance(chi, PChar):
        # on an extension field all of W does not preserve Lambda_chi, so a
        # width-1 walk under it is no oracle: this one walks the full width
        got = [(b.lam, b.eta, b.orbit_size) for b in mod_blocks(chi)]
        return got, modular_orbits_full_width(chi)
    blocks = q_blocks(chi)
    # the fiber codes over N = ell D, D the common denominator of chi_s
    N = chi.ell * math.lcm(*(e.q.denominator for e in chi.chi_s.exps))

    def key(code):
        return tuple(_reduced(Fraction(n, N)) for n in code)
    if not chi.levi.basis:
        # no walk runs to patch: whole W-orbits of the fiber codes, cut down
        # to the fiber, are single points, met in the answer's order
        codes = [tuple(int(q.q * N) for q in t.exps)
                 for t in ell_fiber(chi.rs, chi.chi_s, chi.ell)]
        classes = orbit_partition_by_key(
            codes, integer_actions(chi.rs, _full_w(chi.rs), "torus", N), key)
        assert {len(cls) for cls in classes} == {1}, chi
        return ([(b.numerators, b.orbit_size) for b in blocks],
                [(cls[0], len(cls)) for cls in classes])
    got = [b.to_dict() for b in blocks]
    walks = []

    def full_w_orbits(points, gen_actions):
        # whole W-orbits cut down to the fiber, sorted by reduced exponents
        walks.append(gen_actions)
        classes = orbit_partition_by_key(points, gen_actions, key)
        return [(cls[0], len(cls)) for cls in classes]
    with patched_walk() as m:
        # every reflection map the walk builds acts by all of W instead, and
        # the oracle partition walks with them
        m.setattr(weyl, "integer_actions", lambda rs, _roots, *args: integer_actions(
            rs, _full_w(rs), *args))
        m.setattr(weyl, "orbit_partition", full_w_orbits)
        want = [b.to_dict() for b in q_blocks(chi)]
    assert len(walks) == 1, chi
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
def test_stabiliser_walk_matches_the_full_w_walk(cells, patched_walk):
    # the same representatives in the same order and the same orbit sizes;
    # on the quantum side with a walk every other field of each block too
    # (the stabiliser fields of the others: test_block_stabilisers_match_the_oracles)
    bad = []
    for label, chi in CELL_SETS[cells]():
        got, want = _walked_and_oracle(chi, patched_walk)
        sizes = [b["orbit_size"] if isinstance(b, dict) else b[-1] for b in got]
        if got != want:
            bad.append(label)
        elif sum(sizes) != (chi.p if isinstance(chi, PChar) else chi.ell) ** chi.rs.rank:
            bad.append(label + " (orbit sizes)")
    assert bad == []


def test_block_walks_build_no_weyl_elements(monkeypatch, patched_walk):
    # the walks act by rank-one reflections read off the root data: no Weyl
    # matrix is built for a generator or per block
    built = collections.Counter()
    init = WeylElement.__init__

    def counted(self, *args):
        built["elements"] += 1
        init(self, *args)

    cells = [*_matrix_cells(), *_seeded_cells()]
    with patched_walk() as m:
        m.setattr(WeylElement, "__init__", counted)
        for label, chi in cells:
            assert _blocks(chi), label
    assert built["elements"] == 0
    # the count has teeth: the oracle's transport builds them
    with monkeypatch.context() as m:
        m.setattr(WeylElement, "__init__", counted)
        modular_orbits_by_transport(MODULAR_CELLS["A2/p5 nilpotent"][0]())
    assert built["elements"] > 0


def _watch_walks(m):
    """Wrap the generator maps of every block walk, through the monkeypatch
    context m; returns (seen, widths): counts of the walks, of the images
    computed and of those outside the point set, and the lengths of the
    points and images the walks see."""
    seen, widths = collections.Counter(), collections.Counter()

    def checked(points, gen_actions):
        seen["walks"] += 1
        points = list(points)
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
        # the oracle partition counts a step out of the set instead of
        # raising; keyed by the walk's own order, it gives the same orbits
        order = {x: i for i, x in enumerate(points)}
        classes = orbit_partition_by_key(
            points, [watched(a) for a in gen_actions], order.__getitem__)
        return [(cls[0], len(cls)) for cls in classes]

    m.setattr(weyl, "orbit_partition", checked)
    return seen, widths


def _walk_generators(chi, patched_walk):
    """The generators mod_blocks walks Lambda_chi with: the roots of the
    reflection maps weyl.block_list walks with."""
    gens = []

    def recording(rs, roots, *args):
        gens.append(roots)
        return integer_actions(rs, roots, *args)
    with patched_walk() as m:
        m.setattr(weyl, "integer_actions", recording)
        mod_blocks(chi)
    # Phi' empty: no walk, so no generator
    assert len(gens) == bool(chi.levi.basis), chi
    return gens[0] if gens else ()


def _leaving_lambda_chi(chi, gens):
    """Apply the reflection of each root in `gens`, at stride e, to the
    full-width code of every point of Lambda_chi; counts the images, those
    outside Lambda_chi, and those that differ from the point's values moved
    by the reflection matrix (selftest.root_reflection)."""
    weights, codes, ambient = _full_width_codes(chi)
    e = ambient.e
    pointset = set(codes)
    seen = collections.Counter()
    wides = _at_stride(integer_actions(chi.rs, gens, "values", ambient.p), e)
    for beta, wide in zip(gens, wides):
        s = root_reflection(chi.rs, beta)
        for lam, code in zip(weights, codes):
            y = wide(code)
            seen["images"] += 1
            seen["outside"] += y not in pointset
            seen["off_matrix"] += y != _full_width_code(s.act_values(lam), e)
    return seen


def test_block_walks_stay_inside_the_point_set(patched_walk):
    # the modular walk runs on constant terms alone: its generators, acting
    # on every coefficient slot as they act on the constant terms, map
    # Lambda_chi, at full width, into itself, as the reflection matrices do
    images = 0
    for label, chi in [*_matrix_cells(), *_seeded_cells(), *_extension_cells()]:
        if isinstance(chi, PChar):
            seen = _leaving_lambda_chi(chi, _walk_generators(chi, patched_walk))
            images += seen["images"]
            assert (seen["outside"], seen["off_matrix"]) == (0, 0), label
    assert images > 0
    # the check has teeth: the full-W reflections leave Lambda_chi
    chi = _literal_character("B3", 5, "1,0,2")
    seen = _leaving_lambda_chi(chi, _full_w(chi.rs))
    assert seen["outside"] > 0 and seen["off_matrix"] == 0
    # the quantum walk stays inside the fiber
    images = 0
    for label, chi in [*_matrix_cells(), *_seeded_cells()]:
        if isinstance(chi, QChar):
            with patched_walk() as m:
                seen, _widths = _watch_walks(m)
                q_blocks(chi)
            assert (seen["walks"], seen["outside"]) == (bool(chi.levi.basis), 0), label
            images += seen["images"]
    assert images > 0


def test_modular_walks_run_on_constant_terms(patched_walk):
    # on F_{p^e}, e > 1, every point the walk sees is an r-tuple; a regular
    # chi (Phi' empty) walks nothing
    walked = 0
    for label in ("A2/p5 F_p^2 chi", "A2/p7 AS(c)", "A2/p7 AS(1),0", "B3/p5 F_p chi"):
        chi = MODULAR_CELLS[label][0]()
        with patched_walk() as m:
            seen, widths = _watch_walks(m)
            assert mod_blocks(chi)[0].lam[0].field.e > 1, label
        walked += seen["walks"]
        assert seen["walks"] == bool(chi.levi.basis), label
        assert set(widths) == ({chi.rs.rank} if chi.levi.basis else set()), label
    assert walked == 2


def test_guard_refuses_a_proper_sub_levi(monkeypatch):
    # chi = (0, 0, 1) on A3 has Levi A2; the reflection of one of its basis
    # roots fixes chi but generates too small a group, and the selftest
    # oracle of the walk's premise, |W.chi| |W(Phi')| = |W|, says so
    a3 = build_root_system("A3")
    F7 = make_field(7, 1)
    mod_chi = PChar(a3, 7, values=(F7.zero(), F7.zero(), F7.one()))
    q_chi = QChar(build_root_system("A2"), 5)
    for chi in (mod_chi, q_chi):
        assert chi.levi.type_str == "A2"
        assert walked_orbit_times_levi_is_w(chi)
        beta = chi.levi.basis[0]
        sub = subsystem_classify(chi.rs, frozenset({beta, tuple(-c for c in beta)}))
        monkeypatch.setattr(chi, "levi", sub)
        assert not walked_orbit_times_levi_is_w(chi)


def test_the_e7_fiber_is_within_the_default_bound(patched_walk):
    # the bound counts the 7^7 = 823 543 fiber points alone, not the
    # 1 451 520 of the W-orbit of chi_s^2 as well; the walk is stopped where
    # it starts (the whole answer takes seconds)
    chi = QChar(build_root_system("E7"), 7, chi_s=TorusElement(
        tuple(Fraction(1, d) for d in (2, 3, 5, 11, 13, 17, 19))))
    assert chi.levi.type_str == "A1"

    class Walked(Exception):
        pass

    def stop(_points, _gens):
        raise Walked
    with patched_walk() as m:
        m.setattr(weyl, "orbit_partition", stop)
        with pytest.raises(Walked):
            q_blocks(chi)


def test_a_walk_that_leaves_the_fiber_is_refused(patched_walk):
    # all of W moves points of this fiber out of it; the walk raises rather
    # than drop them (the modular walk runs on all of F_p^r, which it
    # cannot leave)
    chi = QChar(build_root_system("B3"), 7, chi_s=TorusElement(
        (Fraction(1, 2), 0, Fraction(1, 3))))
    assert q_blocks(chi)
    built = []

    def full_w(rs, _roots, *args):
        built.append(args)
        return integer_actions(rs, _full_w(rs), *args)
    with patched_walk() as m:
        m.setattr(weyl, "integer_actions", full_w)
        with pytest.raises(InvariantViolation, match="a walk left it"):
            q_blocks(chi)
    assert len(built) == 1


# -- per-block stabiliser data, read on Phi', against the oracles --------------

def _extension_cells():
    # e > 1, where reading only the constant slot of each pairing matters
    for label in ("A2/p7 AS(c)", "A2/p5 F_p^2 chi", "B3/p5 F_p chi"):
        yield label, MODULAR_CELLS[label][0]()


STABILISER_CELL_SETS = {**CELL_SETS, "extension": _extension_cells}


@pytest.mark.parametrize("cells", sorted(STABILISER_CELL_SETS))
def test_block_stabilisers_match_the_oracles(cells):
    # point and coset/fiber types, dim, Poincare series, verdict and witness of
    # every block against eta_subsystems / the closure oracle of the
    # finite-type verdict / poincare_series / w_t on the block's own point
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
    # the process keeps each value's solution: a fresh table asks the
    # corrupted solver, and what it answers goes with the test
    monkeypatch.setattr(modular, "_solved", functools.lru_cache(modular._solved.__wrapped__))
    # and an empty memo of walks, so no list kept on chi's walk answers
    monkeypatch.setattr(weyl._walks, "entries", {})
    monkeypatch.setattr(weyl._walks, "total", 0)
    with pytest.raises(InvariantViolation, match="F_p are not Phi'"):
        mod_blocks(chi)


def test_a_fiber_point_outside_the_levi_is_refused():
    # chi_s = (1/3, 1/3) on A2 is regular (Phi' empty); walking the fiber of
    # chi_s = 1 instead puts t = 1, on which every root vanishes, first
    rs = build_root_system("A2")
    chi = QChar(rs, 5, chi_s=TorusElement((Fraction(1, 3), Fraction(1, 3))))
    assert chi.levi.roots == frozenset()
    chi.chi_s = TorusElement((0, 0))
    _clear_memos()  # no list kept on the walk of chi_s = 1 answers in its place
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


ONCE_PER_STABILISER_CELLS = {
    "modular A2/p5 nilpotent": MODULAR_CELLS["A2/p5 nilpotent"][0],
    "modular B3/p5 1,0,2": MODULAR_CELLS["B3/p5 F_p chi"][0],
    "quantum B3/l7 1/2,0,1/3": lambda: QChar(build_root_system("B3"), 7, chi_s=TorusElement(
        (Fraction(1, 2), 0, Fraction(1, 3)))),
}


@pytest.mark.parametrize("cell", sorted(ONCE_PER_STABILISER_CELLS))
def test_stabiliser_work_runs_once_per_point_stabiliser(cell, patched_walk):
    # one classification, one finite-type verdict and (nilpotent chi) one
    # Poincare series per distinct point stabiliser of the query, not per
    # block; a repeated query reuses the walk and the kinds of its blocks,
    # and computes no classification, verdict or series
    chi = ONCE_PER_STABILISER_CELLS[cell]()
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    with patched_walk() as m:
        m.setattr(chi.rs, "_subsystems", {})  # a fresh memo: every stabiliser is new
        m.setattr(rootdata, "_classify", counted("classify", rootdata._classify))
        m.setattr(modular, "_finite_type", counted("finite_type", modular._finite_type))
        m.setattr(modular, "_poincare", counted("poincare", modular._poincare))
        blocks = _blocks(chi)
        distinct = len({id(b.stabilizer) for b in blocks})
        assert 1 < distinct < len(blocks)
        on_modular = isinstance(chi, PChar)
        verdicts = (distinct if on_modular else 0,
                    distinct if on_modular and chi.nilpotent else 0)
        assert (calls["classify"], calls["finite_type"], calls["poincare"]) == (
            distinct, *verdicts)
        calls.clear()
        again = _blocks(chi)
        assert (calls["classify"], calls["finite_type"], calls["poincare"]) == (0, 0, 0)
        assert [b.kind for b in again] == [b.kind for b in blocks]
    assert [b.to_dict() for b in again] == [b.to_dict() for b in blocks]
