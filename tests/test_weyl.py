"""Weyl elements, actions, stabilizers, cosets, orbits, Burnside oracle."""

import operator
import random
from fractions import Fraction

import pytest

from lieram import weyl
from lieram.errors import BoundExceeded, InvariantViolation, NotParabolic
from lieram.quantum import TorusElement, eps_pow, hc_shift, q_unramified
from lieram.rootdata import build_root_system, highest_root
from lieram.scalars import make_field
from lieram.weyl import UnityExp
from lieram.selftest import (
    act_modular,
    burnside_count,
    dot_act_torus,
    is_reduced,
    matrix_inversions,
    min_coset_reps,
    orbit_partition_by_key,
    root_reflection,
    stabilizer_bruteforce,
    subgroup_elements,
    word_element,
)
from lieram.weyl import (
    alcove_descent,
    enumerate_group,
    extended_diagram,
    identity,
    integer_actions,
    inversion_set,
    orbit_partition,
    reflection_stabilizer,
    simple_reflection,
    word_images,
)


def word_on_torus(rs, word, t):
    """w t for the word of w: the letters act on t's numerators, the last
    first, as the simple reflections of integer_actions, the maps the block
    walk applies."""
    letters, x = integer_actions(rs, rs.simple_roots, "torus", t.N), t.nums
    for i in reversed(word):
        x = letters[i](x)
    return TorusElement.of(x, t.N)


def dot_by_word(rs, word, qs, ell, eps=1):
    """The dot action by the production letters: the ordinary word action on
    the Harish-Chandra shifted label, shifted back."""
    u = hc_shift(rs, TorusElement(e.q for e in qs), ell, "forward", eps)
    return hc_shift(rs, word_on_torus(rs, word, u), ell, "back", eps).exps


def test_inversion_sets():
    a2 = build_root_system("A2")
    assert inversion_set(a2, (0,)) == [(1, 0)]
    assert inversion_set(a2, (0, 1, 0)) == [(1, 0), (1, 1), (0, 1)]
    assert is_reduced(a2, (0, 1, 0))
    gam = inversion_set(a2, (0, 0))
    assert gam[1] == (-1, 0)
    assert not is_reduced(a2, (0, 0))


def test_enumerate_counts_and_length_polynomial():
    # Sum over W of t^l(w) equals prod (1 + t + ... + t^{d_i - 1}) per type
    degrees = {"A1": (2,), "A2": (2, 3), "B2": (2, 4), "G2": (2, 6),
               "A3": (2, 3, 4)}
    for t, degs in degrees.items():
        rs = build_root_system(t)
        W = enumerate_group(rs)
        assert len(W) == rs.weyl_order()
        top = sum(d - 1 for d in degs)
        got = [0] * (top + 1)
        for w in W:
            got[w.length] += 1
        # oracle: multiply the cyclotomic-like factors directly
        poly = [1]
        for d in degs:
            nxt = [0] * (len(poly) + d - 1)
            for i, c in enumerate(poly):
                for k in range(d):
                    nxt[i + k] += c
            poly = nxt
        assert got == poly
    assert len(enumerate_group(build_root_system("A1"))) == 2
    g2 = build_root_system("G2")
    assert max(w.length for w in enumerate_group(g2)) == g2.N


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_group(build_root_system("A3"), bound=10)


def test_reduced_words_match_length():
    b2 = build_root_system("B2")
    for w in enumerate_group(b2):
        gam = inversion_set(b2, w.word)
        assert len(gam) == w.length
        assert is_reduced(b2, w.word)


@pytest.mark.parametrize("type_str", ["A2", "B3", "C3", "G2", "F4"])
def test_letters_act_as_the_matrices(type_str):
    # the letter-by-letter inversion set, root images, ordinary torus action
    # and dot action equal the matrix route on every element of W
    rs = build_root_system(type_str)
    r = rs.rank
    unit = [tuple(int(k == j) for k in range(r)) for j in range(r)]
    t = tuple(UnityExp(Fraction(i + 1, 7 + 2 * i)) for i in range(r))
    point = TorusElement(e.q for e in t)
    for w in enumerate_group(rs):
        assert inversion_set(rs, w.word) == matrix_inversions(rs, w.word)
        assert word_images(rs, w.word, unit) == [w.apply_root(a) for a in unit]
        assert word_on_torus(rs, w.word, point) == TorusElement(
            e.q for e in w.act_torus_exponents(t))
        for ell in (5, 7):
            assert dot_by_word(rs, w.word, t, ell) == dot_act_torus(w, t, ell)
        assert dot_by_word(rs, w.word, t, 5, eps=2) == dot_act_torus(w, t, 5, eps=2)


def test_word_matrix_consistency():
    for t in ("G2", "B3"):
        rs = build_root_system(t)
        for w in enumerate_group(rs):
            v = word_element(rs, w.word)
            assert v == w and v.Minv == w.Minv and v.word == w.word
            # the reversed word is the inverse: its matrix is w's Minv
            inv = word_element(rs, w.word[::-1])
            assert w * inv == identity(rs) and inv.M == w.Minv


@pytest.mark.parametrize("type_str", ["A1", "A3", "B3", "C3", "G2", "D4", "F4",
                                      "A1xB2", "E6", "E8"])
def test_alcove_descent_lands_in_the_alcove(type_str):
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    unit = [tuple(int(k == j) for k in range(rs.rank)) for j in range(rs.rank)]
    for _ in range(40):
        # the point x / den, with its Kac coordinates numerators over den
        den = rng.choice((1, 2, 5, 6, 14, 30))
        x = [rng.randrange(-3 * den, 3 * den) for _ in range(rs.rank)]
        word, kac = alcove_descent(rs, x, den)
        w_inv = word_element(rs, word[::-1])
        assert len(kac) == len(rs.components)
        for (_l, _n, nodes), coords in zip(rs.components, kac):
            # s_0 + sum_j a_j s_j = 1 with every coordinate >= 0
            assert min(coords) >= 0
            assert coords[0] + sum(rs.a[j] * s for j, s in zip(nodes, coords[1:])) == den
            # x' = w x + (element of Q^vee): alpha_j(x') = (w^-1 alpha_j)(x) mod Z
            for j, s in zip(nodes, coords[1:]):
                b = w_inv.apply_root(unit[j])
                value = sum(b[k] * sum(rs.cartan[i][k] * x[i] for i in range(rs.rank))
                            for k in range(rs.rank))
                assert (value - s) % den == 0


def _descent_by_full_recompute(rs, x, D):
    # alcove_descent as it read before its O(r) update: every D alpha_j(x)
    # recomputed after each reflection
    r, C, ext = rs.rank, rs.cartan, extended_diagram(rs)
    n, letters = [v % D for v in x], []
    while True:
        v = [sum(C[i][j] * n[i] for i in range(r)) for j in range(r)]
        j = next((j for j in range(r) if v[j] < 0), None)
        if j is not None:
            n[j] -= v[j]
            letters.append(j)
            continue
        over = [(k, c) for c, theta in enumerate(ext.thetas)
                if (k := sum(map(operator.mul, theta, v)) - D) > 0]
        if not over:
            break
        k, c = over[0]
        n = [a - k * h for a, h in zip(n, ext.coroots[c])]
        letters.extend(ext.words[c])
    kac = tuple((D - sum(map(operator.mul, theta, v)),) + tuple(v[j] for j in nodes)
                for theta, (_l, _n, nodes) in zip(ext.thetas, rs.components))
    return tuple(letters[::-1]), kac


# every type of rank at most 8, and one product
RANK_8_AND_BELOW = ([f"A{n}" for n in range(1, 9)]
                    + [f"{letter}{n}" for letter in "BC" for n in range(2, 9)]
                    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2", "G2xC3"])


@pytest.mark.parametrize("type_str", RANK_8_AND_BELOW)
def test_alcove_descent_matches_the_full_recompute(type_str):
    rs = build_root_system(type_str)
    rng = random.Random(type_str)
    for _ in range(60):
        den = rng.choice((1, 2, 5, 6, 14, 30, 77))
        x = [rng.randrange(-3 * den, 3 * den) for _ in range(rs.rank)]
        assert alcove_descent(rs, x, den) == _descent_by_full_recompute(rs, x, den), x


@pytest.mark.parametrize("type_str", ["A1", "B3", "G2", "F4", "A1xB2", "E8"])
def test_the_extended_diagram_is_built_once_per_root_system(type_str, monkeypatch):
    rs = build_root_system(type_str)
    ext = extended_diagram(rs)
    assert extended_diagram(rs) is ext
    assert ext.delta_tilde[:rs.rank] == rs.simple_roots
    for c, (letter, n, nodes) in enumerate(rs.components):
        theta = rs.highest_root(c)
        assert ext.thetas[c] == theta and ext.coroots[c] == rs.coroot(theta)
        assert ext.delta_tilde[rs.rank + c] == tuple(-x for x in theta)
        # the marks, 1 on -theta, times the nodes -theta, alpha_j sum to 0
        marks = (1, *highest_root(letter, n)[0])
        nodes_ext = [ext.delta_tilde[rs.rank + c]] + [rs.simple_roots[j] for j in nodes]
        assert [sum(m * b[k] for m, b in zip(marks, nodes_ext))
                for k in range(rs.rank)] == [0] * rs.rank
        assert word_images(rs, ext.words[c], [theta]) == [tuple(-x for x in theta)]
    # the descents and the highest-weight test read the table: no theta, word
    # or mark is built again
    monkeypatch.setattr(weyl, "highest_root", lambda *_a: pytest.fail("word rebuilt"))
    monkeypatch.setattr(type(rs), "highest_root", lambda *_a: pytest.fail("theta rebuilt"))
    monkeypatch.setattr(type(rs), "a", property(lambda _rs: pytest.fail("marks rebuilt")),
                        raising=False)
    rng = random.Random(type_str)
    for _ in range(10):
        alcove_descent(rs, [rng.randrange(-90, 90) for _ in range(rs.rank)], 30)
        t = TorusElement(tuple(Fraction(rng.randrange(30), 30) for _ in range(rs.rank)))
        q_unramified(rs, t, "highestWeight", 7)


def test_act_modular_examples():
    a1 = build_root_system("A1")
    F3 = make_field(3, 1)
    s = simple_reflection(a1, 0)
    lam0 = (F3.zero(),)
    assert act_modular(s, lam0, dot=True) == (F3.from_int(1),)
    e = identity(a1)
    assert act_modular(e, lam0, dot=True) == lam0
    minus_rho = (F3.from_int(-1),)
    for w in enumerate_group(a1):
        assert act_modular(w, minus_rho, dot=True) == minus_rho


def test_dot_ordinary_compatibility_exhaustive():
    a2 = build_root_system("A2")
    F5 = make_field(5, 1)
    one = F5.one()
    W = enumerate_group(a2)
    for i in range(5):
        for j in range(5):
            lam = (F5.from_int(i), F5.from_int(j))
            lam_rho = (lam[0] + one, lam[1] + one)
            for w in W:
                lhs = act_modular(w, lam, dot=True)
                rhs = act_modular(w, lam_rho, dot=False)
                assert tuple(v + one for v in lhs) == rhs


def test_act_torus_ordinary():
    a1 = build_root_system("A1")
    s = simple_reflection(a1, 0)
    t = (UnityExp(Fraction(1, 5)),)
    assert s.act_torus_exponents(t)[0].q == Fraction(4, 5)
    e = identity(a1)
    assert e.act_torus_exponents(t) == t


def test_act_torus_dot_a1():
    # s acting by dot on exponent q gives -q - 1/5 (epsilon exponent 1/5):
    # the factor is eps^{-(rho, varpi - s varpi)} = eps^{-1}
    a1 = build_root_system("A1")
    for num in range(10):
        q = Fraction(num, 10)
        out = dot_by_word(a1, (0,), (UnityExp(q),), ell=5)
        assert out[0].q == (UnityExp(-q).q - Fraction(1, 5)) % 1
        # involution
        again = dot_by_word(a1, (0,), out, ell=5)
        assert again[0].q == q % 1


def test_act_torus_dot_matches_direct_formula():
    # (w dot t)(K_varpi_i) = eps^{-(rho, varpi_i - w^{-1} varpi_i)} t(K_{w^{-1} varpi_i})
    rs = build_root_system("A2")
    W = enumerate_group(rs)
    ell = 5
    rho_pairs = rs.rho_weight_pairs
    t = (UnityExp(Fraction(1, 5)), UnityExp(Fraction(3, 5)))
    for w in W:
        out = dot_by_word(rs, w.word, t, ell=ell)
        ordinary = w.act_torus_exponents(t)
        rows = w._torus_rows
        for i in range(rs.rank):
            # varpi-coordinates of w^{-1} varpi_i are column i of the torus rows
            minv_coords = tuple(rows[i][j] for j in range(rs.rank))
            pairing = sum(Fraction(c) * rho_pairs[j]
                          for j, c in enumerate(minv_coords))
            diff = rho_pairs[i] - pairing  # (rho, varpi_i - w^{-1} varpi_i)
            assert diff.denominator == 1  # root-lattice element
            expect = UnityExp(ordinary[i].q + eps_pow(-diff, ell))
            assert out[i] == expect


def test_stabilizer_bruteforce_examples():
    a2 = build_root_system("A2")
    W = enumerate_group(a2)
    F5 = make_field(5, 1)
    zero = (F5.zero(), F5.zero())
    stab = stabilizer_bruteforce(W, [zero], lambda w, x: w.act_values(x))
    assert len(stab) == len(W)

    F25 = make_field(5, 2)
    c = F25.elem((0, 1))  # x, not Frobenius-fixed
    assert c.frobenius() != c
    eta = (F25.zero(), c)
    stab = stabilizer_bruteforce(W, [eta], lambda w, x: w.act_values(x))
    assert sorted(w.length for w in stab) == [0, 1]  # {e, s1}

    a1 = build_root_system("A1")
    W1 = enumerate_group(a1)
    t = (UnityExp(Fraction(1, 7)),)
    stab = stabilizer_bruteforce(
        W1, [t], lambda w, x: w.act_torus_exponents(x))
    assert len(stab) == 1


def test_reflection_stabilizer_examples():
    from lieram.selftest import pair
    a2 = build_root_system("A2")
    assert reflection_stabilizer(a2, lambda b: True).order == 6
    g2 = build_root_system("G2")
    sub = reflection_stabilizer(g2, lambda b: b[0] % 3 == 0)
    assert sub.type_str == "A2" and sub.order == 6
    # A1, p=3, eta(h) = 1: no root has eta(h_alpha) = 0
    a1 = build_root_system("A1")
    F3 = make_field(3, 1)
    eta = (F3.one(),)
    sub = reflection_stabilizer(a1, lambda b: pair(a1, eta, b).is_zero())
    assert sub.order == 1 and sub.type_str == "1"


def test_reflection_subgroup_elements_match_order():
    g2 = build_root_system("G2")
    sub = reflection_stabilizer(g2, lambda b: b[0] % 3 == 0)
    els = subgroup_elements(sub)
    assert len(els) == 6
    # closed under composition
    els_set = set(els)
    for a in els:
        for b in els:
            assert (a * b) in els_set


def test_root_reflection_matches_simple():
    b2 = build_root_system("B2")
    for i in range(2):
        e = tuple(1 if k == i else 0 for k in range(2))
        assert root_reflection(b2, e) == simple_reflection(b2, i)
    # s_beta is an involution permuting the roots
    for b in b2.pos_roots:
        s = root_reflection(b2, b)
        assert s * s == identity(b2)
        assert {s.apply_root(g) for g in b2.all_roots()} == set(b2.all_roots())


def test_min_coset_reps():
    a2 = build_root_system("A2")
    W = enumerate_group(a2)
    assert [w.length for w in min_coset_reps(a2, W, [0, 1])] == [0]
    reps = min_coset_reps(a2, W, [0])
    assert sorted(w.length for w in reps) == [0, 1, 2]
    b2 = build_root_system("B2")
    reps = min_coset_reps(b2, enumerate_group(b2), [0])
    assert sorted(w.length for w in reps) == [0, 1, 2, 3]
    with pytest.raises(NotParabolic):
        min_coset_reps(a2, W, [5])


def test_min_coset_reps_laws_all_parabolics():
    import itertools
    for t in ("A3", "B2", "G2"):
        rs = build_root_system(t)
        W = enumerate_group(rs)
        for k in range(rs.rank + 1):
            for par in itertools.combinations(range(rs.rank), k):
                sub = reflection_stabilizer(
                    rs, lambda b: all(c == 0 or i in par
                                      for i, c in enumerate(b)))
                reps = min_coset_reps(rs, W, par)
                assert len(reps) * sub.order == len(W)
                # closed form W(t)/W_J(t) = representatives counted by length
                counts = [0] * (max(w.length for w in reps) + 1)
                for w in reps:
                    counts[w.length] += 1
                assert sub.is_parabolic
                assert sub.coset_poincare == tuple(counts)
                assert reps[0] == identity(rs)
                top = max(w.length for w in reps)
                assert sum(1 for w in reps if w.length == top) == 1


def test_orbit_partition_examples():
    a1 = build_root_system("A1")
    F3 = make_field(3, 1)
    pts = [(F3.from_int(k),) for k in range(3)]
    s = simple_reflection(a1, 0)
    orbits = orbit_partition_by_key(pts, [lambda x: act_modular(s, x, dot=True)],
                                    key=lambda x: tuple(v.coeffs for v in x))
    assert [sorted(v[0].as_int() for v in o) for o in orbits] == [[0, 1], [2]]

    # trivial group: singletons
    orbits = orbit_partition_by_key(pts, [], key=lambda x: tuple(v.coeffs for v in x))
    assert len(orbits) == 3

    qpts = [(UnityExp(Fraction(k, 5)),) for k in range(5)]
    orbits = orbit_partition_by_key(qpts, [lambda x: s.act_torus_exponents(x)],
                                    key=lambda x: tuple((e.q.numerator, e.q.denominator)
                                                        for e in x))
    shapes = sorted(sorted(e[0].q for e in o) for o in orbits)
    assert shapes == [[Fraction(0)],
                      [Fraction(1, 5), Fraction(4, 5)],
                      [Fraction(2, 5), Fraction(3, 5)]]

    # production: (first point met, orbit size) per orbit, in the order of
    # the points; in key order, the least points of the oracle's orbits
    dot = [lambda x: act_modular(s, x, dot=True)]
    assert orbit_partition(pts, dot) == [(pts[0], 2), (pts[2], 1)]
    assert orbit_partition(iter(pts[::-1]), dot) == [(pts[2], 1), (pts[1], 2)]
    assert orbit_partition(pts, []) == [(x, 1) for x in pts]
    assert orbit_partition(qpts, [lambda x: s.act_torus_exponents(x)]) == [
        (cls[0], len(cls)) for cls in orbits] == [(qpts[0], 1), (qpts[1], 2), (qpts[2], 2)]
    # without 1, the walk from 0 leaves the points
    with pytest.raises(InvariantViolation, match="a walk left it"):
        orbit_partition([pts[0], pts[2]], dot)


def test_burnside_examples():
    a1 = build_root_system("A1")
    F3 = make_field(3, 1)
    pts = [(F3.from_int(k),) for k in range(3)]
    W = enumerate_group(a1)
    assert burnside_count(W, pts, lambda w, x: act_modular(w, x, dot=True)) == 2

    e = identity(a1)
    assert burnside_count((e,), pts, lambda w, x: x) == 3

    a2 = build_root_system("A2")
    F5 = make_field(5, 1)
    pts2 = [(F5.from_int(i), F5.from_int(j)) for i in range(5) for j in range(5)]
    W2 = enumerate_group(a2)
    assert burnside_count(W2, pts2,
                          lambda w, x: act_modular(w, x, dot=True)) == 7

    # a list that is not a group: 3 + 1 + 1 fixed points over 3 elements
    s = simple_reflection(a1, 0)
    with pytest.raises(InvariantViolation):
        burnside_count((e, s, s), pts, lambda w, x: act_modular(w, x, dot=True))


def test_value_action_duality():
    # (w lambda)(h_beta) = lambda(h_{w^{-1} beta}) for every root, not just
    # the simples the implementation is built from
    from lieram.selftest import pair
    for t in ("B2", "G2"):
        rs = build_root_system(t)
        F7 = make_field(7, 1)
        W = enumerate_group(rs)
        samples = [tuple(F7.from_int(k + 3 * i) for i in range(rs.rank))
                   for k in range(3)]
        for w in W:
            w_inv = word_element(rs, w.word[::-1])
            for v in samples:
                moved = w.act_values(v)
                for b in rs.all_roots():
                    assert pair(rs, moved, b) == pair(rs, v, w_inv.apply_root(b))


def test_torus_action_duality():
    # (w t)(K_beta) = t(K_{w^{-1} beta}) for every root
    from lieram.quantum import TorusElement
    from lieram.selftest import root_value
    for t in ("B2", "G2"):
        rs = build_root_system(t)
        W = enumerate_group(rs)
        pt = TorusElement(tuple(Fraction(i + 1, 7 + i) for i in range(rs.rank)))
        for w in W:
            w_inv = word_element(rs, w.word[::-1])
            moved = TorusElement(e.q for e in w.act_torus_exponents(pt.exps))
            for b in rs.all_roots():
                assert root_value(rs, moved, b) == root_value(rs, pt, w_inv.apply_root(b))


def test_cartan_int_identities():
    for ts in ("A3", "B3", "C3", "F4", "G2", "D4"):
        rs = build_root_system(ts)
        for b in rs.all_roots():
            assert rs.cartan_int(b, b) == 2
            for g in rs.all_roots():
                assert abs(rs.cartan_int(b, g)) <= 3


def test_hc_shift_vector_a1():
    # (rho, varpi) = 1/2; eps_pow(1/2, 5) = 3/5 (equivalently -2/5 mod 1)
    a1 = build_root_system("A1")
    vec = hc_shift(a1, TorusElement((0,)), 5).exps
    assert vec[0].q == Fraction(3, 5)
    assert vec[0].q == (Fraction(-2, 5)) % 1
