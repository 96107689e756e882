"""Root system construction, pairings, subsystems, hypothesis flags."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from lieram import rootdata
from lieram.errors import BoundExceeded, InvalidType, InvariantViolation, NotClosed
from lieram.rootdata import (
    RootSystem,
    WeylInvariants,
    _classify,
    _classify_component,
    build_root_system,
    check_cartan_type,
    check_closed,
    highest_root,
    hypothesis_check,
    parse_cartan_type,
    subsystem_classify,
    two_rho_dot,
    weyl_invariants,
)
from lieram.scalars import make_field
from lieram.selftest import close_up, pair
from lieram.weyl import enumerate_group, word_images

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


# The marks (highest-root coefficients) in Bourbaki numbering: Bourbaki, Lie
# Groups and Lie Algebras, Ch. VI, Plates I-IX.
MARKS = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 1),
    "C": lambda n: (2,) * (n - 1) + (1,),
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
    "E": lambda n: {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1),
                    8: (2, 3, 4, 6, 5, 4, 3, 2)}[n],
    "F": lambda n: (2, 3, 4, 2),
    "G": lambda n: (3, 2),
}

PRODUCTS = ["A1xA1", "A2xB3xG2", "D4xE6"]


def roots_by_reflection(C):
    """Oracle: Phi as the closure of the simple roots under the simple
    reflections s_i(b) = b - (sum_j C[i][j] b_j) alpha_i, from the Cartan
    matrix alone."""
    r = len(C)
    todo = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    seen = set(todo)
    while todo:
        b = todo.pop()
        for i in range(r):
            v = sum(C[i][j] * b[j] for j in range(r))
            s = tuple(c - v * (k == i) for k, c in enumerate(b))
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


@pytest.mark.parametrize("t", ALL_TYPES + PRODUCTS)
def test_positive_root_counts_and_highest(t):
    rs = build_root_system(t)
    comps = parse_cartan_type(t)
    counts = {"E": {6: 36, 7: 63, 8: 120}, "F": {4: 24}, "G": {2: 6}}
    assert rs.N == sum(counts[l][n] if l in counts else CLASSICAL_COUNTS[l](n)
                       for l, n in comps)
    assert rs.a == sum((MARKS[l](n) for l, n in comps), ())
    # per component: the marks on its nodes, above every root supported there
    for k, (_l, _n, nodes) in enumerate(rs.components):
        top = rs.highest_root(k)
        assert top == tuple(rs.a[i] if i in nodes else 0 for i in range(rs.rank))
        assert all(all(x <= y for x, y in zip(b, top))
                   for b in rs.pos_roots if any(b[i] for i in nodes))
    # every root and its data against the Cartan matrix C and the
    # symmetrizer D: (b, g) = b^T D C g, coroots 2b/(b, b), values C b
    C, d, r = rs.cartan, rs.d, rs.rank
    assert all(d[i] * C[i][j] == d[j] * C[j][i] for i in range(r) for j in range(r))
    roots = roots_by_reflection(C)
    assert rs.all_roots() == roots
    assert rs.pos_roots == tuple(sorted((b for b in roots if min(b) >= 0),
                                        key=lambda b: (sum(b), b)))
    form = {b: [sum(b[i] * d[i] * C[i][j] for i in range(r)) for j in range(r)]
            for b in roots}
    for b in roots:
        bb = sum(x * y for x, y in zip(form[b], b))
        assert bb % 2 == 0 and rs.norm(b) == bb // 2
        coroot = [Fraction(2 * b[i] * d[i], bb) for i in range(r)]  # (a_i, a_i) = 2 d_i
        assert all(c.denominator == 1 for c in coroot)
        assert rs.coroot(b) == tuple(coroot)
        assert rs.value_vec(b) == tuple(sum(C[i][j] * b[j] for j in range(r))
                                        for i in range(r))
        for i in range(r):
            v = sum(C[i][j] * b[j] for j in range(r))
            assert rs.reflect(i, b) == tuple(c - v * (k == i) for k, c in enumerate(b))
    for g in rs.pos_roots:
        gg = sum(x * y for x, y in zip(form[g], g))
        assert all(rs.cartan_int(b, g) * gg == 2 * sum(x * y for x, y in zip(form[b], g))
                   for b in rs.pos_roots)


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
    with pytest.raises(NotClosed):  # negation-stable, but not roots
        subsystem_classify(a2, {(2, 0), (-2, 0)})


def closed_by_all_pairs(rs, S):
    """Oracle: negation-stable, and every ordered pair of S sums to a
    non-root or to a member of S."""
    return (all(tuple(-c for c in b) in S for b in S)
            and not any(rs.is_root(s) and s not in S
                        for b in S for g in S for s in [tuple(x + y for x, y in zip(b, g))]))


def basis_by_all_pairs(S):
    """Oracle: the positive members of S that are not a sum of two positive
    members, in (height, coefficients) order."""
    plus = {b for b in S if min(b) >= 0}
    return tuple(sorted((b for b in plus
                         if not any(tuple(x - y for x, y in zip(b, g)) in plus for g in plus)),
                        key=lambda b: (sum(b), b)))


@pytest.mark.parametrize("t", ["A3", "B3", "G2", "F4", "D4", "E6", "E7"])
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
            assert subsystem_classify(rs, S).basis == basis_by_all_pairs(S)
        else:
            with pytest.raises(NotClosed):
                check_closed(rs, S)
    assert 20 < sum(verdicts) < len(verdicts) - 20


@pytest.mark.parametrize("t", ["G2", "E8", "A2xB3xG2"])
def test_a_fresh_root_system_holds_its_root_data(t):
    """Construction computes every root's pairings, coroot and norm, the
    highest roots and the marks; the sum-triple table waits for the first
    closure check."""
    rs = RootSystem(parse_cartan_type(t))  # not the cached system
    roots = rs.all_roots()
    for table in (rs._value, rs._coroot, rs._norm):
        assert type(table) is dict and table.keys() == roots
    assert all(type(v) is tuple and len(v) == rs.rank for v in rs._value.values())
    assert all(type(v) is tuple and len(v) == rs.rank for v in rs._coroot.values())
    assert all(type(n) is int and n > 0 for n in rs._norm.values())
    assert type(rs._highest) is list and len(rs._highest) == len(rs.components)
    assert type(rs.a) is tuple and len(rs.a) == rs.rank
    assert "sum_triples" not in vars(rs)
    subsystem_classify(rs, roots)
    assert type(vars(rs)["sum_triples"]) is dict and vars(rs)["sum_triples"].keys() == roots


# sha256 of each type's root data, as the walk by height stored it with one
# generator expression per root for its coroot, integrality test and
# negatives (root_data_digest); the walk must store the same data
ROOT_DATA_SHA256 = {
    "A1": "9ba3cf8a9e1c03dc6daa0317e8a5346bf218514b51213198fc5d22dc21a77d13",
    "A2": "90b93108eade4e31d32c67b190b394c3f1ca4d7ef8072577811da522b99608ce",
    "A3": "bab867034ab7e7e818d4061366d4cd8eaae362213903e5081c752b38a7a3120c",
    "A4": "7bda775e1c48f65b9adc80c87f8260425716fcc19560c422af003a024c25d5e8",
    "A5": "4e5015c3e0156146416658d6dfd303fc0641cf1e063b91c01f798c5fac72978e",
    "A6": "80529defaac51a0d9e25cc9e97d99ec1d2cef6a83408af007dee22875c38cf60",
    "A7": "f78f0c4ae6450bfdfd83e7a2107bd2c17df0717ca68f1de0f835a9b2c4c91b74",
    "A8": "83d9672bf93052cabf990253648bd6f0809779f282186fae9c6a71e2655a38ae",
    "B2": "f6eb00155a735bb5df94de3552485d8b8d41aefd077879c22c58f01f69515dc2",
    "B3": "522e08913b439c739ee7af4c8c754d5f977b1ff68330ea5425dc189d77985e9a",
    "B4": "e48f5fd5c9a6678a07ce0605944880bf9ddfe6558861e29d0a589bd3371cc030",
    "B5": "2590ce96f1cea253d703b024d4d3c056667956441ee2b1b707a2439d34b63f4f",
    "B6": "7d46b802e4054c27d777fdc7c1d2c387c3a7973a69ffda6948da6399777ccfc2",
    "B7": "879c132ec98fc98241cabeb99f0923e61622f80c24a2a4901e12ef957aa1c583",
    "B8": "f21485baa26d81782b7e40a2f66e53a039bd1ded975acad92de181fe32cd3945",
    "C2": "d12abe2dc4f3c1dc4b3cffad6008c75531f6d706a4072cade2e41c505c0a6a3e",
    "C3": "71fcbcc778979d16d7cf63b36cddad4516da35ffe370fe1d25fd5eb0874c268c",
    "C4": "6e2aee3424689c289cece8860fbe4b8d5374ec6bc1c38d2ccf491d5bf38ddcac",
    "C5": "1dd15df51d9be3d1ed4b9bc17469a64ea6092ff6c07c1270de22cf6e55135bef",
    "C6": "99cdbc2ae1c527f8c114844932ebdfc640569887b6f8aa942e369019a7d5a5dc",
    "C7": "f831a8b4991e5fb6c8c83048b5fba561b694d9200b4498eb6769addbd41ec1fb",
    "C8": "1c96b321f1d1728b09f9203905295e388f5fa0307ce6dd5f22bf0716f0c58ed4",
    "D3": "c9aa55576c71378654063466ee9541888dd85046ad80c0d931c2eb3557922f4d",
    "D4": "40ca3a4327a916b87bdb5e8733894211af090b72f1a895c52a7aa96c43ba1bc5",
    "D5": "de2d836fdb0c783356811d220f377d6cb3a52b2a0b5538304158c73cfff13ef5",
    "D6": "93b77d1a796b17caa2b425e5afed58d9d8ef56dd9f55fb1ce58ed44fb7c989ca",
    "D7": "cdedc95993641f1e7d45be000020f7b0e522e0fab0d3d88d9be5ebbac6e9e188",
    "D8": "f9afcfd2280c14f78b088add36fd059addb0606961f876bb418a5b8ae0b175f5",
    "E6": "c7713fd265a42ce52bc6dcf1e7df983c85271bc493deea0f393278446dd9152a",
    "E7": "f1aa1350980acf01de5c274833a56c9930ed6fdee6ad5058a0cc33337861481a",
    "E8": "550e860014926e48a8dd38414315ed72e7b0a4303fbee2230161f86b65355b17",
    "F4": "834ee7a52696fdfd321ad254d953aea20c7f9cc4eff198e0e57337714dd30dda",
    "G2": "5f5ff72b224662af1a3613865c30535fa945efe9e11ace0db63a1a94af65b7b3",
    "A2xB3xG2": "e1f027b8a421eed70e19c92939b70e129acf5648c667ff128ce7425b1f402335",
    "E6xG2": "3136d01c4e1e9eca16d9ebff8f5b7d7d351761965b02345598c7fc5c52ed6583",
}


def root_data_digest(rs):
    """sha256 of pos_roots and height_steps, the pairings, coroot and norm of
    every root (in sorted order), the highest roots and the marks."""
    data = (rs.pos_roots, rs.height_steps,
            [(b, rs.value_vec(b), rs.coroot(b), rs.norm(b)) for b in sorted(rs.all_roots())],
            [rs.highest_root(k) for k in range(len(rs.components))], rs.a)
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("t", ROOT_DATA_SHA256)
def test_the_root_data_of_each_type_is_pinned(t):
    assert root_data_digest(RootSystem(parse_cartan_type(t))) == ROOT_DATA_SHA256[t]


def _a2_built_with(monkeypatch, **patched):
    """A fresh A2 root system, built with each rootdata function named in
    `patched` returning the given value for A2."""
    for name, value in patched.items():
        real = getattr(rootdata, name)
        monkeypatch.setattr(rootdata, name, lambda letter, n, real=real, value=value:
                            value if (letter, n) == ("A", 2) else real(letter, n))
    return RootSystem((("A", 2),))


def test_the_walk_refuses_a_cartan_matrix_with_no_invariant_form(monkeypatch):
    with pytest.raises(InvariantViolation, match="A2: D C is not symmetric"):
        _a2_built_with(monkeypatch, cartan_matrix=((2, -1), (-2, 2)))


def test_the_walk_refuses_a_coroot_that_is_not_integral(monkeypatch):
    # D C is symmetric for d = (4, 1), but the matrix is no Cartan matrix:
    # alpha_1 + alpha_2 has norm 3, and 4 * 1 / 3 is no integer
    with pytest.raises(InvariantViolation, match=r"A2: coroot of \(1, 1\) is not integral"):
        _a2_built_with(monkeypatch, cartan_matrix=((2, Fraction(-1, 2)), (-2, 2)),
                       weyl_invariants=WeylInvariants((4, 1), (2, 3), 3))


def test_the_walk_refuses_a_root_count_the_degrees_do_not_give(monkeypatch):
    with pytest.raises(InvariantViolation, match="A2: 3 positive roots, degrees say otherwise"):
        _a2_built_with(monkeypatch, weyl_invariants=WeylInvariants((1, 1), (2, 4), 3))


@pytest.mark.parametrize("marks", [(1, 0), (2, 1)])
def test_the_walk_refuses_marks_that_are_not_above_every_root(monkeypatch, marks):
    with pytest.raises(InvariantViolation, match="A2: the highest root is not above every root"):
        _a2_built_with(monkeypatch, highest_root=(marks, (0,)))


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


# The classifier's pinned corpus, per type: for every subset J of the nodes
# of the extended Dynkin diagram but the whole, the roots b vanishing mod Z
# at the point with Kac coordinates s = 0 on J and 1 elsewhere, i.e.
# sum_i b_i s_i = 0 mod m with m = s_0 + sum_i a_i s_i, a closed subsystem
# with basis J; and the long and the short roots of a multiply laced type,
# each a root system (the short ones are not closed in Phi, so they go to
# _classify, not subsystem_classify).  The sha256 is of the (type_str,
# components) of every member, in this order.
PINNED_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
CLASSIFIED_SHA256 = "cd8c0c237644f99a5b3ceff23d6b13ea8ded275c5540aa58e89952134c3976c5"


def kac_and_length_subsystems(rs):
    roots = sorted(rs.all_roots())
    for s0, *s in itertools.product((0, 1), repeat=rs.rank + 1):
        m = s0 + sum(itertools.compress(rs.a, s))
        if m:
            yield frozenset(b for b in roots if sum(itertools.compress(b, s)) % m == 0)
    norms = sorted({rs.norm(b) for b in roots})
    for n in norms if len(norms) == 2 else ():
        yield frozenset(b for b in roots if rs.norm(b) == n)


def test_the_classification_of_a_fixed_corpus_is_pinned():
    classified, types, b2_long_first_in_basis = [], set(), set()
    for t in PINNED_TYPES:
        rs = build_root_system(t)
        for sub in (_classify(rs, S) for S in kac_and_length_subsystems(rs)):
            classified.append((sub.type_str, sub.components))
            types |= {(letter, n) for letter, n, _ in sub.components}
            for long_root, short_root in (o for l, n, o in sub.components if (l, n) == ("B", 2)):
                assert rs.norm(long_root) > rs.norm(short_root)
                index = sub.basis.index
                b2_long_first_in_basis.add(index(long_root) < index(short_root))
    assert len(classified) == 4980 and {("D", 4), ("E", 6)} <= types
    assert b2_long_first_in_basis == {True, False}
    assert hashlib.sha256(repr(classified).encode()).hexdigest() == CLASSIFIED_SHA256


def hand_made_cartan_integers(norms, bonds):
    """<b_i, b_j^vee> of a diagram with (b_i, b_i) = 2 norms[i] and (b_i, b_j)
    = -max(norms[i], norms[j]) on a bond."""
    m = [[2 * (i == j) for j in range(len(norms))] for i in range(len(norms))]
    for i, j in bonds:
        top = max(norms[i], norms[j])
        m[i][j], m[j][i] = -top // norms[j], -top // norms[i]
    return m


@pytest.mark.parametrize("norms, bonds", [
    ([1] * 9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
    ([1, 3, 3], [(0, 1), (1, 2)]),
    ([2, 1, 1, 2], [(0, 1), (1, 2), (2, 3)]),
    ([2, 2, 2, 1], [(0, 1), (0, 2), (0, 3)]),
    ([1, 1, 1], [(0, 1), (1, 2), (2, 0)]),
    ([1] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
], ids=["branches-1-2-5", "triple-bond-in-rank-3", "two-double-bonds",
        "d4-tree-with-a-double-bond", "cycle", "four-branches"])
def test_a_diagram_with_no_bourbaki_type_is_refused(norms, bonds):
    with pytest.raises(InvariantViolation, match="is not its Dynkin diagram"):
        _classify_component(norms, list(range(len(norms))),
                            hand_made_cartan_integers(norms, bonds))


def test_hypothesis_check():
    def check(t, p):
        return hypothesis_check(parse_cartan_type(t), p)
    assert check("G2", 3)["goodPrime"] is False
    assert check("A4", 5)["traceFormOK"] is False
    rep = check("A2", 7)
    assert rep["goodPrime"] and rep["traceFormOK"] and rep["ok"]
    assert check("E8", 5)["goodPrime"] is False
    assert check("A1", 2)["ok"] is False  # p must be odd
    # D3 = A3 has no bad prime; p = 2 still fails as an even prime
    assert check("D3", 2) == {"goodPrime": True, "traceFormOK": True,
                              "oddPrime": False, "ok": False}
    assert hypothesis_check(build_root_system("B3").ctype, 2) == check("B3", 2)


# the bad primes of each type (Springer-Steinberg, Conjugacy Classes, LNM 131,
# I.4.3): none for A and D3 = A3, 2 for B, C and D, 2 and 3 for E6, E7, F4
# and G2, and 2, 3 and 5 for E8
BAD_PRIMES = {"A": (), "B": (2,), "C": (2,), "D": (2,), "E": (2, 3), "F": (2, 3),
              "G": (2, 3)}


def bad_primes(t):
    return {"D3": (), "E8": (2, 3, 5)}.get(t, BAD_PRIMES[t[0]])


def det(C):
    """The determinant of an integer matrix by exact Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in C]
    n, out = len(M), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            out = -out
        out *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return out


ASCENT_TYPES = ([f"A{r}" for r in range(1, 13)]
                + [f"{l}{r}" for l in "BC" for r in range(2, 13)]
                + [f"D{r}" for r in range(4, 13)]
                + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("t", ASCENT_TYPES)
def test_the_dominant_ascent_gives_theta_and_the_word_of_s_theta(t, monkeypatch):
    rs = build_root_system(t)
    ((letter, n),) = rs.ctype
    marks, word = highest_root(letter, n)
    assert marks == rs.a and marks == rs.highest_root(0)
    # s_theta alpha_j = alpha_j - <alpha_j, theta^vee> theta
    theta, simple = rs.highest_root(0), rs.simple_roots
    assert word_images(rs, word, simple) == [
        tuple(a - rs.cartan_int(alpha, theta) * b for a, b in zip(alpha, theta))
        for alpha in simple]
    # the good primes come off the type alone, with no root system built
    monkeypatch.setattr(RootSystem, "_build_roots", lambda _rs: pytest.fail("roots built"))
    for p in (2, 3, 5, 7):
        assert hypothesis_check(rs.ctype, p)["goodPrime"] == (p not in bad_primes(t)), p


@pytest.mark.parametrize("t", ALL_TYPES)
def test_weyl_invariants_match_the_root_data(t):
    rs = build_root_system(t)
    ((letter, n),) = rs.ctype
    inv = weyl_invariants(letter, n)
    C, d, r = rs.cartan, rs.d, rs.rank
    assert subsystem_classify(rs, rs.all_roots()).index_of_connection() == inv.index == det(C)
    for p in (2, 3, 5, 7):
        assert any(a % p == 0 for a in rs.a) == (p in bad_primes(t)), p
        assert hypothesis_check(parse_cartan_type(t), p)["goodPrime"] == (
            p not in bad_primes(t)), p
    assert sum(e - 1 for e in inv.degrees) == rs.N
    if r <= 4:
        assert len(enumerate_group(rs)) == math.prod(inv.degrees) == rs.weyl_order()
    assert all(d[i] * C[i][j] == d[j] * C[j][i] for i in range(r) for j in range(r))
    # D C symmetric fixes d up to a scalar on a connected diagram; d = 1 on
    # the short roots fixes the scalar
    short = min(rs.norm(a) for a in rs.simple_roots)
    assert d == inv.d and all((d[i] == 1) == (rs.norm(a) == short)
                              for i, a in enumerate(rs.simple_roots))


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
    # the product sign in either case, blanks around a factor ignored
    assert parse_cartan_type("a2XB3") == parse_cartan_type(" A2 x b3 ") == (("A", 2), ("B", 3))
    with pytest.raises(InvalidType, match="cannot parse component 'A 2'"):
        parse_cartan_type("A 2xB3")
    # a huge rank is checked without listing its invariants
    assert parse_cartan_type("A" + "9" * 30) == (("A", int("9" * 30)),)
    with pytest.raises(InvalidType, match="invalid component E9999"):
        parse_cartan_type("E9999")


@pytest.mark.parametrize("comps", [(("H", 4),), (("E", 9),), (("A", 2), ("D", 2)),
                                   (("G", 3),), (("A", 0),)])
def test_a_malformed_type_is_refused_at_every_public_entry(comps):
    # no letter falls through to another type's invariants
    for entry in (build_root_system, check_cartan_type, lambda c: hypothesis_check(c, 5)):
        with pytest.raises(InvalidType, match="invalid component"):
            entry(comps)


def test_weyl_orders_and_index():
    assert build_root_system("G2").weyl_order() == 12
    assert build_root_system("E6").weyl_order() == 51840
    a2 = build_root_system("A2")
    assert subsystem_classify(a2, a2.all_roots()).index_of_connection() == 3


def test_the_type_bound_is_checked_before_the_memo_is_read():
    # |Phi+| x rank = 6 for A2, inclusive; a memoised type is refused all the same
    a2 = build_root_system("A2")
    with pytest.raises(BoundExceeded, match=r"^type A2: \|Phi\+\| x rank = 6 exceeds bound 5$"):
        build_root_system("A2", 5)
    assert build_root_system("A2", 6) is a2
    # a component tuple too; rank^2 is compared before the degrees are listed
    with pytest.raises(BoundExceeded, match=r"^type A1000: rank\^2 = 1000000 exceeds bound 999999$"):
        build_root_system((("A", 1000),), 999999)
