"""The root-of-unity side: torsion torus elements, the ell-fiber and its
blocks, quantum unramified criteria in both coordinate systems, exceptional
elements, the embedded appendix table with its four-point verification, the
baby-Verma simplicity necessary condition, and fully-Azumaya bookkeeping.

A torus element is the exponent vector (q_1, ..., q_r): t(K_{varpi_i}) =
e^{2 pi i q_i}, all exact rationals.  epsilon is the primitive ell-th root of
unity with exponent eps/ell (eps = 1 unless overridden); every
epsilon-dependent output records the choice.

Coordinate systems: baby Verma modules are labelled by highest-weight torus
elements t with t^ell = chi_s; the central character / component label is the
Harish-Chandra shift u of t (hc_shift, forward), and the fiber point of the
block is u^2, living in {f : f^ell = chi_s^2}.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import HypothesisFailure, InvalidType, InvariantViolation, UnknownRow
from .rootdata import RootSystem, subsystem_classify, two_rho_dot
from .scalars import UnityExp, eps_pow
from .weyl import (
    BlockRecord,
    act_torus,
    alcove_descent,
    block_orbits,
    hc_shift_vector,
    integer_pairings,
    inversion_set,
    reflection_stabilizer,
    support_indices,
    word_images,
)


class TorusElement:
    """Torsion point of T: exact rational exponents on K_{varpi_1..r}."""

    __slots__ = ("exps",)

    def __init__(self, exps):
        self.exps = tuple(e if isinstance(e, UnityExp) else UnityExp(e)
                          for e in exps)

    def pow(self, k: int) -> "TorusElement":
        return TorusElement(tuple(e * k for e in self.exps))

    def is_one(self) -> bool:
        return all(e.is_one() for e in self.exps)

    def key(self):
        return tuple(e.key() for e in self.exps)

    def __eq__(self, other):
        return isinstance(other, TorusElement) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return "t(" + ",".join(str(e) for e in self.exps) + ")"


def _pairings(rs: RootSystem, t: TorusElement):
    """beta(t) for every positive root beta as the numerator of its exponent
    over the common denominator N of t's exponents, so beta(t) = 1 iff it is
    0: (dict root -> numerator mod N, N)."""
    N = math.lcm(*(e.q.denominator for e in t.exps))
    code = tuple(e.q.numerator * (N // e.q.denominator) for e in t.exps)
    return dict(zip(rs.pos_roots, integer_pairings(rs, "torus", N)(code))), N


def w_t(rs: RootSystem, t: TorusElement):
    """The classified subsystem Phi_t = {beta : beta(t) = 1}; W(Phi_t) =
    <s_beta : beta(t) = 1>."""
    vals, _N = _pairings(rs, t)
    return reflection_stabilizer(rs, lambda b: vals[b] == 0)


def check_root_of_unity(rs: RootSystem, ell: int, eps: int):
    """The standing hypotheses on ell and epsilon: ell odd and >= 3, prime to
    3 when a G2 component is present, and eps coprime to ell."""
    if ell % 2 == 0 or ell < 3:
        raise HypothesisFailure(f"ell = {ell} must be odd and >= 3")
    if any(l == "G" for l, _, _ in rs.components) and ell % 3 == 0:
        raise HypothesisFailure(
            f"ell = {ell} must be prime to 3 for G2 components")
    if math.gcd(eps, ell) != 1:
        raise HypothesisFailure(f"eps = {eps} must be coprime to ell")


class QChar:
    """chi = chi_u chi_s with chi_s a torsion torus element and unipotent
    support a subset of the basis of Phi' = {beta : beta(chi_s^2) = 1}."""

    def __init__(self, rs, ell, chi_s=None, support=(), eps=1):
        check_root_of_unity(rs, ell, eps)
        self.rs = rs
        self.ell = ell
        self.eps = eps
        if chi_s is None:
            chi_s = TorusElement(tuple(UnityExp(0) for _ in range(rs.rank)))
        self.chi_s = chi_s
        self.levi = w_t(rs, chi_s.pow(2))
        self.support = support_indices(self.levi, support)

    @property
    def regular(self) -> bool:
        return set(self.support) == set(range(len(self.levi.basis)))

    def __repr__(self):
        return (f"QChar({self.rs.type_str}, ell={self.ell}, "
                f"chi_s={self.chi_s!r}, S={self.support})")


class QBlockReport(BlockRecord):
    """Per-block record: the block's fiber point, orbit size, dimension,
    unramified and exceptional flags, stabilizer types.

    The point is kept as the numerators of its exponents over one common
    denominator N, each in [0, N); rep is built from them on access.
    `stabilizer` is the point stabiliser of the fiber point."""

    __slots__ = ("numerators", "N", "orbit_size", "stabilizer", "dim",
                 "exceptional", "stab_fiber_type")
    VARYING = ("orbit_size", "torus")

    @property
    def rep(self):
        return TorusElement(tuple(Fraction(n, self.N) for n in self.numerators))

    def to_dict(self):
        N = self.N
        return {
            # str(UnityExp(n/N)): the reduced fraction
            "torus": [f"{n // g}/{N // g}" for n in self.numerators
                      for g in (math.gcd(n, N),)],
            "orbit_size": self.orbit_size,
            "dim": self.dim,
            "unramified": self.unramified,
            "exceptional": self.exceptional,
            "stabilizer_types": {"point": self.stab_point_type,
                                 "fiber": self.stab_fiber_type},
        }

    def varying_items(self):
        return (self.orbit_size, *self.numerators)


def q_blocks(chi: QChar, bound=None):
    """Blocks of the quantized algebra at chi: the partition of the fiber
    {t : t^ell = chi_s^2} under the ordinary action of Stab_W(chi_s^2); dimD
    is the index [W(t^ell) : W(t)] of classified subsystem orders.
    BoundExceeded when the ell^r fiber points and the W-orbit of chi_s^2
    exceed `bound` (default 10^6).  Only roots of Phi' = chi.levi can vanish
    on t, as beta(t)^ell = beta(chi_s^2); InvariantViolation unless the first
    t agrees."""
    rs, levi = chi.rs, chi.levi
    # the fiber as exponent numerators over N = ell D, D the common
    # denominator of chi_s: t_i = (2 q_i + d) / ell, and 2 q_i D = c_i
    D = math.lcm(*(e.q.denominator for e in chi.chi_s.exps))
    N = chi.ell * D
    c = [int(2 * e.q * D) for e in chi.chi_s.exps]
    # each axis in the order of UnityExp.key() of its exponents n/N: (n/g, N/g)
    # with g = gcd(n, N); W acts by integer matrices, so orbits stay on (1/N)Z^r
    axes = [sorted(((ci + d * D) % N for d in range(chi.ell)),
                   key=lambda n: (n // math.gcd(n, N), N // math.gcd(n, N))) for ci in c]
    walked = block_orbits(rs, levi, "torus", N, axes, tuple(ci * chi.ell % N for ci in c),
                          bound)
    first = integer_pairings(rs, "torus", N)(walked[0][0])
    if any(not v and b not in levi.roots for b, v in zip(rs.pos_roots, first)):
        raise InvariantViolation("a root outside Phi' vanishes on a fiber point")
    return [QBlockReport(numerators=x, N=N, orbit_size=size, stabilizer=stab,
                         dim=dim, exceptional=(stab.rank == rs.rank),
                         stab_fiber_type=levi.type_str)
            for x, size, stab, dim in walked]


def hc_shift(rs: RootSystem, t: TorusElement, ell: int, direction: str = "forward",
             eps: int = 1) -> TorusElement:
    """Coordinate change between baby-Verma highest weights and component
    labels: coordinate i shifts by eps^(rho, varpi_i).  Forward (highest
    weight -> component) adds the shift; "back" removes it; round trip is the
    identity, and the dot action on highest-weight labels is the conjugate of
    the ordinary action by this map."""
    vec = hc_shift_vector(rs, ell, eps)
    if direction == "forward":
        return TorusElement(tuple(q + s for q, s in zip(t.exps, vec)))
    if direction == "back":
        return TorusElement(tuple(q - s for q, s in zip(t.exps, vec)))
    raise ValueError(f"unknown direction {direction!r}")


def _delta_tilde(rs: RootSystem):
    out = list(rs.simple_roots)
    for idx in range(len(rs.components)):
        out.append(tuple(-c for c in rs.highest_root(idx)))
    return out


def _check_simple_system(rs: RootSystem, kac, roots):
    """Raise InvariantViolation unless the Delta-tilde nodes with Kac
    coordinate 0 form a simple system of `roots`: each lies in `roots`, and
    every root is an all-nonnegative or all-nonpositive integer combination
    of them.  On one component the only relation among the nodes -theta,
    alpha_j is theta = sum_j a_j alpha_j, so a root's combination is fixed by
    the vanishing of its coefficient on a node with nonzero Kac coordinate."""
    dt = _delta_tilde(rs)
    for c, (_l, _n, nodes) in enumerate(rs.components):
        coords = kac[c]
        ext_nodes = [dt[rs.rank + c]] + [dt[j] for j in nodes]
        if any(a not in roots for a, s in zip(ext_nodes, coords) if s == 0):
            raise InvariantViolation(
                f"a zero Kac node of {rs.type_str} lies outside the roots")
        marks = (1,) + tuple(rs.a[j] for j in nodes)
        free = next(k for k, s in enumerate(coords) if s)
        for b in roots:
            if not any(b[j] for j in nodes):
                continue
            ext = (0,) + tuple(b[j] for j in nodes)
            k = Fraction(-ext[free], marks[free])
            coeffs = [e + k * m for e, m in zip(ext, marks)]
            if not (all(x == 0 for x, s in zip(coeffs, coords) if s)
                    and all(x.denominator == 1 for x in coeffs)
                    and (min(coeffs) >= 0 or max(coeffs) <= 0)):
                raise InvariantViolation(
                    f"the zero Kac nodes of {rs.type_str} do not generate "
                    f"the root {b}")


def q_unramified(rs: RootSystem, point: TorusElement, coords: str, ell: int,
                 eps: int = 1) -> bool:
    """Quantum unramified criterion.

    coords="component": the robust all-roots test on the shifted label u
    (u^2 is the fiber point): beta(u)^{2 ell} = 1 implies beta(u)^2 = 1 for
    every positive root.

    coords="highestWeight": the Delta-tilde test on a baby-Verma label t,
    after W-(dot-)conjugating so that {beta : beta(t)^{2 ell} = 1} has a
    simple system inside Delta union {-alpha_0}: alpha(t)^{2 ell} = 1 implies
    alpha(t)^2 = eps^{-(2 rho, alpha)}.  The conjugating w comes from the
    alcove descent of 2 ell t as a word, which maps the saturated roots
    letter by letter; the simple system is read off its zero Kac
    coordinates.
    """
    vals, N = _pairings(rs, point)
    if coords == "component":
        return not any(2 * ell * v % N == 0 and 2 * v % N for v in vals.values())
    if coords != "highestWeight":
        raise ValueError(f"unknown coords {coords!r}")
    sat = [b for b, v in vals.items() if 2 * ell * v % N == 0]
    word, kac = alcove_descent(rs, [2 * ell * e.q for e in point.exps])
    moved = word_images(rs, word, sat)
    _check_simple_system(rs, kac, frozenset(moved) | frozenset(
        tuple(-x for x in b) for b in moved))
    label = TorusElement(act_torus(rs, word, point.exps, ell, eps))
    return _delta_tilde_test(rs, label, ell, eps)


def _delta_tilde_test(rs: RootSystem, t: TorusElement, ell: int, eps: int = 1) -> bool:
    """alpha(t)^{2 ell} = 1 implies alpha(t)^2 = eps^{-(2 rho, alpha)} for
    every alpha in Delta-tilde."""
    vals, N = _pairings(rs, t)
    for alpha in _delta_tilde(rs):
        v = vals[alpha] if alpha in vals else -vals[tuple(-c for c in alpha)]
        if 2 * ell * v % N == 0:
            target = eps_pow(-two_rho_dot(rs, alpha), ell, eps)
            if UnityExp(Fraction(2 * v, N)) != target:
                return False
    return True


# -- exceptional elements ----------------------------------------------------

def beta_minimal(rs: RootSystem, m: int):
    """The minimal positive root whose alpha_m-coefficient (0-based m) equals
    the highest-root coefficient a_m; it must be unique."""
    am = rs.a[m]
    cands = [b for b in rs.pos_roots if b[m] == am]
    minimal = [b for b in cands if all(rs.leq(b, c) for c in cands)]
    if len(minimal) != 1:
        raise InvariantViolation(
            f"{rs.type_str}: {len(minimal)} minimal roots with coefficient "
            f"{am} at node {m + 1}, expected one")
    return minimal[0]


def exceptional_elements(rs: RootSystem):
    """The exceptional semisimple classes s_0 = 1, s_1, ..., s_r of an
    irreducible system: alpha_j(s_m) = e^{2 pi i delta_jm / a_m}, so s_m has
    exponents q_i = X[i][m] / a_m on the alpha-coordinates X of the
    fundamental weights.  Its centralizer subsystem {beta : a_m | b_m} is
    checked against the roots trivial on s_m, and its basis against the
    off-node simple roots together with beta_m."""
    if len(rs.components) != 1:
        raise InvalidType(
            f"exceptional elements are classified per irreducible type, "
            f"not for {rs.type_str}")
    r = rs.rank
    out = [{
        "m": 0,
        "torus": TorusElement(tuple(UnityExp(0) for _ in range(r))),
        "root_values": tuple(UnityExp(0) for _ in range(r)),
        "centralizer": subsystem_classify(rs, rs.all_roots()),
        "beta_m": None,
    }]
    simple = rs.simple_roots
    X = rs.fundamental_weights()
    for m in range(r):
        am = rs.a[m]
        s_m = TorusElement(tuple(UnityExp(X[i][m] / am) for i in range(r)))
        by_root, N = _pairings(rs, s_m)
        vals = tuple(UnityExp(Fraction(by_root[a], N)) for a in simple)
        if any(vals[j] != UnityExp(Fraction(1, am) if j == m else 0)
               for j in range(r)):
            raise InvariantViolation(
                f"{rs.type_str}: s_{m + 1} has simple-root values {vals}")
        cent = reflection_stabilizer(rs, lambda b: by_root[b] == 0)
        if cent.roots != frozenset(b for b in rs.all_roots() if b[m] % am == 0):
            raise InvariantViolation(
                f"{rs.type_str}: the two centralizers of s_{m + 1} differ")
        bm = beta_minimal(rs, m)
        if set(cent.basis) != {a for j, a in enumerate(simple) if j != m} | {bm}:
            raise InvariantViolation(
                f"{rs.type_str}: the centralizer of s_{m + 1} does not have the "
                "off-node simples and beta_m as its basis")
        out.append({
            "m": m + 1,
            "torus": s_m,
            "root_values": vals,
            "centralizer": cent,
            "beta_m": bm,
        })
    return out


# -- the appendix table ------------------------------------------------------

def _appendix_word(letter: str, r: int, m: int):
    """(word, alpha_index), both 1-based, for the row (type, m)."""
    if letter == "A":
        return [], m
    if letter == "B":
        if m == 1:
            return [], 1
        return list(range(m, r + 1)) + list(range(r - 1, m - 1, -1)), m - 1
    if letter == "C":
        return list(range(m, r)), r
    if letter == "D":
        if m in (1, r - 1, r):
            return [], m
        return (list(range(m, r - 1)) + [r] + list(range(r - 1, m, -1)) + [m - 1]), m
    if letter == "F":
        return {1: ([1, 2, 3, 2, 4, 3, 2], 1),
                2: ([2, 3, 2, 1, 4, 3], 2),
                3: ([3, 2, 1, 4, 3], 2),
                4: ([4, 3], 2)}[m]
    if letter == "G":
        return {1: ([1], 2), 2: ([2, 1], 2)}[m]
    if letter == "E" and r == 6:
        return {1: ([], 1),
                2: ([2, 4, 5, 6, 3, 1, 4, 3, 5, 4], 2),
                3: ([3, 1, 4, 5, 2, 4], 3),
                4: ([4, 5, 6, 3, 1, 4, 3, 5, 2], 4),
                5: ([5, 6, 4, 3, 2, 4], 2),
                6: ([], 6)}[m]
    if letter == "E" and r == 7:
        return {1: ([1, 3, 4, 2, 5, 4, 3, 6, 5, 4, 1, 2, 3, 4, 5, 6], 7),
                2: ([2, 4, 5, 6, 3, 1, 4, 3, 5, 4], 2),
                3: ([3, 4, 2, 5, 4, 3, 6, 5, 4, 1, 2, 3, 4, 5, 6], 7),
                4: ([4, 2, 5, 4, 3, 6, 5, 4, 1, 2, 3, 4, 5, 6], 7),
                5: ([5, 4, 3, 6, 5, 4, 1, 2, 3, 4, 5, 6], 7),
                6: ([6, 5, 4, 2, 3, 4, 5, 6], 7),
                7: ([], 7)}[m]
    if letter == "E" and r == 8:
        long_tail = [2, 6, 5, 4, 3, 7, 6, 5, 4, 1, 2, 3, 4, 5, 6, 7]
        return {1: ([1, 3, 4, 2, 5, 4, 3, 6, 5, 4, 1, 2, 3, 4, 5, 6], 7),
                2: ([2, 4, 3, 5, 4] + long_tail, 8),
                3: ([3, 1, 4, 3, 5, 4] + long_tail, 8),
                4: ([4, 2, 3, 1, 4, 3, 5, 4] + long_tail, 8),
                5: ([5, 4, 2, 3, 1, 4, 3, 5, 4] + long_tail, 8),
                6: ([6, 5, 4, 2, 3, 1, 4, 3, 5, 4] + long_tail, 8),
                7: ([7, 6, 5, 4, 2, 3, 1, 4, 3, 5, 4] + long_tail, 8),
                8: ([8, 7, 6, 5, 4, 2, 3, 1, 4, 3, 5, 4] + long_tail, 8)}[m]
    raise UnknownRow(f"no appendix row for {letter}{r}, m={m}")


def verify_appendix_row(type_str: str, m: int) -> dict:
    """Verify one row of the embedded table: the word is reduced, it carries
    alpha^m to beta_m, every inversion has positive alpha_m-coefficient, and
    every inversion is strictly below beta_m, all under Bourbaki numbering
    (the reported convention)."""
    from .rootdata import build_root_system, parse_cartan_type
    comps = parse_cartan_type(type_str)
    if len(comps) != 1:
        raise UnknownRow("appendix rows are per irreducible type")
    letter, r = comps[0]
    if not (1 <= m <= r):
        raise UnknownRow(f"m = {m} out of range for {type_str}")
    rs = build_root_system(type_str)
    word1, alpha1 = _appendix_word(letter, r, m)
    word = [i - 1 for i in word1]
    gammas = inversion_set(rs, word)
    bm = beta_minimal(rs, m - 1)
    images = word_images(rs, word, rs.simple_roots)
    checks = {
        "reduced": (all(rs.is_positive(g) for g in gammas)
                    and len(set(gammas)) == len(gammas)),
        "image": images[alpha1 - 1] == bm,
        "coefficient": all(g[m - 1] > 0 for g in gammas),
        "order": all(rs.leq(g, bm) and g != bm for g in gammas),
        "beta_m": list(bm),
        "inversions": [list(g) for g in gammas],
    }
    ok = all(checks[k] for k in ("reduced", "image", "coefficient", "order"))
    corrected = None
    if not ok and checks["reduced"] and checks["coefficient"] and checks["order"]:
        # only the alpha column can be off; accept the unique simple root the
        # word carries to beta_m and report the correction (E6 m=5 is a
        # known misprint)
        hits = [a for a, image in enumerate(images) if image == bm]
        if len(hits) == 1:
            checks["image"] = ok = True
            corrected = {"stated_alpha": alpha1, "used_alpha": hits[0] + 1}
    return {"type": type_str, "m": m, "ok": ok, "convention": "bourbaki",
            "alpha_corrected": corrected, "checks": checks}


def appendix_rows():
    """All rows of the embedded table (with the sensible minimum ranks)."""
    rows = []
    for r in range(1, 9):
        rows += [(f"A{r}", m) for m in range(1, r + 1)]
    for r in range(2, 9):
        rows += [(f"B{r}", m) for m in range(1, r + 1)]
        rows += [(f"C{r}", m) for m in range(1, r + 1)]
    for r in range(3, 9):
        rows += [(f"D{r}", m) for m in range(1, r + 1)]
    for t, r in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)):
        rows += [(t, m) for m in range(1, r + 1)]
    return rows


# -- simplicity and counts ---------------------------------------------------

def simplicity_necessary(chi: QChar, t: TorusElement) -> dict:
    """Necessary condition for the baby Verma at t to be simple: on every
    irreducible component of Phi' either the unipotent part is regular or
    alpha(t)^2 = eps^{-(2 rho, alpha)} for all alpha in the component basis."""
    rs = chi.rs
    basis = chi.levi.basis
    vals, N = _pairings(rs, t)
    failing = None
    for ci, (letter, n, comp_basis) in enumerate(chi.levi.components):
        comp_indices = {basis.index(b) for b in comp_basis}
        regular = comp_indices <= set(chi.support)
        if regular:
            continue
        ok = True
        for alpha in comp_basis:
            want = eps_pow(-two_rho_dot(rs, alpha), chi.ell, chi.eps)
            if UnityExp(Fraction(2 * vals[alpha], N)) != want:
                ok = False
                break
        if not ok:
            failing = {"component": ci, "type": f"{letter}{n}",
                       "basis": [list(b) for b in comp_basis]}
            break
    return {"holds": failing is None, "failing_component": failing}


def q_regularity_and_counts(chi: QChar, blocks=None, bound=None):
    """Regularity/fully-Azumaya flags, the predicted ell^s unramified count
    (emitted only under the coprimality hypothesis on Phi'), the enumerated
    count, and the structure descriptor for regular characters."""
    rs = chi.rs
    if blocks is None:
        blocks = q_blocks(chi, bound)
    regular = chi.regular
    simple_in_levi = sum(1 for a in rs.simple_roots if a in chi.levi.roots)
    s = rs.rank - simple_in_levi
    index = chi.levi.index_of_connection()
    coprime = math.gcd(chi.ell, index) == 1
    enumerated = sum(1 for b in blocks if b.unramified)
    out = {
        "regular": regular,
        "fullyAzumaya": regular,
        "s": s,
        "coprimalityOK": coprime,
        "index_of_connection": index,
        "unramifiedPredicted": chi.ell**s if coprime else None,
        "unramifiedEnumerated": enumerated,
        "eps": chi.eps,
        "descriptor": None,
    }
    if regular:
        out["descriptor"] = {
            "matrix_size": chi.ell**rs.N,
            "local_dims": sorted(b.dim for b in blocks),
        }
    return out
