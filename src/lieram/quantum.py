"""The root-of-unity side: torsion torus elements, the ell-fiber and its
blocks, quantum unramified criteria in both coordinate systems, exceptional
elements, the embedded appendix table with its four-point verification, the
baby-Verma simplicity necessary condition, and fully-Azumaya bookkeeping.

A torus element is the exponent vector (q_1, ..., q_r): t(K_{varpi_i}) =
e^{2 pi i q_i}, kept as integer numerators over one denominator N and
parsed from, or printed as, exact rationals.  epsilon is the primitive
ell-th root of unity with exponent eps/ell (eps = 1 unless overridden);
every epsilon-dependent output records the choice.

Coordinate systems: baby Verma modules are labelled by highest-weight torus
elements t with t^ell = chi_s; the central character / component label is the
Harish-Chandra shift u of t (hc_shift, forward), and the fiber point of the
block is u^2, living in {f : f^ell = chi_s^2}.  epsilon enters only there:
alpha(u) = alpha(t) eps^{(rho, alpha)}, so alpha(t)^2 = eps^{-(2 rho, alpha)}
is the integer test alpha(u)^2 = 1, and the dot action is the ordinary one
on shifted labels.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import getitem
from types import MappingProxyType

from .errors import (HypothesisFailure, InvalidType, InvariantViolation, NonInvertibleDenominator,
                     UnknownRow, charge)
from .rootdata import (RootSystem, check_cartan_type, classify_basis, degrees, root_system,
                       subsystem_classify)
from .weyl import (
    BlockList,
    BlockRecord,
    Kind,
    UnityExp,
    alcove_descent,
    block_list,
    extended_diagram,
    integer_pairings,
    inversion_set,
    reflection_stabilizer,
    subsystem_index,
    support_indices,
    word_images,
)


def exponent_text(n: int, N: int) -> str:
    """The exponent n/N, n in [0, N), as a reduced rational "a/b", "0/1" for
    n = 0, as str(UnityExp) writes it."""
    g = math.gcd(n, N)
    return f"{n // g}/{N // g}"


class TorusElement:
    """Torsion point of T: t(K_{varpi_i}) = e^{2 pi i nums[i] / N}, with
    nums in [0, N) over the least common denominator N, built from exact
    rationals (any value Fraction takes); `exps` views it as UnityExps."""

    __slots__ = ("nums", "N")

    def __init__(self, exps):
        qs = [Fraction(e) for e in exps]
        self.N = math.lcm(*(q.denominator for q in qs))
        self.nums = tuple(q.numerator * (self.N // q.denominator) % self.N for q in qs)

    @classmethod
    def of(cls, nums, N: int) -> "TorusElement":
        """The point with exponents n / N, n in `nums` (any integers)."""
        g, t = math.gcd(N, *nums), cls.__new__(cls)
        t.nums, t.N = tuple(n % N // g for n in nums), N // g
        return t

    @property
    def exps(self):
        return tuple(UnityExp(Fraction(n, self.N)) for n in self.nums)

    def pow(self, k: int) -> "TorusElement":
        return TorusElement.of([n * k for n in self.nums], self.N)

    def __eq__(self, other):
        return isinstance(other, TorusElement) and (self.nums, self.N) == (other.nums, other.N)

    def __hash__(self):
        return hash((self.nums, self.N))

    def __repr__(self):
        return "t(" + ",".join(self.texts()) + ")"

    def texts(self):
        """The exponents as reduced rationals, "2/5"."""
        return [exponent_text(n, self.N) for n in self.nums]


def _pairings(rs: RootSystem, t: TorusElement):
    """beta(t) for every positive root beta as the numerator of its exponent
    over t's denominator N, so beta(t) = 1 iff it is 0: (dict root ->
    numerator mod N, N).  ValueError unless t has one exponent per simple
    root: QChar, w_t and every criterion come through here."""
    if len(t.nums) != rs.rank:
        raise ValueError(f"{len(t.nums)} exponents given for rank {rs.rank}")
    return dict(zip(rs.pos_roots, integer_pairings(rs, "torus", t.N)(t.nums))), t.N


def w_t(rs: RootSystem, t: TorusElement):
    """The classified subsystem Phi_t = {beta : beta(t) = 1}; W(Phi_t) =
    <s_beta : beta(t) = 1>."""
    vals, _N = _pairings(rs, t)
    return reflection_stabilizer(rs, lambda b: vals[b] == 0)


@functools.lru_cache(maxsize=None)
def check_root_of_unity(comps, ell: int, eps: int):
    """The standing hypotheses on ell and epsilon for the Cartan type with
    components `comps` (what check_cartan_type returns, or RootSystem.ctype):
    ell odd and >= 3, prime to 3 when a G2 component is present, and eps
    coprime to ell.  A pass is kept for the process; a refusal is raised
    again on every call."""
    if ell % 2 == 0 or ell < 3:
        raise HypothesisFailure(f"ell = {ell} must be odd and >= 3")
    if any(l == "G" for l, _n in comps) and ell % 3 == 0:
        raise HypothesisFailure(
            f"ell = {ell} must be prime to 3 for G2 components")
    if math.gcd(eps, ell) != 1:
        raise HypothesisFailure(f"eps = {eps} must be coprime to ell")


class QChar:
    """chi = chi_u chi_s with chi_s a torsion torus element and unipotent
    support a subset of the basis of Phi' = {beta : beta(chi_s^2) = 1}."""

    def __init__(self, rs, ell, chi_s=None, support=(), eps=1):
        check_root_of_unity(rs.ctype, ell, eps)
        self.rs = rs
        self.ell = ell
        self.eps = eps
        if chi_s is None:
            chi_s = TorusElement.of((0,) * rs.rank, 1)
        self.chi_s = chi_s
        self.levi = w_t(rs, chi_s.pow(2))
        self.support = support_indices(self.levi, support)

    @property
    def regular(self) -> bool:
        return set(self.support) == set(range(len(self.levi.basis)))

    def __repr__(self):
        return (f"QChar({self.rs.type_str}, ell={self.ell}, "
                f"chi_s={self.chi_s!r}, S={self.support})")


class QBlockKind(Kind):
    """What a quantum block's point stabiliser fixes, given Phi': the
    stabiliser, dim = [W(Phi') : W(stabilizer)], the exceptional flag (the
    stabiliser has full rank) and the type of Phi'.  Built by _kind."""

    __slots__ = ("stabilizer", "dim", "exceptional", "stab_fiber_type")


@functools.cache
def _kind(stab, levi):
    # once per (point stabiliser, Phi') in the process; a kind whose
    # construction raises is not kept
    return QBlockKind(stab, subsystem_index(stab, levi), stab.rank == stab.rs.rank,
                      levi.type_str)


class QBlockReport(BlockRecord, kind=QBlockKind):
    """Per-block record: the block's fiber point, orbit size, and the kind
    of its point stabiliser (QBlockKind), through which it reads its
    dimension, unramified and exceptional flags and stabilizer types.

    The point is kept as the numerators of its exponents over one common
    denominator N, each in [0, N), and as their reduced texts "n/N" (torus);
    rep is built on access."""

    __slots__ = ()
    FIELDS = ("numerators", "N", "torus", "orbit_size", "kind")

    @property
    def rep(self):
        return TorusElement.of(self.numerators, self.N)

    def to_dict(self):
        return {"torus": list(self.torus), "orbit_size": self.orbit_size, "dim": self.dim,
                "unramified": self.unramified, "exceptional": self.exceptional,
                "stabilizer_types": {"point": self.stab_point_type, "fiber": self.stab_fiber_type}}


@functools.cache
def _axis(c, D, ell):
    # a read-only table of the text of each numerator n over N = ell D of
    # the ell values of t_i, t_i^ell = e^(2 pi i c / D), listed in the order
    # of their reduced exponents (n/g, N/g), g = gcd(n, N); once per (c, D,
    # ell) in the process
    N = ell * D
    return MappingProxyType({n: exponent_text(n, N) for n in sorted(
        ((c + d * D) % N for d in range(ell)),
        key=lambda n: (n // math.gcd(n, N), N // math.gcd(n, N)))})


def q_blocks(chi: QChar, bound=None):
    """Blocks of the quantized algebra at chi: the partition of the fiber
    {t : t^ell = chi_s^2} under the ordinary action of Stab_W(chi_s^2), as
    a BlockList of QBlockReports with the table "torus" of each
    coordinate's exponent texts by numerator; dimD is the index [W(t^ell) :
    W(t)] of classified subsystem orders.
    BoundExceeded when the ell^r fiber points exceed `bound` (the "points"
    check of errors.BOUNDS); they are counted before any is listed and
    before the walk memo is read.
    The list depends on chi only through its walk (weyl.block_list: rs,
    Phi', N and the fiber's axes, whose texts are its table), not on the
    support nor on eps, so it is kept on its walk: a repeated chi_s, or
    another of the same fiber, returns the same read-only list."""
    rs, levi, ell = chi.rs, chi.levi, chi.ell
    charge("points", bound, ell ** rs.rank)
    # the fiber as exponent numerators over N = ell D, D the denominator of
    # chi_s: t_i = (2 q_i + d) / ell, and 2 q_i D = c_i
    D, N = chi.chi_s.N, ell * chi.chi_s.N
    texts = tuple(_axis(2 * n, D, ell) for n in chi.chi_s.nums)

    def make(walked):
        # only roots of Phi' can vanish on t, as beta(t)^ell =
        # beta(chi_s^2); InvariantViolation unless the first t agrees
        first = integer_pairings(rs, "torus", N)(walked[0][0])
        if any(not v and b not in levi.roots for b, v in zip(rs.pos_roots, first)):
            raise InvariantViolation("a root outside Phi' vanishes on a fiber point")
        return BlockList(walked, lambda sub: _kind(sub, levi), {"torus": texts},
                         lambda x, size, kind: QBlockReport(x, N, tuple(map(getitem, texts, x)),
                                                            size, kind))
    # W acts by integer matrices, so orbits stay on (1/N)Z^r
    return block_list(rs, levi, "torus", N, texts, (), make)


def eps_pow(q, ell: int, eps: int = 1) -> Fraction:
    """epsilon^q for rational q whose denominator is invertible mod ell.

    epsilon is the primitive ell-th root of unity with exponent eps/ell
    (eps = 1 unless overridden; gcd(eps, ell) must be 1).  The result is the
    exponent in [0, 1), with denominator dividing ell, of the unique ell-th
    root of unity u with u^denominator = epsilon^numerator.
    """
    q = q if type(q) is Fraction else Fraction(q)
    num, den = q.numerator, q.denominator
    if math.gcd(den, ell) != 1:
        raise NonInvertibleDenominator(f"denominator {den} not invertible mod {ell}")
    if math.gcd(eps, ell) != 1:
        raise NonInvertibleDenominator(f"eps exponent {eps} not coprime to {ell}")
    return Fraction(num * pow(den % ell, -1, ell) * eps % ell, ell)


@functools.cache
def _shifts(rs: RootSystem, ell: int, eps: int):
    """The numerators over ell of the shifts of hc_shift: eps_pow of each
    (rho, varpi_i) has a denominator dividing ell.  A refusal is not kept."""
    return tuple(int(eps_pow(q, ell, eps) * ell) for q in rs.rho_weight_pairs)


def hc_shift(rs: RootSystem, t: TorusElement, ell: int, direction: str = "forward",
             eps: int = 1) -> TorusElement:
    """Coordinate change between baby-Verma highest weights and component
    labels: coordinate i shifts by eps^(rho, varpi_i).  Forward (highest
    weight -> component) adds the shift; "back" removes it; round trip is the
    identity, and the dot action on highest-weight labels is the conjugate of
    the ordinary action by this map.  The shifts are kept per (rs, ell,
    eps) by _shifts; a shift eps_pow refuses is refused again on every
    call.

    HypothesisFailure, as QChar, unless ell and eps meet the standing
    hypotheses (check_root_of_unity), before anything else is read."""
    check_root_of_unity(rs.ctype, ell, eps)
    sign = {"forward": 1, "back": -1}.get(direction)
    if sign is None:
        raise ValueError(f"unknown direction {direction!r}")
    if len(t.nums) != rs.rank:  # before zip would cut it short
        raise ValueError(f"{len(t.nums)} exponents given for rank {rs.rank}")
    shifts = _shifts(rs, ell, eps)
    N = math.lcm(t.N, ell)
    a, b = N // t.N, sign * (N // ell)
    return TorusElement.of([n * a + k * b for n, k in zip(t.nums, shifts)], N)


@functools.cache
def _span_count(rs: RootSystem, J) -> int:
    """|Phi inter ZJ| for a tuple J of Delta-tilde nodes, a proper subset on
    each component: J is a simple system of Phi inter ZJ, the roots integral
    at a point of the alcove whose Kac coordinates vanish on J alone (Kac,
    Infinite-Dimensional Lie Algebras, Ch. 8), so it holds twice the
    positive roots of J's classified type.  Kept per (root system, J)."""
    return 2 * sum(d - 1 for d in degrees(classify_basis(rs, J)))


def _integral_nodes(rs: RootSystem, word, kac, N: int, sat):
    """The Delta-tilde nodes a whose Kac coordinate (a numerator over N, in
    [0, N]) is 0 mod N, the nodes integral on the alcove point, mapped back
    by w^-1 for the word of w and each written as the positive root +-w^-1 a.
    `sat` is the set of positive saturated roots.  InvariantViolation unless
    each image lies in `sat` and |Phi inter ZJ| = 2 |sat| for the nodes J of
    Kac coordinate exactly 0.  Saturation is integrality on a lattice, so
    w^-1 J inside +-sat puts w^-1 (Phi inter ZJ) inside +-sat, and equal
    counts make w^-1 J a simple system of the saturated roots."""
    dt = extended_diagram(rs).delta_tilde
    ext = [(a, s) for c, ((_l, _n, ids), coords) in enumerate(zip(rs.components, kac))
           for a, s in zip((dt[rs.rank + c], *map(dt.__getitem__, ids)), coords)]
    images = [b if rs.is_positive(b) else tuple(-x for x in b)
              for b in word_images(rs, word[::-1], [a for a, s in ext if s % N == 0])]
    if (not all(b in sat for b in images)
            or _span_count(rs, tuple(a for a, s in ext if s == 0)) != 2 * len(sat)):
        raise InvariantViolation(f"the integral Kac nodes of {rs.type_str} do not map "
                                 "to a simple system of the saturated roots")
    return images


def _unramified_at(values, N: int, ell: int) -> bool:
    """beta^{2 ell} = 1 implies beta^2 = 1 for every root beta, given by the
    numerators over N of the exponents of its values."""
    return not any(2 * ell * v % N == 0 and 2 * v % N for v in values)


def q_unramified(rs: RootSystem, point: TorusElement, coords: str, ell: int,
                 eps: int = 1) -> bool:
    """Quantum unramified criterion.

    coords="component": the robust all-roots test on the shifted label u
    (u^2 is the fiber point): beta(u)^{2 ell} = 1 implies beta(u)^2 = 1 for
    every positive root.

    coords="highestWeight": the Delta-tilde test on a baby-Verma label t,
    after W-(dot-)conjugating so that {beta : beta(t)^{2 ell} = 1} has a
    simple system inside Delta union {-alpha_0}: alpha(t)^{2 ell} = 1 implies
    alpha(t)^2 = eps^{-(2 rho, alpha)}.  At u = hc_shift(t) this is the
    component test on Delta-tilde at w u, the ordinary action.  The
    conjugating w comes from the alcove descent of 2 ell u (2 ell t plus an
    even vector) as a word.  The nodes a with a(w u)^{2 ell} = 1 are those
    with Kac coordinate 0 mod N; the word maps only them back, and a(w u) =
    (w^-1 a)(u): the test reads them off the one table of u, and no point is
    moved.  _integral_nodes checks that each w^-1 a is a saturated root up
    to sign and that the nodes of Kac coordinate 0 span as many roots as
    are saturated, which makes them a simple system of the conjugated set.

    HypothesisFailure, as QChar, unless ell and eps meet the standing
    hypotheses (check_root_of_unity).
    """
    check_root_of_unity(rs.ctype, ell, eps)
    if coords == "component":
        vals, N = _pairings(rs, point)
        return _unramified_at(vals.values(), N, ell)
    if coords != "highestWeight":
        raise ValueError(f"unknown coords {coords!r}")
    u = hc_shift(rs, point, ell, "forward", eps)
    vals, N = _pairings(rs, u)
    sat = {b for b, v in vals.items() if 2 * ell * v % N == 0}
    word, kac = alcove_descent(rs, [2 * ell * n for n in u.nums], N)
    # w^-1 a is +-b for a saturated b, and (-b)(u) = b(u)^-1 passes the test with b(u)
    return _unramified_at([vals[b] for b in _integral_nodes(rs, word, kac, N, sat)], N, ell)


# -- exceptional elements ----------------------------------------------------

def beta_minimal(rs: RootSystem, m: int):
    """The minimal positive root whose alpha_m-coefficient (0-based m) equals
    the highest-root coefficient a_m; it must be unique, so it is the
    candidate of least height, below every other candidate."""
    am = rs.a[m]
    cands = [b for b in rs.pos_roots if b[m] == am]
    if not all(rs.leq(cands[0], c) for c in cands):
        raise InvariantViolation(
            f"{rs.type_str}: no unique minimal root with coefficient {am} at "
            f"node {m + 1}")
    return cands[0]


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
        "torus": TorusElement.of((0,) * r, 1),
        "centralizer": subsystem_classify(rs, rs.all_roots()),
        "beta_m": None,
    }]
    simple = rs.simple_roots
    X = rs.fundamental_weights
    for m in range(r):
        am = rs.a[m]
        D = math.lcm(*(X[i][m].denominator for i in range(r)))
        s_m = TorusElement.of([x[m].numerator * (D // x[m].denominator) for x in X], am * D)
        by_root, N = _pairings(rs, s_m)
        vals = [by_root[a] for a in simple]
        # v / N = delta_jm / a_m mod 1
        if any((v * am - N * (j == m)) % (N * am) for j, v in enumerate(vals)):
            raise InvariantViolation(
                f"{rs.type_str}: s_{m + 1} has simple-root values {vals} over {N}")
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
    comps = check_cartan_type(type_str)
    if len(comps) != 1:
        raise UnknownRow("appendix rows are per irreducible type")
    letter, r = comps[0]
    if not (1 <= m <= r):
        raise UnknownRow(f"m = {m} out of range for {type_str}")
    rs = root_system(comps)
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
    alpha(t)^2 = eps^{-(2 rho, alpha)}, i.e. alpha(u)^2 = 1 at u = hc_shift(t),
    for all alpha in the component basis."""
    basis = chi.levi.basis
    vals, N = _pairings(chi.rs, hc_shift(chi.rs, t, chi.ell, "forward", chi.eps))
    failing = None
    for ci, (letter, n, comp_basis) in enumerate(chi.levi.components):
        regular = {basis.index(b) for b in comp_basis} <= set(chi.support)
        if not regular and any(2 * vals[alpha] % N for alpha in comp_basis):
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
    s = rs.rank - sum(1 for a in rs.simple_roots if a in chi.levi.roots)
    index = chi.levi.index_of_connection()
    coprime = math.gcd(chi.ell, index) == 1
    return {"regular": regular, "fullyAzumaya": regular, "s": s, "coprimalityOK": coprime,
            "index_of_connection": index, "unramifiedPredicted": chi.ell**s if coprime else None,
            "unramifiedEnumerated": blocks.dims[1], "eps": chi.eps,
            "descriptor": {"matrix_size": chi.ell**rs.N,
                           "local_dims": blocks.local_dims} if regular else None}
