"""Weyl group words and actions, stabilizers, cosets and orbit machinery.

In production a Weyl element is its word: (i1, ..., ik) stands for w =
s_{i1} ... s_{ik}, and w acts letter by letter, the last letter first,
through the root data.  On roots the letters act by RootSystem.reflect
(word_images, inversion_set); on torus exponents by the rank-one maps of
integer_actions on the numerators over a common denominator (act_torus, the
quantum dot action: the ordinary one conjugated by the Harish-Chandra
shift).  The alcove descent returns the word of its finite part.

WeylElement stores an element as the integer matrix of its action on
simple-root coordinates with the inverse matrix (equality is matrix
equality), and enumerate_group lists W by closure.  No production path
builds one: they serve the oracles in lieram.selftest, whose word_element is
the matrix route for a word, and perfbench, which binds them by name.  Their
actions on raw coordinate tuples:
  * roots            beta -> w(beta)                 (coefficient vectors)
  * coroot values    lambda(h_i) -> (w lambda)(h_i)  (any coefficient ring)
  * torus exponents  t(K_{varpi_i}) -> (w t)(K_{varpi_i})

Block partitions walk orbits on flat integer encodings instead, and build no
element: torus exponents as numerators mod a common denominator N, coroot
values over F_{p^e} as e coefficients mod p each.  A block is an orbit of
Stab_W(chi) = W(Phi') on the point set of chi, generated by the reflections
s_beta, beta in the basis of Phi' (check_stabilizer checks that they
generate all of Stab_W(chi)); so the walk visits each point of the set once
and reaches no point outside it (orbit_partition raises if it does).  Each
axis of the set is listed in the order of its sort key, so a block is met
first at its least point and keeps that point and its size.  A reflection is
the rank-one map x -> x - <x, beta> v_beta (integer_actions), read off the
coroot and root-value tables of the root system, which integer_pairings
reads too.
Both sides take their blocks from one walk, block_orbits: mod_blocks on the
constant terms of eta (width 1), q_blocks on the numerators over N; width e
remains for chi's own orbit and for the pairings of a single weight.  A
block's stabiliser lies in W(Phi'), so block_orbits pairs only the roots of
Phi' with it, once per distinct set of vanishing roots.  The reports of
both sides are BlockRecords.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import BoundExceeded, InvalidSupport, InvariantViolation
from .rootdata import RootSystem, subsystem_classify
from .scalars import UnityExp, eps_pow

DEFAULT_GROUP_BOUND = 10**6


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement:
    __slots__ = ("rs", "M", "Minv", "word", "_length", "_vrows", "_trows")

    def __init__(self, rs, M, Minv, word):
        self.rs = rs
        self.M = M
        self.Minv = Minv
        self.word = word
        self._length = None
        self._vrows = None
        self._trows = None

    def apply_root(self, b):
        M = self.M
        r = self.rs.rank
        return tuple(sum(M[i][j] * b[j] for j in range(r)) for i in range(r))

    def apply_root_inv(self, b):
        M = self.Minv
        r = self.rs.rank
        return tuple(sum(M[i][j] * b[j] for j in range(r)) for i in range(r))

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = sum(
                1 for b in self.rs.pos_roots if min(self.apply_root(b)) < 0
            )
        return self._length

    def inverse(self):
        return WeylElement(self.rs, self.Minv, self.M, tuple(reversed(self.word)))

    def __mul__(self, other):
        return WeylElement(
            self.rs,
            _matmul(self.M, other.M),
            _matmul(other.Minv, self.Minv),
            self.word + other.word,
        )

    def _value_rows(self):
        # row i = coroot coefficients of w^{-1}(alpha_i)
        if self._vrows is None:
            r = self.rs.rank
            self._vrows = tuple(
                self.rs.coroot(tuple(self.Minv[k][i] for k in range(r)))
                for i in range(r)
            )
        return self._vrows

    def act_values(self, values):
        """(w lambda)(h_i) from lambda's values on the basis coroots."""
        rows = self._value_rows()
        out = []
        for row in rows:
            acc = None
            for c, v in zip(row, values):
                term = v * c
                acc = term if acc is None else acc + term
            out.append(acc)
        return tuple(out)

    def _torus_rows(self):
        # row i, column j = coroot coefficients of w(alpha_j), coordinate i
        if self._trows is None:
            r = self.rs.rank
            cols = [self.rs.coroot(tuple(self.M[k][j] for k in range(r)))
                    for j in range(r)]
            self._trows = tuple(tuple(cols[j][i] for j in range(r))
                                for i in range(r))
        return self._trows

    def act_torus_exponents(self, qs):
        """(w t)(K_{varpi_i}) = t(K_{w^{-1} varpi_i}) on exponent vectors."""
        rows = self._torus_rows()
        return tuple(
            UnityExp(sum(Fraction(c) * q.q for c, q in zip(row, qs)))
            for row in rows
        )

    def is_identity(self):
        return self.M == _identity_matrix(self.rs.rank)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.M == other.M

    def __hash__(self):
        return hash(self.M)

    def __repr__(self):
        w = "".join(f"s{i + 1}" for i in self.word) if self.word else "e"
        return f"W[{w}]"


def identity(rs: RootSystem) -> WeylElement:
    m = _identity_matrix(rs.rank)
    return WeylElement(rs, m, m, ())


def simple_reflection(rs: RootSystem, j: int) -> WeylElement:
    """s_j (0-based index)."""
    r = rs.rank
    rows = []
    for k in range(r):
        if k != j:
            rows.append(tuple(1 if i == k else 0 for i in range(r)))
        else:
            rows.append(tuple((1 if i == j else 0) - rs.cartan[j][i] for i in range(r)))
    m = tuple(rows)
    return WeylElement(rs, m, m, (j,))


def _word_for_reflection(rs, beta):
    # s_beta = w s_i w^{-1} via descent: peel simple reflections off beta
    b = beta if rs.is_positive(beta) else tuple(-c for c in beta)
    prefix = []
    while True:
        if sum(b) == 1:
            i = b.index(1)
            return tuple(prefix) + (i,) + tuple(reversed(prefix))
        for i in range(rs.rank):
            pairing = sum(rs.cartan[i][j] * b[j] for j in range(rs.rank))
            if pairing > 0 and b != rs.simple_roots[i]:
                nb = rs.reflect(i, b)
                if rs.is_positive(nb) and sum(nb) < sum(b):
                    prefix.append(i)
                    b = nb
                    break
        else:
            raise InvariantViolation(f"no descent step from the root {b}")


def alcove_descent(rs: RootSystem, x):
    """Carry a rational point into the closed fundamental alcove.

    x lists coroot coordinates (x = sum_i x_i alpha_i^vee, so alpha_j(x) =
    sum_i C[i][j] x_i).  The point is first reduced mod Q^vee into [0, 1)^r;
    then s_j is applied while alpha_j(x) < 0, and the affine reflection s_0
    of a component (in the hyperplane theta = 1) while theta(x) > 1.
    Returns (word, kac): the word (i1, ..., ik) of the finite part w =
    s_{i1} ... s_{ik} of the affine Weyl element used, so x' = w x + (an
    element of Q^vee) lies in the alcove, and kac holds per
    component (s_0, s_j for the component's nodes) with s_j = alpha_j(x') and
    s_0 = 1 - theta(x').  Borel-de Siebenthal (Kac, Infinite-Dimensional Lie
    Algebras, Ch. 8): the roots integral on x' have as a simple system the
    Delta-tilde nodes with Kac coordinate 0, -theta standing for s_0.
    """
    r = rs.rank
    C = rs.cartan
    x = [Fraction(v) for v in x]
    # integer numerators over the common denominator D keep each step exact
    D = math.lcm(*(v.denominator for v in x))
    n = [(v.numerator * (D // v.denominator)) % D for v in x]
    thetas = [(theta, rs.coroot(theta), _word_for_reflection(rs, theta))
              for theta in map(rs.highest_root, range(len(rs.components)))]
    letters = []  # simple reflections in the order applied
    while True:
        v = [sum(C[i][j] * n[i] for i in range(r)) for j in range(r)]  # D alpha_j(x)
        j = next((j for j in range(r) if v[j] < 0), None)
        if j is not None:
            n[j] -= v[j]
            letters.append(j)
            continue
        over = [(k, coroot, word) for theta, coroot, word in thetas
                if (k := _dot(theta, v) - D) > 0]
        if not over:
            break
        k, coroot, word = over[0]
        n = [a - k * c for a, c in zip(n, coroot)]
        letters.extend(word)  # the finite part of s_0 is s_theta
    kac = tuple((Fraction(D - _dot(theta, v), D),) + tuple(Fraction(v[j], D) for j in nodes)
                for (theta, _c, _w), (_l, _n, nodes) in zip(thetas, rs.components))
    return tuple(letters[::-1]), kac


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def word_images(rs: RootSystem, word, roots):
    """w(beta) for each beta in `roots`, in order, w = s_{i1} ... s_{ik} for
    the word (i1, ..., ik): the letters act by rs.reflect, the last first."""
    out = []
    for b in roots:
        for i in reversed(word):
            b = rs.reflect(i, b)
        out.append(b)
    return out


def inversion_set(rs: RootSystem, word):
    """gamma_k = s_{i1}...s_{i(k-1)}(alpha_{ik}) for k = 1..len(word).

    The word is reduced iff all gamma_k are positive and pairwise distinct;
    the set then equals Phi+ inter w(Phi-).
    """
    return [word_images(rs, word[:k], [rs.simple_roots[i]])[0]
            for k, i in enumerate(word)]


def generated_group(rs: RootSystem, gens, order: int, type_str: str,
                    bound: int = DEFAULT_GROUP_BOUND):
    """The elements of the group generated by the Weyl elements `gens`, of
    the classified order `order` (type `type_str`), by breadth-first closure,
    sorted by (length, word).  BoundExceeded when the order exceeds the
    bound; InvariantViolation unless the closure has exactly `order`
    elements."""
    if order > bound:
        raise BoundExceeded(f"|W({type_str})| = {order} exceeds bound {bound}")
    seen = orbit_of(identity(rs), [g.__mul__ for g in gens])
    if len(seen) != order:
        raise InvariantViolation(
            f"closure of the generators has {len(seen)} elements, "
            f"|W({type_str})| = {order}")
    return tuple(sorted(seen, key=lambda w: (w.length, w.word)))


def enumerate_group(rs: RootSystem, bound: int = DEFAULT_GROUP_BOUND):
    """All Weyl group elements by breadth-first closure over the generators."""
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    return generated_group(rs, gens, rs.weyl_order(), rs.type_str, bound)


def hc_shift_vector(rs: RootSystem, ell: int, eps: int = 1):
    """Exponent shift between baby-Verma and component torus coordinates.

    Coordinate i shifts by eps_pow((rho, varpi_i), ell); the forward direction
    (highest-weight label to component label) adds it.
    """
    return tuple(eps_pow(q, ell, eps) for q in rs.rho_weight_pairs())


def act_torus(rs: RootSystem, word, qs, ell: int, eps: int = 1):
    """The dot action of w = s_{i1} ... s_{ik}, the word (i1, ..., ik), on
    torus exponent vectors: the ordinary action conjugated by the
    Harish-Chandra shift.  The letters act, the last first, as the rank-one
    maps of integer_actions on the numerators over a common denominator."""
    shift = hc_shift_vector(rs, ell, eps)
    shifted = [(q + s).q for q, s in zip(qs, shift)]
    N = math.lcm(*(q.denominator for q in shifted))
    x = tuple(q.numerator * (N // q.denominator) for q in shifted)
    letters = integer_actions(rs, rs.simple_roots, "torus", N)
    for i in reversed(word):
        x = letters[i](x)
    return tuple(UnityExp(Fraction(n, N)) - s for n, s in zip(x, shift))


def integer_actions(rs: RootSystem, roots, on: str, modulus: int, width: int = 1):
    """The reflections s_beta, beta in `roots`, as maps on flat integer tuples.

    on="values": a point lists lambda(h_1), ..., lambda(h_r), each as `width`
    coefficients mod `modulus` (= p), and s_beta lambda = lambda -
    lambda(h_beta) beta; on="torus": a point lists the exponent numerators of
    a torus element over the common denominator `modulus`, and s_beta t =
    t - beta(t) beta^vee.  Each map is rank one, x -> x - <x, beta> v_beta in
    every coefficient slot: the pairing row is the one integer_pairings reads
    (beta^vee on values, beta(h_i) on exponents) and v_beta is the other
    (beta(h_i) on values, beta^vee on exponents).  A point with pairing 0 is
    returned as it is.
    """
    roots = tuple(roots)
    other = "torus" if on == "values" else "values"
    maps = []
    for pairs, moves in zip(_pairing_terms(rs, roots, on, width),
                            _pairing_terms(rs, roots, other, width)):
        slots = tuple((tuple((k + t, c) for k, c in pairs),
                       tuple((k + t, c) for k, c in moves)) for t in range(width))
        maps.append(_reflection(slots, modulus))
    return maps


def _reflection(slots, modulus):
    # slots: per coefficient slot, the (index, coefficient) terms of the
    # pairing and of v_beta; slots are disjoint, so each reads the input
    def act(x):
        y = None
        for pairs, moves in slots:
            a = 0
            for k, c in pairs:
                a += c * x[k]
            if a % modulus:
                if y is None:
                    y = list(x)
                for k, c in moves:
                    y[k] = (x[k] - a * c) % modulus
        return x if y is None else tuple(y)
    return act


def integer_pairings(rs: RootSystem, on: str, modulus: int, width: int = 1,
                     roots=None):
    """The values of the positive roots `roots` (default rs.pos_roots) on a
    flat integer point, as a map from the point to one value per root, in
    the order of `roots`.

    on="torus": a point lists exponent numerators n_i over the common
    denominator `modulus`; the value of beta is sum_i beta(h_i) n_i mod
    `modulus`, the numerator of beta(t)'s exponent, so beta(t) = 1 iff it is 0.
    on="values": a point lists eta(h_1), ..., eta(h_r) as `width` coefficients
    mod p (= `modulus`) each; the value of beta is the coefficient tuple of
    eta(h_beta), slot t being sum_i beta^vee_i eta_{i,t} mod p.  It is zero iff
    every slot is 0, and lies in F_p iff slots 1..width-1 are 0.
    """
    terms = _pairing_terms(rs, rs.pos_roots if roots is None else tuple(roots),
                           on, width)
    if on == "torus":
        return lambda x: tuple(sum(c * x[k] for k, c in ts) % modulus for ts in terms)
    return lambda x: tuple(
        tuple(sum(c * x[k + t] for k, c in ts) % modulus for t in range(width))
        for ts in terms)


@functools.lru_cache(maxsize=None)
def _pairing_terms(rs, roots, on, width):
    # per root, the (slot offset, coefficient) pairs of its row: beta(h_i)
    # for exponents, the coroot coefficients beta^vee_i for values
    if on == "torus":
        rows = map(rs.value_vec, roots)
    elif on == "values":
        rows = map(rs.coroot, roots)
    else:
        raise ValueError(f"unknown encoding {on!r}")
    return tuple(tuple((i * width, c) for i, c in enumerate(row) if c) for row in rows)


def reflection_stabilizer(rs: RootSystem, predicate):
    """The classified subsystem {beta : predicate(beta)}, read on the
    positive roots; its Weyl group is <s_beta : predicate(beta)>."""
    sat = [b for b in rs.pos_roots if predicate(b)]
    return subsystem_classify(rs, sat + [tuple(-c for c in b) for b in sat])


def subsystem_index(sub, big) -> int:
    """[W(big) : W(sub)] from the orders of two classified subsystems;
    InvariantViolation unless |W(sub)| divides |W(big)|."""
    if big.order % sub.order:
        raise InvariantViolation(
            f"|W({sub.type_str})| does not divide |W({big.type_str})|")
    return big.order // sub.order


def support_indices(levi, support):
    """A unipotent support as sorted distinct 0-based indices into the basis
    of the classified subsystem `levi` (Phi'); InvalidSupport, quoting the
    index 1-based, when one lies outside it."""
    support = tuple(sorted(set(support)))
    for s in support:
        if not (0 <= s < len(levi.basis)):
            raise InvalidSupport(
                f"support index {s + 1} outside the basis of Phi' "
                f"(rank {len(levi.basis)}, indices from 1)")
    return support


def check_stabilizer(rs: RootSystem, levi, chi_code, on: str, modulus: int,
                     set_size: int, bound=None):
    """Check that the reflections of the basis of Phi' = `levi` generate
    Stab_W(chi): the group whose orbits on the point set of chi (Lambda_chi,
    or the fiber over chi_s^2) are the blocks, since w moves a point of the
    set into it iff w chi = chi.

    W(Phi') always fixes chi; that it is all of Stab_W(chi) is expected under
    the standing hypotheses (Steinberg, Torsion in reductive groups; on the
    quantum side the torus is simply connected) and checked here: chi's own
    encoding `chi_code` (on, modulus as for integer_actions, its width the
    length over the rank) is walked under the simple reflections, and
    InvariantViolation is raised unless |W.chi| |W(Phi')| = |W|.
    BoundExceeded when the `set_size` points of the set and the |W|/|W(Phi')|
    of chi's orbit exceed `bound` (default DEFAULT_GROUP_BOUND)."""
    bound = DEFAULT_GROUP_BOUND if bound is None else bound
    orbit_size = rs.weyl_order() // levi.order
    if set_size + orbit_size > bound:
        raise BoundExceeded(
            f"{set_size + orbit_size} points to walk ({set_size} in the block "
            f"set, {orbit_size} in the W-orbit of chi) exceeds bound {bound}")
    orbit = orbit_of(chi_code, integer_actions(rs, rs.simple_roots, on, modulus,
                                               len(chi_code) // rs.rank))
    if len(orbit) * levi.order != rs.weyl_order():
        raise InvariantViolation(
            f"|W.chi| = {len(orbit)} times |W({levi.type_str})| = {levi.order} "
            f"is not |W| = {rs.weyl_order()}: Stab_W(chi) is not W(Phi')")


def block_orbits(rs: RootSystem, levi, on: str, modulus: int, axes, chi_code,
                 bound=None):
    """The blocks at chi, after check_stabilizer on `chi_code`: the orbits of
    W(Phi'), Phi' = `levi`, on the points itertools.product(*axes) (encoded
    as for integer_pairings with width 1, each axis in the order of its sort
    key), each as (least point, orbit size, sub, [W(Phi') : W(sub)]), sub the
    classified subsystem of the roots vanishing on the point.  Only roots of
    Phi' can vanish on a point of the set (see mod_blocks, q_blocks), so only
    they are paired, and each distinct set of vanishing roots is classified
    once."""
    check_stabilizer(rs, levi, chi_code, on, modulus, math.prod(map(len, axes)), bound)
    orbits = orbit_partition(itertools.product(*axes),
                             integer_actions(rs, levi.basis, on, modulus))
    roots = tuple(b for b in rs.pos_roots if b in levi.roots)
    pairings = integer_pairings(rs, on, modulus, roots=roots)
    zero = 0 if on == "torus" else (0,)

    @functools.cache
    def classify(sat):
        sub = reflection_stabilizer(rs, frozenset(sat).__contains__)
        return sub, subsystem_index(sub, levi)
    return [(x, size, *classify(tuple(b for b, v in zip(roots, pairings(x)) if v == zero)))
            for x, size in orbits]


class BlockRecord:
    """What the block reports of both sides share.  A report's fields are
    its class's __slots__, all given as keywords.  `stabilizer` is the
    classified subsystem of the roots vanishing on the block's point; it
    fixes every to_dict field but those its class names in VARYING (sorted
    keys), and varying_items() gives a hashable per item of their values,
    in order, each element of a list value an item (see cli._json_pieces)."""

    __slots__ = ()

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def unramified(self):
        return self.dim == 1

    @property
    def stab_point_type(self):
        return self.stabilizer.type_str


def orbit_of(point, gen_actions):
    """Full orbit of a point under the group generated by the given actions."""
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for act in gen_actions:
                y = act(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def orbit_partition(points, gen_actions):
    """The orbits of the group generated by `gen_actions` on `points`, as
    (first point met, orbit size) in the order met: walked in key order, each
    orbit's least point, the orbits sorted.  InvariantViolation when a walk
    leaves `points`: the orbit sizes then sum past the number of points."""
    seen = set()
    orbits = []
    count = 0
    for count, x in enumerate(points, 1):
        if x not in seen:
            orbit = orbit_of(x, gen_actions)
            seen |= orbit
            orbits.append((x, len(orbit)))
    if sum(size for _x, size in orbits) != count:
        raise InvariantViolation(
            f"the orbit sizes do not sum to the {count} points of the set: a walk left it")
    return orbits
