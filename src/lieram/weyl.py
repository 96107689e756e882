"""Weyl group elements, actions, stabilizers, cosets and orbit machinery.

An element is stored as the integer matrix of its action on simple-root
coordinates together with the inverse matrix; words are kept for display and
are not canonicalized (equality is matrix equality).

Actions implemented on raw coordinate tuples:
  * roots            beta -> w(beta)                 (coefficient vectors)
  * coroot values    lambda(h_i) -> (w lambda)(h_i)  (any coefficient ring)
  * torus exponents  t(K_{varpi_i}) -> (w t)(K_{varpi_i})

The quantum dot action is the ordinary one conjugated by the Harish-Chandra
shift; see act_torus.

Block partitions walk orbits on flat integer encodings instead (see
integer_actions), and stabilisers read every root's value off the same
encodings (integer_pairings): coroot values over F_{p^e} as r*e coefficients
mod p, torus exponents as numerators mod a common denominator N.
"""

from __future__ import annotations

import functools
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
            if pairing > 0 and b != tuple(1 if k == i else 0 for k in range(rs.rank)):
                nb = rs.reflect(i, b)
                if rs.is_positive(nb) and sum(nb) < sum(b):
                    prefix.append(i)
                    b = nb
                    break
        else:
            raise InvariantViolation(f"no descent step from the root {b}")


def word_element(rs: RootSystem, word) -> WeylElement:
    """s_{i1} s_{i2} ... s_{ik} for the word (i1, ..., ik), built once from
    the images of the simple roots under the letters."""
    word = tuple(word)
    r = rs.rank

    def columns(letters):
        # column j = image of alpha_j, the first letter applied first
        cols = []
        for j in range(r):
            b = tuple(int(k == j) for k in range(r))
            for i in letters:
                b = rs.reflect(i, b)
            cols.append(b)
        return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))

    return WeylElement(rs, columns(word[::-1]), columns(word), word)


def alcove_descent(rs: RootSystem, x):
    """Carry a rational point into the closed fundamental alcove.

    x lists coroot coordinates (x = sum_i x_i alpha_i^vee, so alpha_j(x) =
    sum_i C[i][j] x_i).  The point is first reduced mod Q^vee into [0, 1)^r;
    then s_j is applied while alpha_j(x) < 0, and the affine reflection s_0
    of a component (in the hyperplane theta = 1) while theta(x) > 1.
    Returns (w, kac): w is the finite part of the affine Weyl element used,
    so x' = w x + (an element of Q^vee) lies in the alcove, and kac holds per
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
    return word_element(rs, letters[::-1]), kac


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def inversion_set(rs: RootSystem, word):
    """gamma_k = s_{i1}...s_{i(k-1)}(alpha_{ik}) for k = 1..len(word).

    The word is reduced iff all gamma_k are positive and pairwise distinct;
    the set then equals Phi+ inter w(Phi-).
    """
    out = []
    prefix = identity(rs)
    for i in word:
        alpha = tuple(1 if k == i else 0 for k in range(rs.rank))
        out.append(prefix.apply_root(alpha))
        prefix = prefix * simple_reflection(rs, i)
    return out


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


def act_torus(w: WeylElement, qs, dot: bool = False, ell: int = None, eps: int = 1,
              rs: RootSystem = None):
    """Weyl action on torus exponent vectors; dot variant conjugates by the
    Harish-Chandra shift (requires ell)."""
    if not dot:
        return w.act_torus_exponents(qs)
    rs = rs or w.rs
    shift = hc_shift_vector(rs, ell, eps)
    shifted = tuple(q + s for q, s in zip(qs, shift))
    moved = w.act_torus_exponents(shifted)
    return tuple(q - s for q, s in zip(moved, shift))


def integer_actions(rs: RootSystem, on: str, modulus: int, width: int = 1):
    """The simple reflections s_1..s_r as maps on flat integer tuples.

    on="values": a point lists lambda(h_1), ..., lambda(h_r), each as `width`
    coefficients mod `modulus` (= p), and map j is s_j.act_values;
    on="torus": a point lists the exponent numerators of a torus element over
    the common denominator `modulus`, and map j is s_j.act_torus_exponents.
    Map j rewrites only the coordinates whose row of s_j is not an identity
    row: node j and its Dynkin neighbours for values, node j for exponents.
    """
    maps = []
    for j in range(rs.rank):
        s = simple_reflection(rs, j)
        if on == "values":
            rows = s._value_rows()
        elif on == "torus":
            rows = s._torus_rows()
        else:
            raise ValueError(f"unknown encoding {on!r}")
        ops = tuple(
            (i * width + t, tuple((k * width + t, c) for k, c in enumerate(row) if c))
            for i, row in enumerate(rows)
            if any(c != int(k == i) for k, c in enumerate(row))
            for t in range(width))
        maps.append(_integer_map(ops, modulus))
    return maps


def _integer_map(ops, modulus):
    # ops: (target slot, ((source slot, coefficient), ...)); sources are read
    # from the input, so the rewrites do not see each other
    def act(x):
        y = list(x)
        for dst, terms in ops:
            acc = 0
            for k, c in terms:
                acc += c * x[k]
            y[dst] = acc % modulus
        return tuple(y)
    return act


def integer_pairings(rs: RootSystem, on: str, modulus: int, width: int = 1):
    """Every positive root's value on a flat integer point, as a map from the
    point to one value per root of rs.pos_roots, in that order.

    on="torus": a point lists exponent numerators n_i over the common
    denominator `modulus`; the value of beta is sum_i beta(h_i) n_i mod
    `modulus`, the numerator of beta(t)'s exponent, so beta(t) = 1 iff it is 0.
    on="values": a point lists eta(h_1), ..., eta(h_r) as `width` coefficients
    mod p (= `modulus`) each; the value of beta is the coefficient tuple of
    eta(h_beta), slot t being sum_i beta^vee_i eta_{i,t} mod p.  It is zero iff
    every slot is 0, and lies in F_p iff slots 1..width-1 are 0.
    """
    terms = _pairing_terms(rs, on, width)
    if on == "torus":
        return lambda x: tuple(sum(c * x[k] for k, c in ts) % modulus for ts in terms)
    return lambda x: tuple(
        tuple(sum(c * x[k + t] for k, c in ts) % modulus for t in range(width))
        for ts in terms)


@functools.lru_cache(maxsize=None)
def _pairing_terms(rs, on, width):
    # per positive root, the (slot offset, coefficient) pairs of its row:
    # beta(h_i) for exponents, the coroot coefficients beta^vee_i for values
    if on == "torus":
        rows = map(rs.value_vec, rs.pos_roots)
    elif on == "values":
        rows = map(rs.coroot, rs.pos_roots)
    else:
        raise ValueError(f"unknown encoding {on!r}")
    return tuple(tuple((i * width, c) for i, c in enumerate(row) if c) for row in rows)


class ReflectionSubgroup:
    """Subgroup generated by the reflections of a closed root subset."""

    __slots__ = ("rs", "pos_roots", "subsystem")

    def __init__(self, rs, pos_roots, subsystem):
        self.rs = rs
        self.pos_roots = pos_roots
        self.subsystem = subsystem

    @property
    def order(self) -> int:
        return self.subsystem.order

    def __repr__(self):
        return f"ReflectionSubgroup({self.subsystem.type_str}, |W|={self.order})"


def reflection_stabilizer(rs: RootSystem, predicate) -> ReflectionSubgroup:
    """<s_beta : predicate(beta)> with the classified subsystem it comes from."""
    sat = tuple(b for b in rs.pos_roots if predicate(b))
    roots = frozenset(sat) | frozenset(tuple(-c for c in b) for b in sat)
    sub = subsystem_classify(rs, roots)
    return ReflectionSubgroup(rs, sat, sub)


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


def check_group_bound(rs: RootSystem, bound: int):
    """Refuse a block partition of a Weyl group larger than the bound."""
    if rs.weyl_order() > bound:
        raise BoundExceeded(
            f"|W| = {rs.weyl_order()} exceeds bound {bound}; "
            "block partitions need tractable orbits")


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


def orbit_partition(points, gen_actions, key):
    """Partition points into orbits; deterministic canonical representatives.

    Each orbit is sorted by `key` and the orbit list is sorted by the key of
    its representative (the minimum).  Points outside `points` reached by the
    action are ignored for membership but used for transport.
    """
    pointset = set(points)
    unseen = set(points)
    orbits = []
    for x in sorted(points, key=key):
        if x not in unseen:
            continue
        orb = orbit_of(x, gen_actions)
        cls = sorted((y for y in orb if y in pointset), key=key)
        for y in cls:
            unseen.discard(y)
        orbits.append(cls)
    orbits.sort(key=lambda cls: key(cls[0]))
    return orbits
