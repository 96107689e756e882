"""Semisimple root systems in the simply-connected convention.

Roots are integer coefficient tuples on the simple roots; coroots are integer
coefficient tuples on the simple coroots.  The Cartan matrix follows the
convention C[i][j] = alpha_j(h_i) = <alpha_j, alpha_i^vee>, so a simple
reflection s_j acts on coroot-value vectors by v_i -> v_i - C[i][j]*v_j.

Node numbering is Bourbaki throughout:

  A_r   1-2-...-r
  B_r   1-2-...-(r-1)=>r          (alpha_r short)
  C_r   1-2-...-(r-1)<=r          (alpha_r long)
  D_r   1-...-(r-2) forking to (r-1) and r
  E_r   chain 1-3-4-5-6(-7)(-8) with 2 attached to 4
  F_4   1-2=>3-4                  (alpha_1, alpha_2 long)
  G_2   1≡2                       (alpha_1 short)

Products are written A1xB2 (case-insensitive; blanks around a factor are
ignored).

The facts of a type that need no roots come off the type, each cached per
component type: weyl_invariants, cartan_matrix and highest_root (the marks
of theta and the word of s_theta, by the dominant ascent).  So
check_cartan_type and hypothesis_check build no root system.

What a root system or a classified subsystem derives only on demand is a
functools.cached_property of its owner, computed on the first read and kept
with it: RootSystem.fundamental_weights, rho_weight_pairs and sum_triples;
Subsystem.is_parabolic, height_steps and coset_poincare, which reads the
series of its degrees from coset_series, kept per pair of degree lists.  A
root system lists its height steps (each positive root as an earlier root
plus a simple one) as it builds its roots; weyl.integer_pairings pairs by
them.

The one exact linear solver, solve_linear over Q or F_p, lives here with its
readers: the fundamental weights, the parabolic test of a subsystem, and the
Artin-Schreier solver of a finite field (scalars.FieldDescriptor.as_solver).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidType, InvariantViolation, NotClosed, charge

_TYPE_RE = re.compile(r"([A-G])(\d+)")

@functools.lru_cache(maxsize=None)
def parse_cartan_type(s: str):
    """Parse 'A2', 'b3', 'A1xA1', 'a1XB2', ... into a tuple of (letter, rank)
    pairs, each through _validate_component.  A parse is kept for the
    process; a refusal is not, so it is raised again on every call."""
    if not s:
        raise InvalidType("empty Cartan type")
    comps = []
    for part in re.split("[xX]", s.strip()):
        m = _TYPE_RE.fullmatch(part.strip().upper())
        if not m:
            raise InvalidType(f"cannot parse component {part!r}")
        try:
            comps.append(_validate_component(m.group(1), int(m.group(2))))
        except ValueError:  # a rank of more digits than int() reads
            raise InvalidType(
                f"rank of component {m.group(1)} has {len(m.group(2))} digits") from None
    return tuple(comps)


def _validate_component(letter, rank):
    """The one gate of a component: (letter, rank) with B1 and C1 read as A1,
    once weyl_invariants lists it (InvalidType otherwise).  A letter that
    takes rank 9 takes every larger one, so a larger rank is asked as 9 and
    a huge rank lists no invariants."""
    if letter in ("B", "C") and rank == 1:
        letter = "A"
    try:
        weyl_invariants(letter, min(rank, 9))
    except InvalidType:
        raise InvalidType(f"invalid component {letter}{rank}") from None
    return (letter, rank)


def type_string(comps) -> str:
    return "x".join(f"{letter}{rank}" for letter, rank in comps) if comps else "1"


class WeylInvariants(NamedTuple):
    """The per-type data of one irreducible component, on 0-based local nodes
    in Bourbaki order: the symmetrizers d, 1 on the short roots, with D C
    symmetric; the degrees of the basic invariants (Humphreys, Reflection
    Groups and Coxeter Groups, 3.7: |W| = prod d_i, N = sum (d_i - 1), and
    the Poincare polynomial of W is prod [d]_t with [d]_t = 1 + t + ... +
    t^(d-1)); and the index of connection |P/Q|."""

    d: tuple
    degrees: tuple
    index: int


@functools.lru_cache(maxsize=None)
def weyl_invariants(letter, n) -> WeylInvariants:
    """The invariants of a component letter+n: A_n (n >= 1), B_n and C_n
    (n >= 2), D_n (n >= 3), E6, E7, E8, F4 or G2; InvalidType for any other.
    The one source of per-type data, and the one list of the components."""
    evens = tuple(range(2, 2 * n + 1, 2))
    if letter == "A" and n >= 1:
        return WeylInvariants((1,) * n, tuple(range(2, n + 2)), n + 1)
    if letter == "B" and n >= 2:
        return WeylInvariants((2,) * (n - 1) + (1,), evens, 2)
    if letter == "C" and n >= 2:
        return WeylInvariants((1,) * (n - 1) + (2,), evens, 2)
    if letter == "D" and n >= 3:
        return WeylInvariants((1,) * n, evens[:-1] + (n,), 4)
    if letter == "E" and n in (6, 7, 8):
        return WeylInvariants((1,) * n, {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                                         8: (2, 8, 12, 14, 18, 20, 24, 30)}[n], 9 - n)
    if (letter, n) == ("F", 4):
        return WeylInvariants((2, 2, 1, 1), (2, 6, 8, 12), 1)
    if (letter, n) == ("G", 2):
        return WeylInvariants((1, 3), (2, 6), 1)
    raise InvalidType(f"invalid component {letter}{n}")


@functools.lru_cache(maxsize=None)
def cartan_matrix(letter, n):
    """The Cartan matrix of a component letter+n in Bourbaki order, built
    once per type from its Dynkin edges (a path; D forks at node n - 3; E
    is the chain 0, 2, 3, ..., n - 1 with 1 joined to 3) and the
    symmetrizers of weyl_invariants (InvalidType for a component it does
    not list)."""
    d = weyl_invariants(letter, n).d
    edges = [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        edges[-1] = (n - 3, n - 1)
    if letter == "E":
        edges[:2] = (0, 2), (1, 3)
    C = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        # C[i][j] = (alpha_i, alpha_j) / d_i with (alpha_i, alpha_j) = -max(d_i, d_j)
        s = -max(d[i], d[j])
        C[i][j], C[j][i] = s // d[i], s // d[j]
    return tuple(map(tuple, C))


@functools.lru_cache(maxsize=None)
def highest_root(letter, n):
    """(marks, word) of the highest root theta of a component letter+n, on
    0-based local nodes: the coefficients a_j of theta = sum_j a_j alpha_j,
    and the word of the reflection s_theta.  Built once per type by the
    dominant ascent, on cartan_matrix and the symmetrizers d alone: from a
    long simple root alpha_i, while some <beta, alpha_k^vee> < 0, beta <-
    s_k beta, its pairings updated in O(n) by column k.  It ends at the one
    dominant long root, theta = w alpha_i with w = s_(k_m) ... s_(k_1) for
    the steps k_1, ..., k_m, and s_theta = w s_i w^-1."""
    C, d = cartan_matrix(letter, n), weyl_invariants(letter, n).d
    i = d.index(max(d))
    beta, v, steps = [int(j == i) for j in range(n)], [row[i] for row in C], []
    while (k := next((k for k, x in enumerate(v) if x < 0), None)) is not None:
        beta[k] -= v[k]  # s_k beta = beta - <beta, alpha_k^vee> alpha_k
        v = [x - v[k] * row[k] for x, row in zip(v, C)]
        steps.append(k)
    return tuple(beta), (*steps[::-1], i, *steps)


class RootSystem:
    """Immutable container for the combinatorial data of a root system."""

    def __init__(self, comps):
        self.ctype = comps
        self.type_str = type_string(comps)
        self.rank = r = sum(n for _l, n in comps)
        C = [[0] * r for _ in range(r)]
        d, components, off = [], [], 0
        for l, n in comps:
            d.extend(weyl_invariants(l, n).d)
            for i, row in enumerate(cartan_matrix(l, n)):
                C[off + i][off:off + n] = row
            components.append((l, n, tuple(range(off, off + n))))
            off += n
        self.cartan = tuple(map(tuple, C))
        self.d = tuple(d)
        self.components = tuple(components)
        self._build_roots()
        self._subsystems = {}  # frozenset of roots -> Subsystem, see subsystem_classify

    # -- construction -------------------------------------------------------

    def _build_roots(self):
        """Phi+ layer by layer in height.  A root b + alpha_i takes from its
        first parent b, in O(r), its pairings <., alpha_k^vee> (column i of
        the Cartan matrix added), its norm |b + alpha_i|^2/2 = |b|^2/2 +
        d_i (<b, alpha_i^vee> + 1) and its component; its down-string length
        in direction i is the parent's plus one (0 with no such parent).
        b + alpha_i is a root iff down_i(b) exceeds <b, alpha_i^vee>.
        height_steps lists per positive root, in pos_roots order, (position
        of its first parent, i), the parent listed earlier; (-1, i) for
        alpha_i.  The coroots, their integrality test and the negative roots
        are read off the columns of the positive roots' coefficients and
        pairings, one map per coordinate."""
        r, C, d = self.rank, self.cartan, self.d
        cols = list(zip(*C))
        # the columns of D C are its rows when it is symmetric
        if (dc := [tuple(map(operator.mul, d, col)) for col in cols]) != list(zip(*dc)):
            raise InvariantViolation(f"{self.type_str}: D C is not symmetric, so no "
                                     "invariant form gives the root norms")
        comp = [k for k, (_l, _n, nodes) in enumerate(self.components) for _ in nodes]
        simple = self.simple_roots = tuple((0,) * i + (1,) + (0,) * (r - 1 - i) for i in range(r))
        data = {a: (cols[i], [0] * r, d[i], comp[i], (-1, i)) for i, a in enumerate(simple)}
        layer, pos = list(simple), []
        while layer:
            nxt = []
            for b in sorted(layer):
                v, down, nb, k, _step = data[b]
                pos.append(b)
                for i in itertools.compress(range(r), map(operator.gt, down, v)):
                    c = b[:i] + (b[i] + 1,) + b[i + 1:]
                    if c not in data:
                        data[c] = (tuple(map(operator.add, v, cols[i])), [0] * r,
                                   nb + d[i] * (v[i] + 1), k, (len(pos) - 1, i))
                        nxt.append(c)
                    data[c][1][i] = down[i] + 1
            layer = nxt
        pos = self.pos_roots = tuple(pos)
        self.N = len(pos)
        self._posset = frozenset(pos)
        values, _down, norms, comps, self.height_steps = zip(*map(data.__getitem__, pos))
        # coordinate i of the coroot of b is d_i b_i / |b|^2/2
        coeffs = list(zip(*pos))
        scaled = [list(map(di.__mul__, col)) for di, col in zip(d, coeffs)]
        if any(any(map(operator.mod, col, norms)) for col in scaled):
            b = next(b for b, nb in zip(pos, norms) if any(di * bi % nb for di, bi in zip(d, b)))
            raise InvariantViolation(f"{self.type_str}: coroot of {b} is not integral")
        coroots = list(zip(*(map(operator.floordiv, col, norms) for col in scaled)))
        # every root, each positive one followed by its negative
        roots = list(_and_negated(pos))
        self._value = dict(zip(roots, _and_negated(values)))
        self._coroot = dict(zip(roots, _and_negated(coroots)))
        self._norm = dict(zip(roots, itertools.chain.from_iterable(zip(norms, norms))))
        self._allset = frozenset(self._value)
        # the highest root of a component, placed from the marks of its
        # ascent, must be a root and lie above all the others: the
        # componentwise max of the positive roots is the marks on its nodes
        top = tuple(map(max, coeffs))
        self._highest = []
        for k, (letter, n, nodes) in enumerate(self.components):
            if comps.count(k) != sum(e - 1 for e in weyl_invariants(letter, n).degrees):
                raise InvariantViolation(
                    f"{letter}{n}: {comps.count(k)} positive roots, degrees say otherwise")
            marks = highest_root(letter, n)[0]
            theta = (0,) * nodes[0] + marks + (0,) * (r - 1 - nodes[-1])
            if theta not in self._posset or top[nodes[0]:nodes[-1] + 1] != marks:
                raise InvariantViolation(f"{letter}{n}: the highest root is not above every root")
            self._highest.append(theta)
        self.a = tuple(map(sum, zip(*self._highest)))

    @functools.cached_property
    def sum_triples(self):
        """Per root m: -m and, for positive m, the pairs (x, y) of positive
        roots with x + y = m and the pairs (y, m + y); each (x, y, x + y) is
        one sum triple.  Built on the first read.  A root's coefficients are
        at most 6, so its base-16 code adds without carries."""
        pos = self.pos_roots
        code = [sum(c << 4 * k for k, c in enumerate(b)) for b in pos]
        root_of = dict(zip(code, pos))
        table = {b: (tuple(-c for c in b), [], []) for b in self._allset}
        for i, x in enumerate(pos):
            for cz in sorted(root_of.keys() & map(code[i].__add__, code[i + 1:])):
                y, z = root_of[cz - code[i]], root_of[cz]
                table[z][1].append((x, y))
                table[x][2].append((y, z))
                table[y][2].append((x, z))
        return table

    # -- queries -------------------------------------------------------------

    def is_root(self, b) -> bool:
        return b in self._allset

    def is_positive(self, b) -> bool:
        return b in self._posset

    def all_roots(self):
        return self._allset

    def coroot(self, b):
        """Coefficients of beta^vee on the simple coroots."""
        return self._coroot[b]

    def norm(self, b) -> int:
        """(beta, beta)/2 with short roots normalized to 1 per component."""
        return self._norm[b]

    def highest_root(self, comp_idx: int = 0):
        return self._highest[comp_idx]

    def leq(self, b, c) -> bool:
        """Partial order: b <= c iff c - b has nonnegative coefficients."""
        return all(cb <= cc for cb, cc in zip(b, c))

    def value_vec(self, b):
        """The root beta's values on the basis coroots: (beta(h_1), ...,
        beta(h_r)), stored at construction."""
        return self._value[b]

    def cartan_int(self, b, g) -> int:
        """<beta, gamma^vee> = beta(h_gamma)."""
        return sum(map(operator.mul, self._coroot[g], self._value[b]))

    def reflect(self, i: int, b):
        """s_i(beta) on the coefficient vector of a root."""
        return b[:i] + (b[i] - self._value[b][i],) + b[i + 1:]

    @functools.cached_property
    def fundamental_weights(self):
        """The alpha-coordinates of the fundamental weights: row i lists
        varpi_i = sum_k X[i][k] alpha_k, the exact solution of C x = e_i."""
        solve, r = solve_linear(self.cartan), self.rank
        return tuple(tuple(solve([int(j == i) for j in range(r)])) for i in range(r))

    @functools.cached_property
    def rho_weight_pairs(self):
        """The exact rationals (rho, varpi_i) for i = 1..r."""
        return tuple(sum(x[k] * self.d[k] for k in range(self.rank))
                     for x in self.fundamental_weights)

    def weyl_order(self) -> int:
        return math.prod(degrees(self.components))

    def __repr__(self):
        return f"RootSystem({self.type_str})"


def _and_negated(vectors):
    """Each of equal-length integer vectors, then its negative, negated by
    one map per coordinate."""
    negated = zip(*(map(operator.neg, col) for col in zip(*vectors)))
    return itertools.chain.from_iterable(zip(vectors, negated))


def degrees(components):
    """Degrees of the basic invariants of a product of (letter, rank, ...)."""
    return tuple(d for letter, n, *_ in components for d in weyl_invariants(letter, n).degrees)


def coxeter_type(letter, rank):
    """A component type up to Coxeter-graph equivalence (C->B, B1->A1)."""
    if letter == "C":
        letter = "B"
    if letter == "B" and rank == 1:
        letter = "A"
    return (letter, rank)


@functools.lru_cache(maxsize=None)
def check_cartan_type(ctype, bound=None):
    """The components of a Cartan type given as a string or component tuple,
    each through _validate_component once, then BoundExceeded if rank^2,
    then |Phi+| x rank (the entries of its root tables), exceeds `bound`
    (the "type" check of errors.BOUNDS).  An accepted (ctype, bound) is kept for the
    process; a refusal is not, so it is raised again on every call."""
    comps = (parse_cartan_type(ctype) if isinstance(ctype, str)
             else tuple(_validate_component(l, n) for l, n in ctype))
    r, ts = sum(n for _l, n in comps), type_string(comps)
    # |Phi+| >= rank: a rank past the square root of the bound is refused
    # before its degrees are listed
    charge("type", bound, r * r, ts, "rank^2")
    charge("type", bound, r * sum(d - 1 for d in degrees(comps)), ts, "|Phi+| x rank")
    return comps


# the root system of a component tuple that check_cartan_type returned, one
# per process; the components are not checked again
root_system = functools.lru_cache(maxsize=None)(RootSystem)


def build_root_system(ctype, bound=None) -> RootSystem:
    """Root system for a Cartan type given as a string or component tuple,
    after check_cartan_type: BoundExceeded before any table is built or the
    memo is read."""
    return root_system(check_cartan_type(ctype, bound))


def two_rho_dot(rs: RootSystem, b) -> int:
    """(2*rho, beta) for beta in the root lattice, short roots of length^2 2."""
    return sum(bi * 2 * di for bi, di in zip(b, rs.d))


# -- the one exact linear solver --------------------------------------------

def solve_linear(A, p=None):
    """Reduce the integer m x n matrix A once, over Q (p None) or over F_p, and
    return the solver of A x = b for any number of right-hand sides b: x has
    its free unknowns set to 0, so it is deterministic (Fractions over Q, ints
    mod p over F_p), or is None when A x = b is inconsistent.  Fraction-free:
    rows of [A | I] are combined with integer multipliers and divided by their
    gcd over Q, reduced mod p over F_p; the identity columns record the row
    operations E, so each b costs one product E b.  The rows of E past the
    pivots are the solver's `consistency` rows: A x = b is consistent iff
    each of them is orthogonal to b, so they vanish exactly on the column
    span of A."""
    m, n = len(A), (len(A[0]) if A else 0)
    rows = [[x % p if p else x for x in row] + [int(i == j) for j in range(m)]
            for i, row in enumerate(A)]
    pivots = []
    for col in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        top, a = rows[k], rows[k][col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != k:
                row = [a * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = [x % p for x in row] if p else [x // g for x in row]
        pivots.append(col)
    E = [row[n:] for row in rows]
    lead = [pow(row[c], -1, p) if p else row[c] for row, c in zip(rows, pivots)]

    def solve(b):
        y = [sum(map(operator.mul, e, b)) for e in E]
        y = [v % p for v in y] if p else y
        if any(y[len(pivots):]):
            return None
        x = [0 if p else Fraction(0)] * n
        for c, v, d in zip(pivots, y, lead):
            x[c] = v * d % p if p else Fraction(v, d)
        return x
    solve.consistency = tuple(map(tuple, E[len(pivots):]))
    return solve


# -- subsystems ------------------------------------------------------------


class Subsystem:
    """A classified closed, negation-stable subset of a root system."""

    # __dict__ holds is_parabolic and coset_poincare once read
    __slots__ = ("rs", "roots", "basis", "components", "type_str", "order", "__dict__")

    def __init__(self, rs, roots, basis, components):
        self.rs = rs
        self.roots = roots
        self.basis = basis
        self.components = components  # tuple of (letter, rank, basis-subtuple)
        self.type_str = type_string([(l, n) for l, n, _ in components])
        self.order = math.prod(degrees(components))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index_of_connection(self) -> int:
        return math.prod(weyl_invariants(l, n).index for l, n, _ in self.components)

    @functools.cached_property
    def is_parabolic(self) -> bool:
        """Is this W-conjugate to a standard parabolic subsystem?  That holds
        exactly when it equals Phi inter span_Q(self) (Bourbaki, Lie Groups
        and Lie Algebras, Ch. VI 1.7).  Its basis is reduced once, by
        solve_linear, and no solution is built: the consistency rows of that
        reduction vanish exactly on the span, so it is parabolic iff they
        all vanish on |self+| positive roots, its own."""
        rows = solve_linear([[b[i] for b in self.basis] for i in range(self.rs.rank)]).consistency
        inside = self.rs.pos_roots
        for row in rows:
            inside = [b for b in inside if not sum(map(operator.mul, row, b))]
        return len(inside) == len(self.roots) // 2

    @functools.cached_property
    def height_steps(self):
        """(roots, steps): the basis, then the other positive roots in the
        order of rs.pos_roots, and per root (position of its parent, k) when
        it is its parent plus basis root k, the parent listed earlier; (-1,
        k) for basis root k.  The basis is a base of the subsystem, so every
        other positive root has such a parent (Humphreys, Introduction to Lie
        Algebras and Representation Theory, 10.2), of lower height in Phi."""
        basis = self.basis
        roots = basis + tuple(b for b in self.rs.pos_roots if b in self.roots and b not in basis)
        at = {b: n for n, b in enumerate(roots)}
        steps = tuple((-1, k) for k in range(len(basis))) + tuple(
            next(((at[c], k) for k, g in enumerate(basis)
                  if (c := tuple(map(operator.sub, b, g))) in at), None)
            for b in roots[len(basis):])
        if None in steps:
            raise InvariantViolation(f"a root of {self.type_str} is no root plus a basis root")
        return roots, steps

    @functools.cached_property
    def coset_poincare(self):
        """Coefficients of W(t)/W_self(t), the length generating function of
        the minimal coset representatives when this subsystem is a standard
        parabolic; it depends only on the degrees of W and of this
        subsystem's type, so it is read from coset_series, kept per pair."""
        return coset_series(degrees(self.rs.components), tuple(sorted(degrees(self.components))))

    def __repr__(self):
        return f"Subsystem({self.type_str}, |W|={self.order})"


@functools.cache
def coset_series(big, small):
    """Coefficients of prod [d]_t over the degrees `big` divided by prod
    [d]_t over the degrees `small`, [d]_t = 1 + t + ... + t^(d-1) = (1 -
    t^d)/(1 - t): W(t)/W_J(t) for the degrees of W and of W_J.  A degree
    of both lists cancels; each remaining division must be exact
    (InvariantViolation otherwise).  Kept per pair of degree tuples for the
    process; a refusal is not kept."""
    big, small = collections.Counter(big), collections.Counter(small)
    series = [1]
    for d in (big - small).elements():
        series = [sum(series[max(0, i - d + 1):i + 1]) for i in range(len(series) + d - 1)]
    for d in (small - big).elements():
        # times (1 - t), then divided by (1 - t^d) with zero remainder
        num = [a - b for a, b in zip(series + [0], [0] + series)]
        series = []
        for i, c in enumerate(num):
            c += series[i - d] if i >= d else 0
            if i < len(num) - d:
                series.append(c)
            elif c:
                raise InvariantViolation(f"[{d}]_t does not divide the Poincare series")
    return tuple(series)


def check_closed(rs: RootSystem, roots) -> frozenset:
    """The roots as a frozenset S; NotClosed unless S is a set of roots with
    S = -S, closed under root addition.  For S = -S that holds iff two
    members of a sum triple (x, y, x + y) of positive roots in S put the
    third in S: for each positive member, the other two of each of its
    triples lie both in S or both outside."""
    S = frozenset(roots)
    table = rs.sum_triples
    for b in S:
        if b not in table or table[b][0] not in S:
            raise NotClosed(f"{b} in subset but not a root with its negative")
        for x, y in itertools.chain(table[b][1], table[b][2]):
            if (x in S) != (y in S):
                raise NotClosed(f"the sum triple of {b}, {x}, {y} meets the "
                                "subset in two roots")
    return S


def _classify_component(norms, nodes, m):
    """Classify one connected basis component from its Cartan integers m and
    the basis norms; returns (letter, rank, ordered), the nodes in Bourbaki
    order.  The shape picks a start node, one walk reads the order off, and
    the ordered Cartan integers must be those of cartan_matrix(letter, rank):
    InvariantViolation for a shape with no Bourbaki type."""
    adj = {i: [j for j in nodes if j != i and m[i][j] * m[j][i]] for i in nodes}
    bonds = {m[i][j] * m[j][i]: (i, j) for i in nodes for j in adj[i]}
    ends = [i for i in nodes if len(adj[i]) < 2] or [nodes[0]]
    hubs = [i for i in nodes if len(adj[i]) > 2]
    norm = norms.__getitem__

    def walk(*path):
        # the path, extended while its last node has one neighbour off it
        path = list(path)
        while len(nxt := [j for j in adj[path[-1]] if j not in path]) == 1:
            path += nxt
        return path

    if hubs:
        # the branches away from the hub, shortest first, ties in index order
        c = hubs[0]
        short, mid, far = sorted((walk(c, u)[1:] for u in adj[c]), key=len)[:3]
        if len(mid) == 1:
            letter, order = "D", far[::-1] + [c] + sorted(short + mid)
        else:
            chain = mid[::-1] + [c] + far
            letter, order = "E", chain[:1] + short + chain[1:]
    elif 3 in bonds:
        letter, order = "G", walk(min(bonds[3], key=norm))
    elif 2 in bonds:
        bond = bonds[2]
        leaves = sorted((i for i in bond if i in ends), key=norm)
        if leaves:
            # B or C from the far end to the double bond's (short) leaf; B
            # when that leaf is short
            letter = "B" if norm(leaves[0]) < max(map(norm, bond)) else "C"
            order = walk(leaves[0])[::-1]
        else:
            letter, order = "F", walk(max(ends, key=norm))
    else:
        letter, order = "A", walk(min(ends))
    n = len(nodes)
    try:
        standard = cartan_matrix(letter, n)
    except InvalidType:
        standard = None
    if tuple(tuple(m[j][i] for j in order) for i in order) != standard:
        raise InvariantViolation(f"basis graph read as {letter}{n} is not its Dynkin diagram")
    return (letter, n, tuple(order))


def subsystem_classify(rs: RootSystem, roots) -> Subsystem:
    """Classify a negation-closed, addition-closed subset of the roots.

    The basis consists of the positive members not expressible as a sum of
    two positive members, read off the sum triples of the root system; its
    Dynkin graph is classified per component.
    Each root system keeps the Subsystem of every subset it has classified,
    so a repeated subset, in any container, costs one lookup; a subset that
    is not closed raises NotClosed on every call and is never kept.
    """
    S = frozenset(roots)
    sub = rs._subsystems.get(S)
    if sub is None:
        sub = rs._subsystems[S] = _classify(rs, check_closed(rs, S))
    return sub


def _classify(rs, S):
    table = rs.sum_triples
    basis = tuple(sorted((b for b in S if rs.is_positive(b)
                          and not any(x in S and y in S for x, y in table[b][1])),
                         key=lambda b: (sum(b), b)))
    return Subsystem(rs, S, basis, classify_basis(rs, basis))


def classify_basis(rs: RootSystem, basis):
    """The components of the root system with simple system `basis` (roots
    of rs), sorted: (letter, rank, the component's basis in Bourbaki
    order), each through _classify_component."""
    k = len(basis)
    m = [[rs.cartan_int(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    norms = [rs.norm(b) for b in basis]
    # connected components of the basis graph, in one pass over the nodes:
    # m[i][j] = 0 iff m[j][i] = 0, so node i joins every earlier component it
    # is linked to, merging them; the classified components are sorted
    # afterwards, so the order of the list does not matter
    comps = []
    for i in range(k):
        linked = [c for c in comps if any(m[i][j] for j in c)]
        comps = [c for c in comps if c not in linked]
        comps.append(sorted(sum(linked, [i])))
    classified = []
    for comp in comps:
        letter, n, order = _classify_component(norms, comp, m)
        classified.append((letter, n, tuple(basis[i] for i in order)))
    return tuple(sorted(classified))


def hypothesis_check(comps, p: int) -> dict:
    """Good-prime and trace-form flags for the standing hypotheses on the
    Cartan type with components `comps` (what check_cartan_type returns, or
    RootSystem.ctype), off the type alone: no root system is built, and a
    component weyl_invariants does not list raises InvalidType.  p is bad iff
    it divides a mark of a highest root (highest_root; Springer-Steinberg,
    Conjugacy Classes, LNM 131, I.4.3); the trace form of sl_(n+1)
    degenerates iff p divides n + 1."""
    good = not any(a % p == 0 for letter, n in comps for a in highest_root(letter, n)[0])
    trace_ok = all(letter != "A" or (n + 1) % p for letter, n in comps)
    return {
        "goodPrime": good,
        "traceFormOK": trace_ok,
        "oddPrime": p % 2 == 1,
        "ok": good and trace_ok and p % 2 == 1,
    }
