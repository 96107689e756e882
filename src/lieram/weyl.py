"""Weyl group words and actions, stabilizers, cosets and orbit machinery.

In production a Weyl element is its word: (i1, ..., ik) stands for w =
s_{i1} ... s_{ik}, and w acts letter by letter, the last letter first,
through the root data.  On roots the letters act by RootSystem.reflect
(word_images, inversion_set).  The alcove descent, on torus exponents as
numerators over one denominator, returns the word of its finite part; it
reads theta, theta^vee and the word of s_theta from the extended diagram,
built once per root system, which takes the word of s_theta per component
from the dominant ascent of rootdata.highest_root.  No word acts on a
point: quantum.q_unramified maps the integral Delta-tilde nodes back by the
reversed word instead, as a(w t) = (w^-1 a)(t).

WeylElement stores an element as the integer matrix of its action on
simple-root coordinates with the inverse matrix (equality is matrix
equality), and enumerate_group lists W by closure.  Its length and the rows
of its two coordinate actions are cached properties, built on first read.
word_element builds one from its word and the Cartan matrix alone
(identity and simple_reflection are it on () and (j,)), and every other
element is a product of two.  No production path builds one: they serve
the oracles in lieram.selftest and perfbench, which binds enumerate_group,
act_values and act_torus_exponents by name.  Their actions on raw
coordinate tuples:
  * roots            beta -> w(beta)                 (coefficient vectors)
  * coroot values    lambda(h_i) -> (w lambda)(h_i)  (any coefficient ring,
                     summed by _ring_sum, as the oracle selftest.pair is)
  * torus exponents  t(K_{varpi_i}) -> (w t)(K_{varpi_i})  (UnityExps)
UnityExp, the root of unity e^{2 pi i q} for an exact rational q mod 1, is
the view of a torus coordinate that act_torus_exponents returns and
quantum.TorusElement.exps gives; only the oracles and tests read it.

Block partitions walk orbits on flat integer encodings instead, and build no
element, one coefficient per coordinate: torus exponents as numerators mod a
common denominator N, coroot values mod p.  A reflection is F_p-linear, so
values in F_{p^e} are e such points, one per coefficient slot, each acted on
and paired alone (modular._values).  A block is an orbit of Stab_W(chi)
on the point set of chi.  Under the standing hypotheses Stab_W(chi) =
W(Phi') (Steinberg, Torsion in reductive groups; on the quantum side the
torus is simply connected), generated by the reflections s_beta, beta in
the basis of Phi'; the walk takes that as given, and lieram.selftest checks
|W.chi| |W(Phi')| = |W| as an oracle.  So the walk visits each point of the
set once and reaches no point outside it (orbit_partition raises if it
does), and the points bound counts the set alone: the callers charge it
to the "points" check of errors.BOUNDS before any axis is built.  Each axis
of the set is listed in the order of its sort key, so a block is met first
at its least point and keeps that point and its size.
A reflection is the rank-one map x -> x - <x, beta> v_beta
(integer_actions), read off the coroot and root-value tables of the root
system.  integer_pairings pairs a point with every positive root by height,
r pairings with the simple roots and one addition per root (each root is
an earlier one plus a simple root, as the root system lists them), and with
the positive roots of a subsystem over its own basis likewise.
Both sides take their blocks from one entry point, block_list: mod_blocks
walks the constant terms of eta, q_blocks the numerators over N.  A block's
stabiliser lies in W(Phi'), so the walk pairs only the roots of Phi' with it,
and the subsystem memo of the root system classifies each distinct set of
vanishing roots once.  A walk depends only on (root system, Phi', encoding,
modulus, axes), not on the nilpotent part of chi nor (on the modular side)
on the base of Lambda_chi, so block_list keeps the latest walks, least
recently used first, while their point sets total at most the default of
the points check, and reuses them within the process.  Each kept walk also
keeps the latest BlockList built on it, returned again while the inputs of
its view are equal (on the quantum side always, on the modular side the
ambient field and the eta and lambda code tables): a repeated chi_s, or
another chi_s of the same walk and view, returns the same read-only list,
for any support.  The callers charge the points before the memo is read.
A regular chi (Phi' empty) neither walks nor is kept: each point is its own
block, with stabiliser Phi'.  An orbit of |W(Phi')| points is free, so no
root vanishes on it and its stabiliser is not classified.  A BlockList holds
the walk's columns (points, orbit sizes and the Kind of each point
stabiliser, built once per process, see Kind) and the answer's
per-coordinate tables; a block's report, a BlockRecord, is a view built
when the list is read.

Both sides also read a character's regularity and its structure record
here, beside support_indices, which normalises its support: is_regular (the
support is the whole basis of Phi') is PChar.regular and QChar.regular, and
structure_record builds what modular.regularity_and_structure returns and
quantum.q_regularity_and_counts extends: the regularity and fully-Azumaya
flags and, for a regular chi, the descriptor Mat_{q^N} (q = p or ell) over
the local components, the block dimensions of its BlockList.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .errors import BOUNDS, InvalidSupport, InvariantViolation, charge
from .rootdata import RootSystem, highest_root, subsystem_classify


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _ring_sum(coeffs, values):
    # sum_k values[k] * coeffs[k] over any ring, started at the first term
    # (no zero of the ring is needed), None without terms; for act_values
    # and the oracle selftest.pair
    terms = map(operator.mul, values, coeffs)
    return functools.reduce(operator.add, terms, next(terms, None))


class WeylElement:
    # __dict__ holds the cached_property values
    __slots__ = ("rs", "M", "Minv", "word", "__dict__")

    def __init__(self, rs, M, Minv, word):
        self.rs = rs
        self.M = M
        self.Minv = Minv
        self.word = word

    def apply_root(self, b):
        M = self.M
        r = self.rs.rank
        return tuple(sum(M[i][j] * b[j] for j in range(r)) for i in range(r))

    @functools.cached_property
    def length(self) -> int:
        return sum(1 for b in self.rs.pos_roots if min(self.apply_root(b)) < 0)

    def __mul__(self, other):
        return WeylElement(
            self.rs,
            _matmul(self.M, other.M),
            _matmul(other.Minv, self.Minv),
            self.word + other.word,
        )

    @functools.cached_property
    def _value_rows(self):
        # row i = coroot coefficients of w^{-1}(alpha_i)
        r = self.rs.rank
        return tuple(self.rs.coroot(tuple(self.Minv[k][i] for k in range(r)))
                     for i in range(r))

    def act_values(self, values):
        """(w lambda)(h_i) from lambda's values on the basis coroots."""
        return tuple(_ring_sum(row, values) for row in self._value_rows)

    @functools.cached_property
    def _torus_rows(self):
        # row i, column j = coroot coefficients of w(alpha_j), coordinate i
        r = self.rs.rank
        cols = [self.rs.coroot(tuple(self.M[k][j] for k in range(r))) for j in range(r)]
        return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))

    def act_torus_exponents(self, qs):
        """(w t)(K_{varpi_i}) = t(K_{w^{-1} varpi_i}) on exponent vectors."""
        return tuple(
            UnityExp(sum(Fraction(c) * q.q for c, q in zip(row, qs)))
            for row in self._torus_rows
        )

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.M == other.M

    def __hash__(self):
        return hash(self.M)

    def __repr__(self):
        w = "".join(f"s{i + 1}" for i in self.word) if self.word else "e"
        return f"W[{w}]"


class UnityExp:
    """The root of unity e^{2*pi*i*q} for an exact rational q mod 1."""

    __slots__ = ("q",)

    def __init__(self, q):
        q = Fraction(q)
        self.q = q - (q.numerator // q.denominator)  # reduce into [0, 1)

    def __mul__(self, k: int):
        return UnityExp(self.q * k)

    __rmul__ = __mul__

    def is_one(self):
        return self.q == 0

    def __eq__(self, other):
        return isinstance(other, UnityExp) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"e({self.q})"

    def __str__(self):
        return f"{self.q.numerator}/{self.q.denominator}"


def word_element(rs: RootSystem, word) -> WeylElement:
    """s_{i1} s_{i2} ... s_{ik} for the word (i1, ..., ik), from the Cartan
    matrix alone: column j of M is w(alpha_j), the last letter acting first,
    each s_i moving b by -(sum_k C[i][k] b_k) alpha_i; Minv is the same
    construction on the reversed word.  Every other WeylElement is a
    product of two."""
    word, r, C = tuple(word), rs.rank, rs.cartan

    def matrix(letters):
        cols = [[int(k == j) for k in range(r)] for j in range(r)]
        for b in cols:
            for i in reversed(letters):
                b[i] -= sum(map(operator.mul, C[i], b))
        return tuple(zip(*cols))

    return WeylElement(rs, matrix(word), matrix(word[::-1]), word)


def identity(rs: RootSystem) -> WeylElement:
    return word_element(rs, ())


def simple_reflection(rs: RootSystem, j: int) -> WeylElement:
    """s_j (0-based index)."""
    return word_element(rs, (j,))


class ExtendedDiagram(NamedTuple):
    """The extended Dynkin diagram of a root system, per component c: its
    highest root thetas[c], the coroot theta^vee (coroots[c]) and the word
    of s_theta (words[c]).  delta_tilde lists the simple roots, then -theta
    per component."""

    thetas: tuple
    coroots: tuple
    words: tuple
    delta_tilde: tuple


@functools.lru_cache(maxsize=None)
def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    """The extended Dynkin diagram of rs, built once per root system."""
    thetas = tuple(map(rs.highest_root, range(len(rs.components))))
    return ExtendedDiagram(
        thetas, tuple(map(rs.coroot, thetas)),
        tuple(tuple(nodes[k] for k in highest_root(letter, n)[1])
              for letter, n, nodes in rs.components),
        rs.simple_roots + tuple(tuple(-c for c in theta) for theta in thetas))


def alcove_descent(rs: RootSystem, x, D: int):
    """Carry a rational point into the closed fundamental alcove.

    x lists the integer numerators over D of the point's coroot coordinates
    (the point is sum_i (x_i / D) alpha_i^vee, so D alpha_j of it is sum_i
    C[i][j] x_i).  The point is first reduced mod Q^vee into [0, 1)^r;
    then s_j is applied while alpha_j(x) < 0, and the affine reflection s_0
    of a component (in the hyperplane theta = 1) while theta(x) > 1.  The
    values alpha_j(x) are updated in O(r) per s_j and recomputed after s_0.
    Returns (word, kac): the word (i1, ..., ik) of the finite part w =
    s_{i1} ... s_{ik} of the affine Weyl element used, so x' = w x + (an
    element of Q^vee) lies in the alcove, and kac holds per component the
    integer numerators over D of (s_0, s_j for the component's nodes), with
    s_j = alpha_j(x') and s_0 = 1 - theta(x').  Borel-de Siebenthal (Kac,
    Infinite-Dimensional Lie Algebras, Ch. 8): the roots integral on x' have
    as a simple system the Delta-tilde nodes with Kac coordinate 0, -theta
    standing for s_0.
    """
    C = rs.cartan
    ext = extended_diagram(rs)
    letters = []  # simple reflections in the order applied
    n = [v % D for v in x]
    v = [sum(map(operator.mul, col, n)) for col in zip(*C)]  # D alpha_j(x)
    while True:
        j = next((j for j, a in enumerate(v) if a < 0), None)
        if j is not None:
            # s_j moves x by -alpha_j(x) alpha_j^vee, so D alpha(x) by -v_j row j of C
            n[j] -= v[j]
            v = [b - v[j] * c for b, c in zip(v, C[j])]
            letters.append(j)
            continue
        over = [(k, c) for c, theta in enumerate(ext.thetas) if (k := _dot(theta, v) - D) > 0]
        if not over:
            break
        k, c = over[0]
        n = [a - k * h for a, h in zip(n, ext.coroots[c])]
        v = [sum(map(operator.mul, col, n)) for col in zip(*C)]
        letters.extend(ext.words[c])  # the finite part of s_0 is s_theta
    kac = tuple((D - _dot(theta, v),) + tuple(v[j] for j in nodes)
                for theta, (_l, _n, nodes) in zip(ext.thetas, rs.components))
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


def generated_group(rs: RootSystem, gens, order: int, type_str: str, bound=None):
    """The elements of the group generated by the Weyl elements `gens`, of
    the classified order `order` (type `type_str`), by breadth-first closure,
    sorted by (length, word).  BoundExceeded when the order exceeds the
    bound (the "group" check of errors.BOUNDS); InvariantViolation unless
    the closure has exactly `order` elements."""
    charge("group", bound, order, type_str)
    seen = orbit_of(identity(rs), [g.__mul__ for g in gens])
    if len(seen) != order:
        raise InvariantViolation(
            f"closure of the generators has {len(seen)} elements, "
            f"|W({type_str})| = {order}")
    return tuple(sorted(seen, key=lambda w: (w.length, w.word)))


def enumerate_group(rs: RootSystem, bound=None):
    """All Weyl group elements by breadth-first closure over the generators."""
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    return generated_group(rs, gens, rs.weyl_order(), rs.type_str, bound)


def integer_actions(rs: RootSystem, roots, on: str, modulus: int):
    """The reflections s_beta, beta in `roots`, as maps on flat integer tuples
    of one coefficient per coordinate.

    on="values": a point lists lambda(h_1), ..., lambda(h_r) mod `modulus`
    (= p), and s_beta lambda = lambda - lambda(h_beta) beta; on="torus": a
    point lists the exponent numerators of a torus element over the common
    denominator `modulus`, and s_beta t = t - beta(t) beta^vee.  Each map is
    rank one, x -> x - <x, beta> v_beta: the pairing row is beta^vee on
    values and beta(h_i) on exponents, and v_beta is the other row
    (beta(h_i) on values, beta^vee on exponents).  A
    point with pairing 0 is returned as it is.  The maps are F_p-linear, so
    on values in F_{p^e} they act on each coefficient slot alone.
    """
    roots = tuple(roots)
    other = "torus" if on == "values" else "values"
    return [_reflection(pairs, moves, modulus)
            for pairs, moves in zip(_pairing_terms(rs, roots, on),
                                    _pairing_terms(rs, roots, other))]


def _reflection(pairs, moves, modulus):
    # pairs, moves: the (index, coefficient) terms of the pairing and of v_beta
    def act(x):
        a = 0
        for k, c in pairs:
            a += c * x[k]
        if not a % modulus:
            return x
        y = list(x)
        for k, c in moves:
            y[k] = (x[k] - a * c) % modulus
        return tuple(y)
    return act


def integer_pairings(rs: RootSystem, on: str, modulus: int, roots=None):
    """The values of roots on a flat integer point of one coefficient per
    coordinate, as a map from the point to one integer per root mod
    `modulus`, zero iff the root vanishes on the point.  `roots` is None for
    rs.pos_roots, or a classified Subsystem for its positive roots (in the
    order of its height_steps).

    on="torus": a point lists exponent numerators n_i over the common
    denominator `modulus`; the value is sum_i beta(h_i) n_i, the numerator
    of beta(t)'s exponent, so beta(t) = 1 iff it is 0.  on="values": a point
    lists eta(h_1), ..., eta(h_r) mod p (= `modulus`); the value is
    eta(h_beta) = u(beta) / (|beta|^2/2) with u(beta) = sum_k d_k b_k eta_k,
    an exact division, as beta^vee has the integral coefficients d_k b_k /
    (|beta|^2/2).  Both sums are linear in beta, so a table is paired by
    height: each generator (simple root or basis root) is paired once, and
    every other root is its parent's value plus one generator's.  Values in
    F_{p^e} pair slot by slot (modular._values).
    """
    rows, steps, norms = _height_plan(rs, roots, on)

    def pairings(x):
        u = [sum(map(operator.mul, row, x)) for row in rows]  # the generators
        for j, i in steps:
            u.append(u[j] + u[i])
        if norms is None:
            return tuple([a % modulus for a in u])
        return tuple([a // n % modulus for a, n in zip(u, norms)])
    return pairings


@functools.lru_cache(maxsize=None)
def _height_plan(rs, roots, on):
    # the rows of the linear forms of the generators, which are listed
    # first, the (parent, generator) positions of every other root and, on
    # values of a type with roots of norm above 1, each root's norm
    if on not in ("torus", "values"):
        raise ValueError(f"unknown encoding {on!r}")
    listed, steps = (rs.pos_roots, rs.height_steps) if roots is None else roots.height_steps
    at = {i: n for n, (j, i) in enumerate(steps) if j < 0}  # generator i is listed at n
    gens = listed[:len(at)]
    rows = [rs.value_vec(g) if on == "torus" else tuple(map(operator.mul, rs.d, g)) for g in gens]
    norms = tuple(map(rs.norm, listed)) if on == "values" else ()
    return (tuple(rows), tuple((j, at[i]) for j, i in steps[len(at):]),
            norms if max(norms, default=1) > 1 else None)


@functools.lru_cache(maxsize=None)
def _pairing_terms(rs, roots, on):
    # per root, the (coordinate, coefficient) pairs of its row, as
    # integer_actions pairs and moves: beta(h_i) for exponents, the coroot
    # coefficients beta^vee_i for values
    if on == "torus":
        rows = map(rs.value_vec, roots)
    elif on == "values":
        rows = map(rs.coroot, roots)
    else:
        raise ValueError(f"unknown encoding {on!r}")
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def reflection_stabilizer(rs: RootSystem, predicate):
    """The classified subsystem {beta : predicate(beta)}, read on the
    positive roots; its Weyl group is <s_beta : predicate(beta)>."""
    sat = [b for b in rs.pos_roots if predicate(b)]
    return subsystem_classify(rs, sat + [tuple(map(operator.neg, b)) for b in sat])


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


def is_regular(levi, support) -> bool:
    """Regularity under the standard-Levi model, on both sides: the support,
    as support_indices gives it, is the whole basis of Phi' = `levi`."""
    return len(support) == len(levi.basis)


def structure_record(chi, q: int, blocks):
    """The structure record of a character chi of either side (its root
    system rs and its `regular` flag) at q = p or ell: `regular`,
    `fullyAzumaya` (the same flag) and `descriptor`, None unless chi is
    regular, and then the factor algebra over the regular sheet, Mat_{q^N}
    over the local components: their dimensions, sorted, are the local_dims
    of the BlockList blocks() returns, called only then."""
    regular = chi.regular
    return {"regular": regular, "fullyAzumaya": regular,
            "descriptor": {"matrix_size": q ** chi.rs.N, "local_dims": blocks().local_dims}
            if regular else None}


class _LRU:
    """The latest values, least recently used first, each kept with the
    weight its caller gives while their weights total at most `bound`: the
    least recently used are dropped first, and a value heavier than the
    bound is not kept.  Only a finished value is stored, so a make() that
    raises keeps nothing."""

    def __init__(self, bound):
        self.bound = bound
        self.clear()

    def clear(self):
        self.entries, self.total = {}, 0

    def get(self, ident, weight, make):
        # make(), kept under ident with its weight: from the memo when kept there
        entry = self.entries.pop(ident, None)
        if entry is None:
            entry = (weight, make())
            if weight > self.bound:
                return entry[1]
            self.total += weight
        self.entries[ident] = entry  # last in order: the most recently used
        while self.total > self.bound:
            self.total -= self.entries.pop(next(iter(self.entries)))[0]
        return entry[1]


# per (rs, Phi', encoding, modulus, axes), weighed by its points: the
# skeleton of the walk, the inputs of the latest list's view (None before
# the first list) and that list
_walks = _LRU(BOUNDS["points"][0])


def block_list(rs: RootSystem, levi, on: str, modulus: int, axes, inputs, make):
    """The BlockList of the blocks at chi, make(walked) for the walk of the
    orbits of W(Phi'), Phi' = `levi`, on the points itertools.product(*axes),
    `axes` listing r axes (encoded as for integer_pairings, each axis in the
    order of its sort key).  walked holds three columns: the least points,
    the orbit sizes and the subs, sub the classified subsystem of the roots
    vanishing on the point.  The caller checks the points bound first.  The
    walk depends on nothing else, so it is kept per (rs, Phi', encoding,
    modulus, axes) in this process, weighed by its points, with the latest
    list made on it: that list is returned again while `inputs`, what its
    view reads besides the walk (never None), are equal.  When Phi' is
    empty every point is a block of its own, listed without a walk, and
    nothing is kept."""
    if not levi.basis:  # W(Phi') = 1: each point is a block, fixed by Phi' itself
        walked = tuple(itertools.product(*axes))
        return make((walked, (1,) * len(walked), (levi,) * len(walked)))
    key = (rs, levi, on, modulus, tuple(map(tuple, axes)))
    kept = _walks.get(key, math.prod(map(len, axes)), lambda: [_walk_skeleton(*key), None, None])
    if kept[1] != inputs:
        kept[1:] = inputs, make(kept[0])
    return kept[2]


def _walk_skeleton(rs, levi, on, modulus, axes):
    # Only roots of Phi' can vanish on a point of the set (see mod_blocks,
    # q_blocks), so only they are paired, and none on a free orbit (of
    # |W(Phi')| points): its reflection would fix the point.  The root
    # system's subsystem memo classifies each distinct set of vanishing
    # roots once
    points, sizes = zip(*orbit_partition(itertools.product(*axes),
                                         integer_actions(rs, levi.basis, on, modulus)))
    signed = [(b, tuple(-c for c in b)) for b in levi.height_steps[0]]
    pairings = integer_pairings(rs, on, modulus, roots=levi)
    return points, sizes, tuple(
        subsystem_classify(rs, [r for pm, v in zip(signed, pairings(x)) if not v for r in pm]
                           if size < levi.order else ())
        for x, size in zip(points, sizes))


class Kind:
    """What a block's point stabiliser fixes (BlockRecord.kind).  Its fields
    are its class's __slots__, given positionally in that order, and are
    read-only.  Each side builds one kind per key in the process: the point
    stabiliser, Phi' and, on the modular side, whether chi is nilpotent.  So
    a kind is equal only to itself, and a caller keys by the kind object."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class BlockRecord(tuple):
    """The report of one block, a read-only view that a BlockList builds when
    it is read.  Its fields are its class's FIELDS, given positionally in
    that order.  One of them is `orbit_size`, and one is `kind`, the Kind of
    the block's point stabiliser `stabilizer` (the classified subsystem of
    the roots vanishing on the block's point), of the class named by the
    `kind` keyword of the report class; the report reads each field of its
    kind.  The kind fixes every to_dict field but orbit_size and the keys of
    the list's tables, and belongs to one report class."""

    __slots__ = ()
    FIELDS = ()
    stab_point_type = property(operator.attrgetter("kind.stabilizer.type_str"))
    unramified = property(lambda self: self.dim == 1)

    def __new__(cls, *fields):
        return tuple.__new__(cls, fields)

    def __init_subclass__(cls, kind=Kind):
        for i, name in enumerate(cls.FIELDS):
            setattr(cls, name, property(operator.itemgetter(i)))
        for name in kind.__slots__:
            setattr(cls, name, property(operator.attrgetter("kind." + name)))


class BlockList(Sequence):
    """The blocks of one answer, as columns: the least points and orbit
    sizes of `walked` (what block_list walks), the Kind of each block,
    kind(sub) of its sub, built once per distinct sub, and the answer's
    tables.  tables maps a to_dict key of the reports to r per-coordinate
    tables, each indexed by a point's coordinate: the report of point x
    lists tables[key][i][x[i]] under that key, in coordinate order.  dims
    counts the blocks of each dimension (a read-only mapping) and dim_sum
    sums their dimensions, both read off one count over the kinds.  len,
    iteration and indexing (an index or a slice) build the reports, views
    made by view(point, orbit size, kind), in the walk's order.  The
    columns, tables and counts are read-only, so one list can answer every
    caller that asks for it; `json` is left to the CLI, which keeps there
    what it has rendered of the list (cli._json_pieces), None until then."""

    __slots__ = ("points", "sizes", "kinds", "tables", "dims", "dim_sum", "_view", "json")

    def __init__(self, walked, kind, tables, view):
        self.points, self.sizes, subs = walked
        kinds = {sub: kind(sub) for sub in dict.fromkeys(subs)}  # in the order met
        self.kinds, self._view = tuple(map(kinds.__getitem__, subs)), view
        self.tables = MappingProxyType(dict(tables))
        dims = Counter(map(operator.attrgetter("dim"), self.kinds))
        self.dims, self.dim_sum = MappingProxyType(dims), sum(d * n for d, n in dims.items())
        self.json = None

    @property
    def local_dims(self):
        """The dimension of every block, sorted."""
        return sorted(itertools.chain.from_iterable(map(itertools.repeat, self.dims,
                                                        self.dims.values())))

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._view(self.points[i], self.sizes[i], self.kinds[i])

    def __iter__(self):
        return map(self._view, self.points, self.sizes, self.kinds)


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
    leaves `points`: the orbit sizes then sum past the number of points.
    Without generators every point is an orbit of its own."""
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
