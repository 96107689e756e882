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

Products are written A1xB2 (case-insensitive, no whitespace).
"""

from __future__ import annotations

import functools
import math
import re

from .errors import InvalidType, InvariantViolation, NotClosed
from .scalars import solve_linear

_TYPE_RE = re.compile(r"([A-G])(\d+)")

# Degrees of the basic invariants (Humphreys, Reflection Groups and Coxeter
# Groups, 3.7): |W| = prod d_i, N = sum (d_i - 1), and the Poincare
# polynomial of W is prod [d_i]_t with [d]_t = 1 + t + ... + t^(d-1).
DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(range(2, 2 * n - 1, 2)) + (n,),
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12),
                    7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[n],
    "F": lambda n: (2, 6, 8, 12),
    "G": lambda n: (2, 6),
}

INDEX_OF_CONNECTION = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}

BAD_PRIMES = {
    "A": (),
    "B": (2,),
    "C": (2,),
    "D": (2,),
    "E": (2, 3),  # E8 additionally excludes 5, handled below
    "F": (2, 3),
    "G": (2, 3),
}


def parse_cartan_type(s: str):
    """Parse 'A2', 'b3', 'A1xA1', ... into a tuple of (letter, rank) pairs."""
    if not s:
        raise InvalidType("empty Cartan type")
    comps = []
    for part in s.strip().split("x"):
        m = _TYPE_RE.fullmatch(part.strip().upper())
        if not m:
            raise InvalidType(f"cannot parse component {part!r}")
        letter, rank = m.group(1), int(m.group(2))
        comps.append(_validate_component(letter, rank))
    return tuple(comps)


def _validate_component(letter, rank):
    if letter == "A" and rank >= 1:
        return (letter, rank)
    if letter in ("B", "C"):
        if rank == 1:
            return ("A", 1)
        if rank >= 2:
            return (letter, rank)
    if letter == "D" and rank >= 3:
        return (letter, rank)
    if letter == "E" and rank in (6, 7, 8):
        return (letter, rank)
    if letter == "F" and rank == 4:
        return (letter, rank)
    if letter == "G" and rank == 2:
        return (letter, rank)
    raise InvalidType(f"invalid component {letter}{rank}")


def type_string(comps) -> str:
    return "x".join(f"{letter}{rank}" for letter, rank in comps) if comps else "1"


def _component_edges(letter, rank):
    """Edges (i, j, bond) with 0-based local nodes, plus symmetrizers d."""
    edges = []
    d = [1] * rank
    if letter == "A":
        edges = [(i, i + 1, 1) for i in range(rank - 1)]
    elif letter == "B":
        edges = [(i, i + 1, 1) for i in range(rank - 2)] + [(rank - 2, rank - 1, 2)]
        d = [2] * (rank - 1) + [1]
    elif letter == "C":
        edges = [(i, i + 1, 1) for i in range(rank - 2)] + [(rank - 2, rank - 1, 2)]
        d = [1] * (rank - 1) + [2]
    elif letter == "D":
        edges = [(i, i + 1, 1) for i in range(rank - 3)]
        if rank >= 3:
            edges += [(rank - 3, rank - 2, 1), (rank - 3, rank - 1, 1)]
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        edges = [(chain[i], chain[i + 1], 1) for i in range(len(chain) - 1)]
        edges.append((1, 3, 1))
    elif letter == "F":
        edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
        d = [2, 2, 1, 1]
    elif letter == "G":
        edges = [(0, 1, 3)]
        d = [1, 3]
    return edges, d


def _cartan_from_edges(rank, edges, d):
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, _bond in edges:
        # C[i][j] = (alpha_i, alpha_j) / d_i with (alpha_i, alpha_j) = -max(d_i, d_j)
        s = -max(d[i], d[j])
        C[i][j] = s // d[i]
        C[j][i] = s // d[j]
    return C


class RootSystem:
    """Immutable container for the combinatorial data of a root system."""

    def __init__(self, comps):
        self.ctype = comps
        self.type_str = type_string(comps)
        blocks = [(_component_edges(l, n), n) for l, n in comps]
        self.rank = sum(n for _, n in blocks)
        r = self.rank
        C = [[0] * r for _ in range(r)]
        d = []
        comp_nodes = []
        off = 0
        for (edges, dc), n in blocks:
            local = _cartan_from_edges(n, edges, dc)
            for i in range(n):
                for j in range(n):
                    C[off + i][off + j] = local[i][j]
            d.extend(dc)
            comp_nodes.append(tuple(range(off, off + n)))
            off += n
        self.cartan = tuple(tuple(row) for row in C)
        self.d = tuple(d)
        self.components = tuple(
            (l, n, comp_nodes[k]) for k, (l, n) in enumerate(comps)
        )
        self._build_roots()
        self._fundamental = None
        self._rho_weight_pairs = None
        self._subsystems = {}  # frozenset of roots -> Subsystem, see subsystem_classify

    # -- construction -------------------------------------------------------

    def _build_roots(self):
        r = self.rank
        C = self.cartan
        simple = self.simple_roots = tuple(
            tuple(int(i == j) for j in range(r)) for i in range(r))
        pos = set(simple)
        by_height = {1: list(simple)}
        h = 1
        while by_height.get(h):
            nxt = []
            for b in by_height[h]:
                for i in range(r):
                    # root string through b in direction alpha_i
                    back = 0
                    cur = b
                    while True:
                        cur = tuple(c - (1 if k == i else 0) for k, c in enumerate(cur))
                        if cur in pos:
                            back += 1
                        else:
                            break
                    pairing = sum(C[i][j] * b[j] for j in range(r))
                    if back - pairing > 0:
                        cand = tuple(c + (1 if k == i else 0) for k, c in enumerate(b))
                        if cand not in pos:
                            pos.add(cand)
                            nxt.append(cand)
            h += 1
            if nxt:
                by_height[h] = nxt
        self.pos_roots = tuple(sorted(pos, key=lambda b: (sum(b), b)))
        self.N = len(self.pos_roots)
        self._posset = frozenset(self.pos_roots)
        self._allset = self._posset | frozenset(self._neg(b) for b in self.pos_roots)
        # norms and coroots
        S = [[self.d[i] * self.cartan[i][j] for j in range(r)] for i in range(r)]
        self._norm = {}
        self._coroot = {}
        for b in self.pos_roots:
            nb2 = sum(b[i] * b[j] * S[i][j] for i in range(r) for j in range(r))
            if nb2 % 2:
                raise InvariantViolation(f"{self.type_str}: root {b} has odd norm {nb2}")
            db = nb2 // 2
            cv = []
            for i in range(r):
                num = self.d[i] * b[i]
                if num % db:
                    raise InvariantViolation(
                        f"{self.type_str}: coroot of {b} is not integral")
                cv.append(num // db)
            self._norm[b] = db
            self._coroot[b] = tuple(cv)
        # highest root per component
        self._highest = []
        a = [0] * r
        for letter, n, nodes in self.components:
            nodeset = set(nodes)
            comp_pos = [b for b in self.pos_roots
                        if set(k for k in range(r) if b[k]) <= nodeset]
            if len(comp_pos) != sum(d - 1 for d in DEGREES[letter](n)):
                raise InvariantViolation(
                    f"{letter}{n}: {len(comp_pos)} positive roots, degrees say otherwise")
            mx = [b for b in comp_pos
                  if all(self.leq(c, b) for c in comp_pos)]
            if len(mx) != 1:
                raise InvariantViolation(
                    f"{letter}{n}: {len(mx)} maximal roots, expected one")
            self._highest.append(mx[0])
            for k in nodes:
                a[k] = mx[0][k]
        self.a = tuple(a)

    @staticmethod
    def _neg(b):
        return tuple(-c for c in b)

    # -- queries -------------------------------------------------------------

    def is_root(self, b) -> bool:
        return b in self._allset

    def is_positive(self, b) -> bool:
        return b in self._posset

    def all_roots(self):
        return self._allset

    def coroot(self, b):
        """Coefficients of beta^vee on the simple coroots."""
        if b in self._coroot:
            return self._coroot[b]
        nb = self._neg(b)
        return tuple(-c for c in self._coroot[nb])

    def norm(self, b) -> int:
        """(beta, beta)/2 with short roots normalized to 1 per component."""
        return self._norm[b if b in self._norm else self._neg(b)]

    def highest_root(self, comp_idx: int = 0):
        return self._highest[comp_idx]

    def leq(self, b, c) -> bool:
        """Partial order: b <= c iff c - b has nonnegative coefficients."""
        return all(cb <= cc for cb, cc in zip(b, c))

    def value_vec(self, b):
        """beta's values on the basis coroots: (beta(h_1), ..., beta(h_r))."""
        r = self.rank
        return tuple(sum(self.cartan[i][j] * b[j] for j in range(r)) for i in range(r))

    def cartan_int(self, b, g) -> int:
        """<beta, gamma^vee> = beta(h_gamma)."""
        vv = self.value_vec(b)
        return sum(ci * vi for ci, vi in zip(self.coroot(g), vv))

    def reflect(self, i: int, b):
        """s_i(beta) on root coefficient vectors."""
        pairing = sum(self.cartan[i][j] * b[j] for j in range(self.rank))
        return tuple(c - (pairing if k == i else 0) for k, c in enumerate(b))

    def fundamental_weights(self):
        """The alpha-coordinates of the fundamental weights: row i lists
        varpi_i = sum_k X[i][k] alpha_k, the exact solution of C x = e_i."""
        if self._fundamental is None:
            solve, r = solve_linear(self.cartan), self.rank
            self._fundamental = tuple(tuple(solve([int(j == i) for j in range(r)]))
                                      for i in range(r))
        return self._fundamental

    def rho_weight_pairs(self):
        """The exact rationals (rho, varpi_i) for i = 1..r."""
        if self._rho_weight_pairs is None:
            self._rho_weight_pairs = tuple(
                sum(x[k] * self.d[k] for k in range(self.rank))
                for x in self.fundamental_weights())
        return self._rho_weight_pairs

    def weyl_order(self) -> int:
        return math.prod(degrees(self.components))

    def __repr__(self):
        return f"RootSystem({self.type_str})"


def degrees(components):
    """Degrees of the basic invariants of a product of (letter, rank, ...)."""
    return tuple(d for letter, n, *_ in components for d in DEGREES[letter](n))


def coxeter_type(letter, rank):
    """A component type up to Coxeter-graph equivalence (C->B, B1->A1)."""
    if letter == "C":
        letter = "B"
    if letter == "B" and rank == 1:
        letter = "A"
    return (letter, rank)


@functools.lru_cache(maxsize=None)
def _cached_system(canon: str) -> RootSystem:
    return RootSystem(parse_cartan_type(canon))


def build_root_system(ctype) -> RootSystem:
    """Root system for a Cartan type given as a string or component tuple."""
    if isinstance(ctype, str):
        comps = parse_cartan_type(ctype)
    else:
        comps = tuple(_validate_component(l, n) for l, n in ctype)
    return _cached_system(type_string(comps))


def two_rho_dot(rs: RootSystem, b) -> int:
    """(2*rho, beta) for beta in the root lattice, short roots of length^2 2."""
    return sum(bi * 2 * di for bi, di in zip(b, rs.d))


# -- subsystems ------------------------------------------------------------


class Subsystem:
    """A classified closed, negation-stable subset of a root system."""

    __slots__ = ("rs", "roots", "basis", "components", "type_str", "order",
                 "_parabolic", "_component_roots")

    def __init__(self, rs, roots, basis, components):
        self.rs = rs
        self.roots = roots
        self.basis = basis
        self.components = components  # tuple of (letter, rank, basis-subtuple)
        self.type_str = type_string([(l, n) for l, n, _ in components]) \
            if components else "1"
        self.order = math.prod(degrees(components))
        self._parabolic = None
        self._component_roots = None

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index_of_connection(self) -> int:
        return math.prod(INDEX_OF_CONNECTION[l](n) for l, n, _ in self.components) \
            if self.components else 1

    def coxeter_components(self):
        """Component types up to Coxeter-graph equivalence (C->B, B1->A1)."""
        return sorted(coxeter_type(l, n) for l, n, _ in self.components)

    def is_parabolic(self) -> bool:
        """Is this W-conjugate to a standard parabolic subsystem?  That holds
        exactly when it equals Phi inter span_Q(self) (Bourbaki, Lie Groups
        and Lie Algebras, Ch. VI 1.7): its basis is reduced once, and no
        positive root outside it may lie in its span.  Computed once."""
        if self._parabolic is None:
            solve = solve_linear([[b[i] for b in self.basis] for i in range(self.rs.rank)])
            self._parabolic = not any(b not in self.roots and solve(b) is not None
                                      for b in self.rs.pos_roots)
        return self._parabolic

    def component_roots(self):
        """The root set of each component, in the order of `components`.  A
        root lies in the one component whose basis it is not orthogonal to.
        Computed once per subsystem."""
        if self._component_roots is None:
            rs = self.rs
            values = [[rs.value_vec(a) for a in basis]
                      for _l, _n, basis in self.components]
            parts = [set() for _ in self.components]
            for b in self.roots:
                cb = rs.coroot(b)
                k = next(k for k, vs in enumerate(values)
                         if any(sum(x * y for x, y in zip(cb, v)) for v in vs))
                parts[k].add(b)
            self._component_roots = tuple(map(frozenset, parts))
        return self._component_roots

    def coset_poincare(self):
        """Coefficients of W(t)/W_self(t), the length generating function of
        the minimal coset representatives when this subsystem is a standard
        parabolic; each division by [d]_t = (1 - t^d)/(1 - t) is exact."""
        series = [1]
        for d in degrees(self.rs.components):
            series = [sum(series[max(0, i - d + 1):i + 1])
                      for i in range(len(series) + d - 1)]
        for d in degrees(self.components):
            # times (1 - t), then divided by (1 - t^d) with zero remainder
            num = [a - b for a, b in zip(series + [0], [0] + series)]
            series = []
            for i, c in enumerate(num):
                c += series[i - d] if i >= d else 0
                if i < len(num) - d:
                    series.append(c)
                elif c:
                    raise InvariantViolation(
                        f"[{d}]_t does not divide the Poincare series")
        return tuple(series)

    def __repr__(self):
        return f"Subsystem({self.type_str}, |W|={self.order})"


def check_closed(rs: RootSystem, roots) -> frozenset:
    """The roots as a frozenset S; NotClosed unless S = -S and S is closed
    under root addition.  Up to order and sign, a pair of S is a positive b
    with a later positive (2b is never a root) or with any negative."""
    S = frozenset(roots)
    for b in S:
        if tuple(-c for c in b) not in S:
            raise NotClosed(f"{b} in subset but not its negative")
    plus = [b for b in S if rs.is_positive(b)]
    minus = [tuple(-c for c in b) for b in plus]
    for i, b in enumerate(plus):
        for g in plus[i + 1:] + minus:
            s = tuple(x + y for x, y in zip(b, g))
            if rs.is_root(s) and s not in S:
                raise NotClosed(f"{b} + {g} is a root outside the subset")
    return S


def _classify_component(norms, nodes, m):
    """Classify one connected basis component from its Cartan integers m and
    the basis norms; returns (letter, rank, ordered)."""
    n = len(nodes)
    weights = {(i, j): m[i][j] * m[j][i] for i in nodes for j in nodes if i != j}
    adj = {i: [j for j in nodes if j != i and weights[(i, j)] > 0] for i in nodes}
    deg = {i: len(adj[i]) for i in nodes}
    maxw = max(weights.values()) if n > 1 else 0

    def path_order(start):
        order = [start]
        prev = None
        while len(order) < n:
            nxts = [j for j in adj[order[-1]] if j != prev]
            prev = order[-1]
            order.append(nxts[0])
        return order

    if n == 1:
        return ("A", 1, tuple(nodes))
    if maxw == 3:
        if n != 2:
            raise InvariantViolation(f"a triple bond in a component of rank {n}")
        i, j = nodes
        short, longn = (i, j) if norms[i] < norms[j] else (j, i)
        return ("G", 2, (short, longn))
    if maxw == 2:
        dbl = [e for e, w in weights.items() if w == 2 and e[0] < e[1]]
        if len(dbl) != 1:
            raise InvariantViolation(f"{len(dbl)} double bonds in one component")
        u, v = dbl[0]
        if n == 2:
            longn, short = (u, v) if norms[u] > norms[v] else (v, u)
            return ("B", 2, (longn, short))
        if deg[u] == 2 and deg[v] == 2:
            if n != 4:
                raise InvariantViolation(
                    f"a double bond between two inner nodes in rank {n}")
            ends = [i for i in nodes if deg[i] == 1]
            start = next(e for e in ends if norms[e] == max(norms[x] for x in ends))
            return ("F", 4, tuple(path_order(start)))
        leaf = u if deg[u] == 1 else v
        other_end = next(i for i in nodes if deg[i] == 1 and i != leaf)
        letter = "B" if norms[leaf] < norms[other_end] else "C"
        return (letter, n, tuple(path_order(other_end)))
    # simply laced
    branchers = [i for i in nodes if deg[i] >= 3]
    if not branchers:
        ends = [i for i in nodes if deg[i] <= 1]
        orders = [path_order(e) for e in ends[:2]] or [list(nodes)]
        best = min(orders, key=lambda o: tuple(o))
        return ("A", n, tuple(best))
    if len(branchers) != 1 or deg[branchers[0]] != 3:
        raise InvariantViolation(
            f"simply-laced component with branch degrees {sorted(deg.values())}")
    c = branchers[0]
    branches = []
    for start in adj[c]:
        br = [start]
        prev = c
        while True:
            nxts = [j for j in adj[br[-1]] if j != prev]
            if not nxts:
                break
            prev = br[-1]
            br.append(nxts[0])
        branches.append(br)
    branches.sort(key=len)
    lens = tuple(len(b) for b in branches)
    if lens[0] == 1 and lens[1] == 1:
        # D_{k+3} with k = lens[2]; Bourbaki: long branch reversed, fork last
        tail = branches[2][::-1]
        forks = sorted([branches[0][0], branches[1][0]])
        return ("D", n, tuple(tail + [c] + forks))
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        arm2, arm_a, arm_b = branches[0], branches[1], branches[2]
        # Bourbaki: chain 1-3-4-...-r through the brancher, node 2 at the fork
        chain = arm_a[::-1] + [c] + arm_b
        order = [chain[0], arm2[0], chain[1]] + chain[2:]
        return ("E", n, tuple(order))
    raise NotClosed(f"basis graph is not a Dynkin diagram (branches {lens})")


def subsystem_classify(rs: RootSystem, roots) -> Subsystem:
    """Classify a negation-closed, addition-closed subset of the roots.

    The basis consists of the positive members not expressible as a sum of
    two positive members; its Dynkin graph is classified per component.
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
    Splus = sorted((b for b in S if rs.is_positive(b)), key=lambda b: (sum(b), b))
    plus_set = set(Splus)
    basis = tuple(b for b in Splus
                  if not any(tuple(x - y for x, y in zip(b, g)) in plus_set for g in Splus))
    if not basis:
        return Subsystem(rs, S, (), ())
    k = len(basis)
    m = [[rs.cartan_int(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    norms = [rs.norm(b) for b in basis]
    # connected components of the basis graph
    seen = set()
    comps = []
    for i in range(k):
        if i in seen:
            continue
        stack, comp = [i], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            comp.append(u)
            stack.extend(v for v in range(k)
                         if v not in seen and m[u][v] * m[v][u] > 0)
        comps.append(sorted(comp))
    classified = []
    for comp in comps:
        letter, n, order = _classify_component(norms, comp, m)
        classified.append((letter, n, tuple(basis[i] for i in order)))
    classified.sort(key=lambda t: (t[0], t[1], t[2]))
    return Subsystem(rs, S, basis, tuple(classified))


def hypothesis_check(ctype, p: int) -> dict:
    """Good-prime and trace-form flags for the standing hypotheses."""
    comps = parse_cartan_type(ctype) if isinstance(ctype, str) else tuple(ctype)
    good = True
    trace_ok = True
    for letter, rank in comps:
        bad = set(BAD_PRIMES[letter])
        if letter == "E" and rank == 8:
            bad.add(5)
        if p in bad:
            good = False
        if letter == "A" and (rank + 1) % p == 0:
            trace_ok = False
    return {
        "goodPrime": good,
        "traceFormOK": trace_ok,
        "oddPrime": p % 2 == 1,
        "ok": good and trace_ok and p % 2 == 1,
    }
