"""Seeded query generators for the three workloads.

A workload is a fixed *round*: a list of strata, each drawing one query from
a cell (type, p or ell, kind of input) whose cost is nearly the same for every
draw.  The seed picks the characters, weights, torus points and supports
inside each cell and shuffles the order of every round; it never changes how
many queries of each stratum a round holds.  Fixed composition is what keeps
the per-round wall time and the latency quantiles steady across seeds, while
the drawn inputs still differ.

No input repeats within a run: every drawn query is checked against the set
of inputs already used (warm-up included), so warm-up inputs never reach the
timed list.  The number of rounds a run may use is capped by MAX_ROUNDS, which
the smallest cells (8 supports on a rank-3 nilpotent cell) can supply.

The generators import lieram lazily: a cell that is stratified by its Levi
type needs the engine's own classification of the drawn character, and the
benchmark's set-up timing starts before lieram is imported.
"""

from __future__ import annotations

import random
from fractions import Fraction

MAX_ROUNDS = 8
DEFAULT_SEED = 0


class Query:
    """One benchmark query on a Cartan type `ctype`.

    A query with argv runs lieram.cli.main(argv).  A query with spec (type,
    p, value coefficient pairs, support) runs the public calls
    cmd_modular_blocks makes, for F_{p^2} characters the CLI grammar cannot
    write.
    """

    __slots__ = ("label", "ctype", "argv", "spec")

    def __init__(self, label, ctype, argv=None, spec=None):
        self.label = label
        self.ctype = ctype
        self.argv = argv
        self.spec = spec

    @property
    def ident(self) -> str:
        if self.argv is not None:
            return " ".join(self.argv)
        t, p, coeffs, support = self.spec
        vals = ";".join(f"{a}+{b}x" for a, b in coeffs)
        sup = ",".join(str(s + 1) for s in support)
        return f"api modular blocks --type {t} --p {p} --chi-s-fp2 {vals} --support {sup}"

    def __repr__(self):
        return f"Query({self.ident})"


def _rank(t: str) -> int:
    return int(t[1:])


def _csv(items):
    return ",".join(str(x) for x in items)


_ANY = None  # a stratum that accepts every Levi type


# -- modular samplers --------------------------------------------------------

def nilpotent_blocks(t, p):
    """chi = 0 with random support; Phi' is the whole root system."""
    def draw(rng):
        argv = ["modular", "blocks", "--type", t, "--p", str(p),
                "--chi-s", _csv([0] * _rank(t))]
        return Query("modular blocks", t, _with_support(rng, argv, _rank(t)))
    return draw


def weight_probe(cmd, t, p):
    def draw(rng):
        w = [rng.randrange(p) for _ in range(_rank(t))]
        argv = ["modular", cmd, "--type", t, "--p", str(p), "--weight", _csv(w)]
        return Query(f"modular {cmd}", t, argv)
    return draw


def _draw_until(draw_one, accept):
    """Rejection sampling with a hard stop, so an empty cell fails loudly."""
    for _ in range(10000):
        x = draw_one()
        if accept(x):
            return x
    raise RuntimeError("no input in this cell satisfies the stratum")


def _levi_of(t, p, values, field):
    from lieram import PChar, build_root_system
    return PChar(build_root_system(t), p, values=values, field=field).levi


def _with_support(rng, argv, n):
    """Append a random support on an n-element basis of Phi'."""
    support = [i for i in range(n) if rng.random() < 0.5]
    if support:
        argv += ["--support", _csv(s + 1 for s in support)]
    return argv


def _levi_ok(levi, levi_types):
    return levi_types is _ANY or levi.type_str in levi_types


def fp_blocks(t, p, levi_types):
    """Semisimple chi with random F_p values whose Levi (mixed, or "1" for a
    regular character) has one of the given types."""
    def draw(rng):
        from lieram import make_field
        field = make_field(p, 1)
        r = _rank(t)

        def one():
            vals = [rng.randrange(p) for _ in range(r)]
            if not any(vals):
                return vals, None
            return vals, _levi_of(t, p, tuple(field.from_int(v) for v in vals), field)
        vals, levi = _draw_until(one, lambda x: x[1] is not None
                                 and _levi_ok(x[1], levi_types))
        argv = ["modular", "blocks", "--type", t, "--p", str(p), "--chi-s", _csv(vals)]
        return Query("modular blocks", t, _with_support(rng, argv, len(levi.basis)))
    return draw


def as_blocks(t, p, n_as, levi_types):
    """Semisimple chi with n_as Artin-Schreier literals AS(c), c != 0, so the
    ambient field is F_{p^p}; the other coordinates are random integers."""
    def draw(rng):
        from lieram.cli import parse_field_values
        r = _rank(t)

        def one():
            slots = set(rng.sample(range(r), n_as))
            text = _csv(f"AS({rng.randrange(1, p)})" if i in slots else str(rng.randrange(p))
                        for i in range(r))
            values, field = parse_field_values(text, p, r, 10**9)
            return text, _levi_of(t, p, values, field)
        text, levi = _draw_until(one, lambda x: _levi_ok(x[1], levi_types))
        argv = ["modular", "blocks", "--type", t, "--p", str(p), "--chi-s", text]
        return Query("modular blocks", t, _with_support(rng, argv, len(levi.basis)))
    return draw


def fp2_blocks(t, p, levi_types):
    """Semisimple chi with values in F_{p^2}, one of nonzero trace, so that
    Lambda_chi lives in F_{p^{2p}}; the CLI cannot write these, so the query
    runs the public calls directly."""
    def draw(rng):
        from lieram import make_field
        field = make_field(p, 2)
        r = _rank(t)

        def one():
            coeffs = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(r))
            values = tuple(field.elem(c) for c in coeffs)
            if not any(v.trace_to_prime() for v in values):
                return coeffs, None  # Lambda_chi would stay in F_{p^2}
            return coeffs, _levi_of(t, p, values, field)
        coeffs, levi = _draw_until(one, lambda x: x[1] is not None
                                   and _levi_ok(x[1], levi_types))
        support = tuple(i for i in range(len(levi.basis)) if rng.random() < 0.5)
        return Query("modular blocks (F_p^2 values, public API)", t,
                     spec=(t, p, coeffs, support))
    return draw


# -- quantum samplers --------------------------------------------------------

_DENOMS = (2, 3, 4, 5, 6, 8, 9, 10, 12)


def _torus(rng, r, denoms=_DENOMS):
    out = []
    for _ in range(r):
        d = rng.choice(denoms)
        out.append(str(Fraction(rng.randrange(d), d)))
    return out


def q_blocks(t, ell, levi_types):
    """Torsion chi_s with random denominators whose Levi (the centralizer of
    chi_s^2) has one of the given types; random support on its basis."""
    def draw(rng):
        from lieram import QChar, TorusElement, build_root_system
        rs = build_root_system(t)

        def one():
            exps = _torus(rng, rs.rank)
            return exps, QChar(rs, ell, chi_s=TorusElement(tuple(map(Fraction, exps))))
        exps, chi = _draw_until(one, lambda x: _levi_ok(x[1].levi, levi_types))
        argv = ["quantum", "blocks", "--type", t, "--ell", str(ell), "--chi-s", _csv(exps)]
        return Query("quantum blocks", t, _with_support(rng, argv, len(chi.levi.basis)))
    return draw


def q_probe(t, ell):
    def draw(rng):
        exps = _torus(rng, _rank(t))
        argv = ["quantum", "unramified", "--type", t, "--ell", str(ell),
                "--torus", _csv(exps), "--coords", "both"]
        return Query("quantum unramified", t, argv)
    return draw


def per_type(cmd, pool):
    """One row query on a type drawn from pool; each type once per run."""
    def draw(rng):
        t = rng.choice(pool)
        return Query(" ".join(cmd), t, list(cmd) + ["--type", t])
    return draw


# -- the workloads -------------------------------------------------------------

def _round(*groups):
    out = []
    for count, draws in groups:
        for i in range(count):
            out.append(draws[i % len(draws)])
    return out


_NIL_CELLS = [("A3", 5), ("A3", 7), ("B3", 5), ("B3", 7), ("C3", 5), ("C3", 7),
              ("D4", 5), ("A4", 7)]
_CLASSICAL = [("A3", 5), ("A3", 7), ("B3", 5), ("B3", 7), ("C3", 5), ("C3", 7),
              ("D4", 5), ("D4", 7), ("A4", 7), ("B4", 5), ("C4", 7)]
_F4 = [("F4", 5), ("F4", 7)]

_EXC_SMALL = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
              "F4", "G2"]
_EXC_MID = ["A5", "A6", "B5", "B6", "C5", "C6", "D5", "D6", "E6"]
_APPENDIX = _EXC_SMALL + _EXC_MID + ["A7", "A8", "B7", "B8", "C7", "C8", "D7", "D8",
                                     "E7", "E8"]


class Workload:
    def __init__(self, name, types, fields, round_, warmup):
        self.name = name
        self.types = types        # every Cartan type a query touches
        self.fields = fields      # every (p, e) field, Artin-Schreier extensions too
        self.round = round_       # list of draw functions, one per query
        self.warmup = warmup


# Strata are sized so that the latency quantiles fall inside a group of
# queries of like cost, never on the edge between two groups: on
# mod-nilpotent the 90th percentile sits mid-way through the F4 Poincare
# probes (after the A4 and D4 blocks) and the median among the unramified
# probes; on mod-semisimple the median sits among the rank-2 p=7 blocks and
# the 90th percentile among the rank-3 blocks.
WORKLOADS = {
    "mod-nilpotent": Workload(
        "mod-nilpotent",
        types=sorted({t for t, _ in _CLASSICAL + _F4} | {"A2"}),
        fields=[(5, 1), (7, 1)],
        round_=_round(
            (8, [nilpotent_blocks(t, p) for t, p in _NIL_CELLS]),
            (8, [weight_probe("poincare", t, p) for t, p in _F4]),
            (4, [weight_probe("poincare", t, p) for t, p in _CLASSICAL[::-1]]),
            (8, [weight_probe("finite-type", t, p) for t, p in _F4 + _CLASSICAL]),
            (32, [weight_probe("unramified", t, p) for t, p in _CLASSICAL]),
        ),
        warmup=[nilpotent_blocks("A2", 5)]
        + [weight_probe("poincare", t, p) for t, p in _CLASSICAL + _F4],
    ),
    "mod-semisimple": Workload(
        "mod-semisimple",
        types=["A2", "A3", "B2", "B3", "C3", "G2"],
        fields=[(5, 1), (5, 2), (5, 5), (5, 10), (7, 1), (7, 7)],
        round_=_round(
            (3, [fp_blocks(t, 5, ("A1",)) for t in ("A2", "B2", "G2")]),
            (3, [as_blocks(t, 5, 1, ("1",)) for t in ("A2", "B2", "G2")]),
            (2, [fp2_blocks(t, 5, ("1",)) for t in ("A2", "B2")]),
            (9, [fp_blocks("A2", 7, ("1",)), fp_blocks("B2", 7, ("1",)),
                 fp_blocks("G2", 7, ("A1",))]),
            (4, [as_blocks(t, 7, 1, ("1",)) for t in ("A2", "B2")]),
            (1, [as_blocks("G2", 7, 1, ("1",))]),
            (3, [fp_blocks("B3", 5, ("A1",)), fp_blocks("C3", 7, ("B2",)),
                 fp_blocks("A3", 7, ("A2",))]),
            (2, [as_blocks("B3", 5, 1, ("A1",)), as_blocks("A3", 7, 2, ("A1",))]),
            (1, [fp2_blocks("A3", 5, ("1",))]),
        ),
        warmup=[fp_blocks("A2", 5, ("1",)), as_blocks("A2", 7, 1, ("A1",)),
                as_blocks("A2", 5, 1, ("A1",)), fp2_blocks("A2", 5, ("A1",))],
    ),
    "quantum": Workload(
        "quantum",
        types=sorted({"A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"}
                     | set(_APPENDIX)),
        fields=[],
        round_=_round(
            (12, [q_blocks(t, ell, _ANY) for t in ("A2", "B2", "G2") for ell in (5, 7)]),
            (3, [q_blocks("A3", 5, ("A1",)), q_blocks("B3", 5, ("A1xA1",)),
                 q_blocks("C3", 5, ("A1xA1",))]),
            (2, [q_blocks("D4", 5, ("D4",)), q_blocks("B4", 5, ("B4",))]),
            (10, [q_probe(t, ell) for t in ("A4", "B4", "C4", "D4", "F4")
                  for ell in (5, 7)]),
            (2, [per_type(("quantum", "exceptional"), _EXC_SMALL),
                 per_type(("quantum", "exceptional"), _EXC_MID)]),
            (4, [per_type(("verify", "appendix"), _APPENDIX)]),
        ),
        warmup=[q_blocks("A2", 5, _ANY), q_probe("F4", 5), q_probe("A4", 7)],
    ),
}


class Stream:
    """The seeded, repetition-free query stream of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.used = set()

    def _fresh(self, draw):
        for _ in range(1000):
            q = draw(self.rng)
            if q.ident not in self.used:
                self.used.add(q.ident)
                return q
        raise RuntimeError(f"cell exhausted: {q.ident}")

    def warmup(self):
        return [self._fresh(d) for d in self.workload.warmup]

    def next_round(self):
        qs = [self._fresh(d) for d in self.workload.round]
        self.rng.shuffle(qs)
        return qs
