"""The characteristic-p side: Lambda_chi, blocks, component dimensions,
unramified criteria, Poincare series and finite-representation-type verdicts.

Two coordinate systems are used side by side and every report carries both:
highest-weight coordinates lambda (baby Verma labels) and Harish-Chandra
coordinates eta = lambda + rho.  Component dimensions, stabilizers and the
unramified criteria are all computed on eta; block linkage is the dot action
on lambda, equivalently the ordinary action on eta.

Characters follow the standard-Levi model: the semisimple part is given by
its values c_i = chi(h_i) in some F_{p^e}, the nilpotent part by the subset
of the centralizer subsystem's basis on which it is regular.
"""

from __future__ import annotations

import itertools

from .errors import HypothesisFailure, InvariantViolation, NonPrime, NoParabolicConjugate
from .errors import NotNilpotentContext
from .rootdata import RootSystem, coxeter_type, hypothesis_check, subsystem_classify
from .scalars import artin_schreier_solve, embed, is_prime, make_field
from .weyl import (
    block_stabilizers,
    integer_actions,
    integer_pairings,
    orbit_partition,
    reflection_stabilizer,
    stabilizer_reflections,
    subsystem_index,
    support_indices,
)


class ModWeight:
    """Element of h* given by its values on the basis coroots."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)

    @property
    def field(self):
        return self.values[0].field

    def key(self):
        return tuple(v.coeffs for v in self.values)

    def __add__(self, other):
        return ModWeight(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        return ModWeight(tuple(a - b for a, b in zip(self.values, other.values)))

    def in_lambda(self) -> bool:
        """Membership in X/pX: every coordinate is Frobenius-fixed."""
        return all(v.in_prime_field() for v in self.values)

    def __eq__(self, other):
        return isinstance(other, ModWeight) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"ModWeight({', '.join(map(str, self.values))})"


def rho_weight(rs: RootSystem, field) -> ModWeight:
    return ModWeight(tuple(field.one() for _ in range(rs.rank)))


def check_hypotheses(rs: RootSystem, p: int):
    """Raise HypothesisFailure unless p meets the standing hypotheses for rs:
    an odd good prime with a nondegenerate trace form; NonPrime first unless
    p is prime."""
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    hyp = hypothesis_check(rs.ctype, p)
    if not hyp["ok"]:
        raise HypothesisFailure(
            f"(type {rs.type_str}, p={p}) fails hypotheses: {hyp}")


class PChar:
    """chi = chi_s + chi_n with semisimple values and standard-Levi support.

    support is a tuple of 0-based indices into the basis of the centralizer
    subsystem Phi' = {alpha : chi(h_alpha) = 0}.
    """

    def __init__(self, rs, p, values=None, support=(), field=None):
        check_hypotheses(rs, p)
        self.rs = rs
        self.p = p
        if field is None:
            field = make_field(p, 1) if values is None else values[0].field
        if values is None:
            values = tuple(field.zero() for _ in range(rs.rank))
        if field.p != p or any(v.field != field for v in values):
            raise ValueError(
                "character values must share one ambient field of characteristic p")
        self.field = field
        self.values = tuple(values)
        vals = _pairings(rs, self.values, field)
        self.levi = reflection_stabilizer(rs, lambda b: not any(vals[b]))
        self.support = support_indices(self.levi, support)

    @property
    def nilpotent(self) -> bool:
        return all(v.is_zero() for v in self.values)

    @property
    def regular(self) -> bool:
        """Regular under the standard-Levi model: support = full basis of Phi'."""
        return set(self.support) == set(range(len(self.levi.basis)))

    def __repr__(self):
        return (f"PChar({self.rs.type_str}, p={self.p}, "
                f"c=({', '.join(map(str, self.values))}), S={self.support})")


def enumerate_lambda_chi(chi: PChar, bound=None):
    """The p^r weights solving lambda(h_i)^p - lambda(h_i) = chi(h_i)^p.

    Returns (weights, ambient field); the set is base + F_p^r, listed with the
    F_p-translate in lex order.
    """
    base, ambient = _lambda_base(chi, bound)
    return [ModWeight(b + ambient.from_int(k) for b, k in zip(base, d))
            for d in itertools.product(range(chi.p), repeat=chi.rs.rank)], ambient


def _lambda_base(chi: PChar, bound):
    # one point of Lambda_chi, as values in the ambient field, and that field
    sols, fields = zip(*(artin_schreier_solve(c ** chi.p, bound) for c in chi.values))
    ambient = max(fields, key=lambda f: f.e)
    return tuple(embed(x, ambient) for x in sols), ambient


def _weight(f, code):
    return ModWeight(f.elem(code[i:i + f.e]) for i in range(0, len(code), f.e))


# -- stabilizer subsystems on Harish-Chandra labels --------------------------

def _pairings(rs: RootSystem, values, field):
    """eta(h_beta) for every positive root beta, as its coefficient tuple mod
    p, from the values eta(h_i) in `field`."""
    if any(v.field != field for v in values):
        raise ValueError("elements of different fields")
    pairings = integer_pairings(rs, "values", field.p, field.e)
    return dict(zip(rs.pos_roots, pairings(_code(values, field.e))))


def _code(values, e):
    """Values in F_{p^e} as one flat tuple: each value's coefficients padded
    to e."""
    pad = (0,) * e
    return tuple(c for v in values for c in (v.coeffs + pad)[:e])


def eta_subsystems(rs: RootSystem, eta: ModWeight):
    """(zero, fp): the classified subsystems {alpha : eta(h_alpha) = 0} and
    {alpha : eta(h_alpha) in F_p}."""
    vals = _pairings(rs, eta.values, eta.field)
    zero = reflection_stabilizer(rs, lambda b: not any(vals[b]))
    fp = reflection_stabilizer(rs, lambda b: not any(vals[b][1:]))
    return zero, fp


def dim_C(rs: RootSystem, eta: ModWeight) -> int:
    """dim of the primary component at eta: [W(eta + Lambda) : W(eta)],
    computed from the classified subsystem orders."""
    zero, fp = eta_subsystems(rs, eta)
    return subsystem_index(zero, fp)


def is_unramified(rs: RootSystem, lam: ModWeight, mode: str = "simpleRootCriterion") -> bool:
    """Unramified test for the block of the baby Verma with highest weight lam.

    simpleRootCriterion: no simple alpha with (lam+rho)(h_alpha) in F_p - {0}.
    definitional: the component dimension at eta = lam + rho is 1.
    """
    field = lam.field
    eta = lam + rho_weight(rs, field)
    if mode == "simpleRootCriterion":
        for v in eta.values:
            if v.in_prime_field() and not v.is_zero():
                return False
        return True
    if mode == "definitional":
        return dim_C(rs, eta) == 1
    raise ValueError(f"unknown mode {mode!r}")


# -- blocks ------------------------------------------------------------------

class BlockReport:
    """Per-block record: both coordinate systems, orbit size, dimension,
    unramified flag, stabilizer types, Poincare series, finite-type verdict."""

    __slots__ = ("lam", "eta", "orbit_size", "dim", "unramified",
                 "stab_point_type", "stab_coset_type", "poincare",
                 "finite_type", "finite_type_witness")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_dict(self):
        return {
            "lambda": [list(v.coeffs) for v in self.lam.values],
            "eta": [list(v.coeffs) for v in self.eta.values],
            "orbit_size": self.orbit_size,
            "dim": self.dim,
            "unramified": self.unramified,
            "stabilizer_types": {"point": self.stab_point_type,
                                 "coset": self.stab_coset_type},
            "poincare": list(self.poincare) if self.poincare is not None else None,
            "finite_type": self.finite_type,
            "finite_type_witness": self.finite_type_witness,
        }


def mod_blocks(chi: PChar, bound=None):
    """Blocks of the reduced algebra at chi: the partition of Lambda_chi under
    the dot action (ordinary action on eta = lambda + rho) of Stab_W(chi).
    BoundExceeded when the ambient field of Lambda_chi, or the p^r points of
    Lambda_chi and the W-orbit of chi, exceed `bound` (each check has its own
    default).  eta(h_beta)^p - eta(h_beta) = chi(h_beta)^p, so
    eta(h_beta) is in F_p iff beta is in Phi' = chi.levi, and only then can it
    vanish; InvariantViolation unless the first eta, paired in full, agrees.
    The walk runs on the r constant terms of eta: Lambda_chi + rho = Lambda_chi
    = base + F_p^r, and generators fixing chi keep the base's other slots."""
    rs, levi = chi.rs, chi.levi
    gens = stabilizer_reflections(
        rs, levi, _code(chi.values, chi.field.e), "values", chi.p,
        chi.field.e, chi.p**rs.rank, bound)
    base, ambient = _lambda_base(chi, bound)
    p, e = ambient.p, ambient.e
    full = list(_code(base, e))

    def code(x):
        # the point of Lambda_chi with constant terms x, in all e slots
        full[::e] = x
        return tuple(full)

    def key(x):
        # the constant terms of lambda = eta - rho (rho is 1 in each)
        return tuple([(c - 1) % p for c in x])

    points = list(itertools.product(range(p), repeat=rs.rank))
    classes = orbit_partition(points, integer_actions(rs, gens, "values", p), key)
    first = integer_pairings(rs, "values", p, e)(code(classes[0][0]))
    if any((not any(v[1:])) != (b in levi.roots) for b, v in zip(rs.pos_roots, first)):
        raise InvariantViolation("the roots with eta(h_beta) in F_p are not Phi'")

    stabilizer = block_stabilizers(rs, levi, "values", p, lambda zero: (
        _poincare(zero) if chi.nilpotent else None,
        *_finite_type(rs, zero, levi, False)))
    reports = []
    for cls in classes:
        zero, dim, (poincare, verdict, witness) = stabilizer(cls[0])
        differing = witness["differing_component"]  # each report gets a copy
        reports.append(BlockReport(
            lam=_weight(ambient, code(key(cls[0]))),
            eta=_weight(ambient, code(cls[0])),
            orbit_size=len(cls), dim=dim, unramified=(dim == 1),
            stab_point_type=zero.type_str, stab_coset_type=levi.type_str,
            poincare=poincare, finite_type=verdict, finite_type_witness={
                **witness, "differing_component": differing and dict(differing)}))
    return reports


def unramified_count(chi: PChar, blocks=None, bound=None):
    """Predicted p^s (s = r - rank Phi') versus enumerated unramified blocks."""
    if blocks is None:
        blocks = mod_blocks(chi, bound)
    s = chi.rs.rank - len(chi.levi.basis)
    predicted = chi.p**s
    enumerated = sum(1 for b in blocks if b.unramified)
    return {"predicted": predicted, "enumerated": enumerated, "s": s,
            "agree": predicted == enumerated}


def poincare_series(rs: RootSystem, eta: ModWeight):
    """Coefficients of P(C_eta, t): minimal coset representatives of W(eta),
    once conjugated to a standard parabolic W_J, counted by length.  That sum
    is W(t)/W_J(t), read from the degrees of W and of W(eta)'s type.

    Requires a nilpotent context (all coordinates of eta in F_p)."""
    if not eta.in_lambda():
        raise NotNilpotentContext("Poincare series needs all coordinates in F_p")
    vals = _pairings(rs, eta.values, eta.field)
    return _poincare(reflection_stabilizer(rs, lambda b: not any(vals[b])))


def _poincare(zero):
    if not zero.is_parabolic():
        raise NoParabolicConjugate(
            "no W-conjugate of eta has a stabilizer generated by simple reflections")
    return zero.coset_poincare()


def finite_type_verdict(rs: RootSystem, eta: ModWeight,
                        assume_unique_simple: bool = False):
    """Finite-representation-type classification of the block at eta.

    Returns (verdict, witness).  Necessity: the stabilizer pair must differ in
    rank by one and the differing connected component pair must be one of
    (A_n, A_{n-1}), (B_n, B_{n-1}) or (G2, A1) up to Coxeter equivalence.
    Sufficiency additionally needs the unique-simple-module hypothesis, which
    is not decidable here: without `assume_unique_simple` the best positive
    verdict is "unknown-boundary".
    """
    zero, fp = eta_subsystems(rs, eta)
    return _finite_type(rs, zero, fp, assume_unique_simple)


def _finite_type(rs, small, big, assume_unique_simple):
    small_roots = small.roots
    witness = {"point_type": small.type_str, "coset_type": big.type_str,
               "differing_component": None}
    if small_roots == big.roots:
        return "semisimple", witness
    if small.rank != big.rank - 1:
        return "infinite", witness
    differing = []
    for (letter, n, _basis), comp_roots in zip(big.components, big.component_roots()):
        inter = comp_roots & small_roots
        if inter != comp_roots:
            differing.append(((letter, n), inter))
    if len(differing) != 1:
        return "infinite", witness
    (big_type, inter) = differing[0]
    small_sub = subsystem_classify(rs, inter)
    witness["differing_component"] = {
        "big": f"{big_type[0]}{big_type[1]}",
        "small": small_sub.type_str,
    }
    if len(small_sub.components) > 1:
        return "infinite", witness
    bt = coxeter_type(*big_type)
    st = small_sub.coxeter_components()[0] if small_sub.components else ("A", 0)
    ok = ((bt[0] == "A" and st[0] == "A" and st[1] == bt[1] - 1)
          or (bt[0] == "B" and bt[1] >= 2 and st[1] == bt[1] - 1
              and (st[0] == "B" or (st[0] == "A" and st[1] == 1)))
          or (bt == ("G", 2) and st == ("A", 1)))
    if not ok:
        return "infinite", witness
    return ("finite" if assume_unique_simple else "unknown-boundary"), witness


def regularity_and_structure(chi: PChar, blocks=None, bound=None):
    """Regularity under the standard-Levi model and, when regular, the
    matrix-algebra structure descriptor Mat_{p^N} over the local components."""
    regular = chi.regular
    out = {"regular": regular, "fullyAzumaya": regular, "descriptor": None}
    if regular:
        if blocks is None:
            blocks = mod_blocks(chi, bound)
        out["descriptor"] = {
            "matrix_size": chi.p**chi.rs.N,
            "local_dims": sorted(b.dim for b in blocks),
        }
    return out
