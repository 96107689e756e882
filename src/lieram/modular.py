"""The characteristic-p side: Lambda_chi, blocks, component dimensions,
unramified criteria, Poincare series and finite-representation-type verdicts.

Two coordinate systems are used side by side and every report carries both:
highest-weight coordinates lambda (baby Verma labels) and Harish-Chandra
coordinates eta = lambda + rho.  Component dimensions, stabilizers and the
unramified criteria are all computed on eta; block linkage is the dot action
on lambda, equivalently the ordinary action on eta.  A weight in either
system is the tuple of its values on the basis coroots, one FFElem per
simple root; the probes take lambda (block_unramified, block_finite_type)
or eta (eta_subsystems, dim_C, poincare_series).

eta and its pairings live on coefficient slots (a value in F_{p^e} is its e
coefficients mod p), with no field arithmetic: each probe builds eta and the
table of eta(h_beta) over the positive roots once and reads its verdicts off
them.  Both unramified routes stay, the simple-root criterion on eta's own
coordinates and the definitional test on the whole table.

Characters follow the standard-Levi model: the semisimple part is given by
its values c_i = chi(h_i) in some F_{p^e}, the nilpotent part by the subset
of the centralizer subsystem's basis on which it is regular.
"""

from __future__ import annotations

from .errors import HypothesisFailure, InvariantViolation, NoParabolicConjugate
from .errors import NotNilpotentContext
from .rootdata import RootSystem, coxeter_type, hypothesis_check, type_string
from .scalars import _ptrim, artin_schreier_solve, embed, make_field, prime_field
from .weyl import (
    BlockRecord,
    block_orbits,
    integer_pairings,
    reflection_stabilizer,
    subsystem_index,
    support_indices,
)


def check_hypotheses(rs: RootSystem, p: int):
    """Raise HypothesisFailure unless p meets the standing hypotheses for rs:
    an odd good prime with a nondegenerate trace form; NonPrime first unless
    p is prime."""
    prime_field(p)
    hyp = hypothesis_check(rs, p)
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
        self.levi = _zero(rs, _pairings(rs, _slots(self.values, field), p))
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


def _lambda_base(chi: PChar, bound):
    # one point of Lambda_chi, as values in the ambient field, and that field
    sols, fields = zip(*(artin_schreier_solve(c.frobenius(), bound) for c in chi.values))
    ambient = max(fields, key=lambda f: f.e)
    return tuple(embed(x, ambient) for x in sols), ambient


# -- stabilizer subsystems on Harish-Chandra labels --------------------------

def _slots(values, field, shift=0):
    """The values in `field` = F_{p^e} as slot vectors: each value's e
    coefficients mod p, 0 past its length, with `shift` added to the constant
    one (shift 1 turns lambda into eta = lambda + rho, as rho(h_i) = 1)."""
    if any(v.field != field for v in values):
        raise ValueError("elements of different fields")
    p, pad = field.p, (0,) * field.e
    return [((c[0] + shift) % p, *c[1:]) for c in ((v.coeffs + pad)[:field.e] for v in values)]


def _pairings(rs: RootSystem, slots, p):
    """eta(h_beta) for every positive root beta, as its e slots mod p, from
    the slot vectors of the values eta(h_i): pairing is F_p-linear, so slot t
    of eta(h_beta) pairs the t-th slots.  ValueError unless there is one slot
    vector per simple root."""
    if len(slots) != rs.rank:
        raise ValueError(f"{len(slots)} values given for rank {rs.rank}")
    return dict(zip(rs.pos_roots, zip(*map(integer_pairings(rs, "values", p), zip(*slots)))))


def _table(rs: RootSystem, weight, shift=0):
    """eta = weight + shift * rho on slots, and its table of pairings."""
    field = weight[0].field
    eta = _slots(weight, field, shift)
    return eta, _pairings(rs, eta, field.p)


def _zero(rs, table):
    return reflection_stabilizer(rs, lambda b: not any(table[b]))


def _stabilisers(rs, table):
    # (zero, fp) of a table: {alpha : eta(h_alpha) = 0} and {... in F_p}
    return _zero(rs, table), reflection_stabilizer(rs, lambda b: not any(table[b][1:]))


def eta_subsystems(rs: RootSystem, eta):
    """(zero, fp): the classified subsystems {alpha : eta(h_alpha) = 0} and
    {alpha : eta(h_alpha) in F_p}."""
    return _stabilisers(rs, _table(rs, eta)[1])


def dim_C(rs: RootSystem, eta) -> int:
    """dim of the primary component at eta: [W(eta + Lambda) : W(eta)],
    computed from the classified subsystem orders."""
    return subsystem_index(*eta_subsystems(rs, eta))


def _fp_unit(slots):
    return slots[0] and not any(slots[1:])  # the value is in F_p - {0}


def block_unramified(rs: RootSystem, lam):
    """Both unramified tests of the block of the baby Verma with highest
    weight lam, off one eta = lam + rho and its table.  simpleRootCriterion:
    no simple alpha with eta(h_alpha) in F_p - {0} (eta's own coordinates).
    definitional: dim = [W(fp) : W(zero)] is 1, i.e. the two stabilisers of
    the table coincide (each root set is closed under its own reflections)."""
    eta, table = _table(rs, lam, 1)
    return {"simpleRootCriterion": not any(map(_fp_unit, eta)),
            "definitional": not any(map(_fp_unit, table.values()))}


# -- blocks ------------------------------------------------------------------

class BlockReport(BlockRecord):
    """Per-block record: both coordinate systems, orbit size, dimension,
    unramified flag, stabilizer types, Poincare series, finite-type verdict.

    lam_code and eta_code hold each value's trimmed coefficients; lam and eta,
    the tuples of values, are built from them on access.  The blocks whose
    eta has one point stabiliser (`stabilizer`) share one verdict, so
    finite_type_witness and to_dict give fresh dicts."""

    __slots__ = ("field", "lam_code", "eta_code", "orbit_size", "stabilizer",
                 "dim", "stab_coset_type", "poincare", "finite_type", "_witness")
    VARYING = ("eta", "lambda", "orbit_size")

    def __init__(self, field, lam_code, eta_code, orbit_size, stabilizer, dim,
                 stab_coset_type, poincare, finite_type, witness):
        self.field, self.lam_code, self.eta_code = field, lam_code, eta_code
        self.orbit_size, self.stabilizer, self.dim = orbit_size, stabilizer, dim
        self.stab_coset_type, self.poincare = stab_coset_type, poincare
        self.finite_type, self._witness = finite_type, witness

    @property
    def lam(self):
        return tuple(map(self.field.elem, self.lam_code))

    @property
    def eta(self):
        return tuple(map(self.field.elem, self.eta_code))

    @property
    def finite_type_witness(self):
        differing = self._witness["differing_component"]
        return {**self._witness, "differing_component": differing and dict(differing)}

    def to_dict(self):
        return {
            "lambda": list(map(list, self.lam_code)),
            "eta": list(map(list, self.eta_code)),
            "orbit_size": self.orbit_size,
            "dim": self.dim,
            "unramified": self.unramified,
            "stabilizer_types": {"point": self.stab_point_type,
                                 "coset": self.stab_coset_type},
            "poincare": list(self.poincare) if self.poincare is not None else None,
            "finite_type": self.finite_type,
            "finite_type_witness": self.finite_type_witness,
        }

    def varying_items(self):
        return (*self.eta_code, *self.lam_code, self.orbit_size)


def mod_blocks(chi: PChar, bound=None):
    """Blocks of the reduced algebra at chi: the partition of Lambda_chi under
    the dot action (ordinary action on eta = lambda + rho) of Stab_W(chi).
    BoundExceeded when the ambient field of Lambda_chi, or the p^r points of
    Lambda_chi, exceed `bound` (each check has its own default); the points
    are counted before any is listed.  eta(h_beta)^p - eta(h_beta) =
    chi(h_beta)^p, so eta(h_beta) is in F_p iff beta is in Phi' = chi.levi,
    and only then can it vanish; InvariantViolation unless the first eta,
    paired in full, agrees.
    The walk runs on the r constant terms of eta: Lambda_chi + rho = Lambda_chi
    = base + F_p^r, and generators fixing chi keep the base's other slots."""
    rs, levi, p = chi.rs, chi.levi, chi.p
    # the constant terms of eta = lambda + rho (rho is 1 in each), in lambda order
    walked = block_orbits(rs, levi, "values", p, p,
                          lambda: [[(k + 1) % p for k in range(p)]] * rs.rank, bound)
    base, ambient = _lambda_base(chi, bound)
    # eta(h_i) takes p values, etas[i][k] of constant term k; lambda(h_i) = etas[i][k - 1]
    etas = [[_ptrim((k, *b.coeffs[1:])) for k in range(p)] for b in base]
    lams = [t[-1:] + t[:-1] for t in etas]
    pad = (0,) * ambient.e
    first = _pairings(rs, [(t[k] + pad)[:ambient.e] for t, k in zip(etas, walked[0][0])], p)
    if any((not any(v[1:])) != (b in levi.roots) for b, v in first.items()):
        raise InvariantViolation("the roots with eta(h_beta) in F_p are not Phi'")
    verdicts = {zero: (_poincare(zero) if chi.nilpotent else None,
                       *_finite_type(zero, levi, False))
                for zero in dict.fromkeys(zero for _x, _size, zero, _dim in walked)}
    return [BlockReport(ambient, tuple(map(list.__getitem__, lams, x)),
                        tuple(map(list.__getitem__, etas, x)), size, zero, dim,
                        levi.type_str, *verdicts[zero])
            for x, size, zero, dim in walked]


def unramified_count(chi: PChar, blocks=None, bound=None):
    """Predicted p^s (s = r - rank Phi') versus enumerated unramified blocks."""
    if blocks is None:
        blocks = mod_blocks(chi, bound)
    s = chi.rs.rank - len(chi.levi.basis)
    predicted = chi.p**s
    enumerated = sum(1 for b in blocks if b.unramified)
    return {"predicted": predicted, "enumerated": enumerated, "s": s,
            "agree": predicted == enumerated}


def poincare_series(rs: RootSystem, eta):
    """Coefficients of P(C_eta, t): minimal coset representatives of W(eta),
    once conjugated to a standard parabolic W_J, counted by length.  That sum
    is W(t)/W_J(t), read from the degrees of W and of W(eta)'s type.

    Requires a nilpotent context (all coordinates of eta in F_p)."""
    if not all(v.in_prime_field() for v in eta):
        raise NotNilpotentContext("Poincare series needs all coordinates in F_p")
    return _poincare(_zero(rs, _table(rs, eta)[1]))


def _poincare(zero):
    if not zero.is_parabolic:
        raise NoParabolicConjugate(
            "no W-conjugate of eta has a stabilizer generated by simple reflections")
    return zero.coset_poincare


def block_finite_type(rs: RootSystem, lam, assume_unique_simple: bool = False):
    """Finite-representation-type classification of the block of the baby
    Verma with highest weight lam, at eta = lam + rho built on slots.

    Returns (verdict, witness).  Necessity: the stabilizer pair must differ in
    rank by one and the differing connected component pair must be one of
    (A_n, A_{n-1}), (B_n, B_{n-1}) or (G2, A1) up to Coxeter equivalence.
    Sufficiency additionally needs the unique-simple-module hypothesis, which
    is not decidable here: without `assume_unique_simple` the best positive
    verdict is "unknown-boundary".  The verdict and its witness are read off
    the component lists of the two classified stabilizers; nothing is
    classified again.
    """
    return _finite_type(*_stabilisers(rs, _table(rs, lam, 1)[1]), assume_unique_simple)


def _finite_type(small, big, assume_unique_simple):
    # small <= big: a component of big that small contains whole is one of
    # small too, with the same (letter, rank, ordered basis), so big differs
    # from small on the components it has and small lacks, and small meets
    # them in the components it has and big lacks
    witness = {"point_type": small.type_str, "coset_type": big.type_str,
               "differing_component": None}
    if small.roots == big.roots:
        return "semisimple", witness
    gone = [c[:2] for c in big.components if c not in small.components]
    if small.rank != big.rank - 1 or len(gone) != 1:
        return "infinite", witness
    inside = [c[:2] for c in small.components if c not in big.components]
    witness["differing_component"] = {"big": type_string(gone), "small": type_string(inside)}
    bt = coxeter_type(*gone[0])
    st = coxeter_type(*inside[0]) if inside else ("A", 0)
    if len(inside) < 2 and ((bt[0] in "AB" and st == coxeter_type(bt[0], bt[1] - 1))
                            or (bt, st) == (("G", 2), ("A", 1))):
        return ("finite" if assume_unique_simple else "unknown-boundary"), witness
    return "infinite", witness


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
