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
them.  The probes run on slot vectors (unramified_on_slots,
finite_type_on_slots, poincare_on_slots), which the CLI parses its literals
into; block_unramified, block_finite_type and poincare_series take field
values and split them into slots first.  Both unramified routes stay, the
simple-root criterion on eta's own coordinates and the definitional test on
the whole table.

Characters follow the standard-Levi model: the semisimple part is given by
its values c_i = chi(h_i) in some F_{p^e}, the nilpotent part by the subset
of the centralizer subsystem's basis on which it is regular.  Regularity
(PChar.regular) and the structure record (regularity_and_structure) are the
ones the quantum side reads too, weyl.is_regular and weyl.structure_record
at q = p.
"""

from __future__ import annotations

import functools
from operator import getitem

from .errors import HypothesisFailure, InvariantViolation, NoParabolicConjugate
from .errors import NotNilpotentContext, charge
from .rootdata import RootSystem, coxeter_type, hypothesis_check, subsystem_classify, type_string
from .scalars import _ptrim, artin_schreier_solve, embed, make_field, prime_field
from .weyl import (
    BlockList,
    BlockRecord,
    Kind,
    block_list,
    integer_pairings,
    is_regular,
    reflection_stabilizer,
    structure_record,
    subsystem_index,
    support_indices,
)


@functools.lru_cache(maxsize=None)
def check_hypotheses(comps, p: int):
    """Raise HypothesisFailure unless p meets the standing hypotheses for the
    Cartan type with components `comps` (what check_cartan_type returns, or
    RootSystem.ctype): an odd good prime with a nondegenerate trace form;
    NonPrime first unless p is prime.  No root system is built.  A pass is
    kept for the process; a refusal is raised again on every call."""
    prime_field(p)
    hyp = hypothesis_check(comps, p)
    if not hyp["ok"]:
        raise HypothesisFailure(
            f"(type {type_string(comps)}, p={p}) fails hypotheses: {hyp}")


class PChar:
    """chi = chi_s + chi_n with semisimple values and standard-Levi support.

    support is a tuple of 0-based indices into the basis of the centralizer
    subsystem Phi' = {alpha : chi(h_alpha) = 0}.
    """

    def __init__(self, rs, p, values=None, support=(), field=None):
        check_hypotheses(rs.ctype, p)
        self.rs = rs
        self.p = p
        if field is None:
            field = values[0].field if values else make_field(p, 1)
        if values is None:
            values = tuple(field.zero() for _ in range(rs.rank))
        if field.p != p or any(v.field != field for v in values):
            raise ValueError(
                "character values must share one ambient field of characteristic p")
        self.field = field
        self.values = tuple(values)
        self.levi = _zero(rs, _by_root(rs, _table(rs, *_slots(self.values))[1]))
        self.support = support_indices(self.levi, support)

    @property
    def nilpotent(self) -> bool:
        return all(v.is_zero() for v in self.values)

    @property
    def regular(self) -> bool:
        """weyl.is_regular: the support is the whole basis of Phi'."""
        return is_regular(self.levi, self.support)

    def __repr__(self):
        return (f"PChar({self.rs.type_str}, p={self.p}, "
                f"c=({', '.join(map(str, self.values))}), S={self.support})")


@functools.lru_cache(maxsize=None)
def _solved(c, bound):
    # a solution x of x^p - x = c^p, a point of Lambda_chi at a coordinate
    # of value c, and its field, once per (value, bound) in the process; a
    # refusal is not kept
    return artin_schreier_solve(c.frobenius(), bound)


@functools.lru_cache(maxsize=None)
def _codes(x, ambient):
    # the trimmed codes of eta(h_i) and of lambda(h_i) = eta(h_i) - 1 per
    # constant term k of eta, for the base value x of Lambda_chi (in the
    # field of x, embedded in ambient): eta's code k is x's with constant
    # term k, lambda's eta's code k - 1; once per (value, field) in the
    # process
    rest = embed(x, ambient).coeffs[1:]
    etas = tuple(_ptrim((k, *rest)) for k in range(ambient.p))
    return etas, etas[-1:] + etas[:-1]


# -- stabilizer subsystems on Harish-Chandra labels --------------------------

def _slots(values):
    """(slot vectors, p) of values in one field F_{p^e}: each value's e
    coefficients mod p, 0 past its length.  ValueError for values of
    different fields; no values give no slots and no p, which _table
    refuses."""
    field = values[0].field if values else None
    if any(v.field != field for v in values):
        raise ValueError("elements of different fields")
    return [(v.coeffs + (0,) * field.e)[:field.e] for v in values], field and field.p


def _values(rs: RootSystem, slots, p):
    """eta(h_beta) for the positive roots beta, in the order of rs.pos_roots,
    each as its e slots mod p, from the slot vectors of the values eta(h_i),
    one per simple root: pairing is F_p-linear, so slot t of eta(h_beta)
    pairs the t-th slots."""
    return list(zip(*map(integer_pairings(rs, "values", p), zip(*slots))))


def _by_root(rs: RootSystem, table):
    """A table of _values keyed by positive root."""
    return dict(zip(rs.pos_roots, table))


def _table(rs: RootSystem, slots, p, shift=0):
    """eta = weight + shift * rho on the weight's slot vectors (rho(h_i) = 1
    adds shift to each constant slot), and its table, _values of eta.
    ValueError, before p is read, unless the weight has one slot vector per
    simple root: PChar and every probe come through here."""
    if len(slots) != rs.rank:
        raise ValueError(f"{len(slots)} values given for rank {rs.rank}")
    eta = [((s[0] + shift) % p, *s[1:]) for s in slots] if shift else slots
    return eta, _values(rs, eta, p)


def _zero(rs, by_root):
    # {alpha : eta(h_alpha) = 0} of a table keyed by root
    return reflection_stabilizer(rs, lambda b: not any(by_root[b]))


def _stabilisers(rs, eta, table):
    # (zero, fp) of eta's slot vectors and its table: _zero and {alpha :
    # eta(h_alpha) in F_p}, every root when every eta(h_i) is in F_p
    by_root = _by_root(rs, table)
    fp = (reflection_stabilizer(rs, lambda b: not any(by_root[b][1:]))
          if any(any(s[1:]) for s in eta) else subsystem_classify(rs, rs.all_roots()))
    return _zero(rs, by_root), fp


def eta_subsystems(rs: RootSystem, eta):
    """(zero, fp): the classified subsystems {alpha : eta(h_alpha) = 0} and
    {alpha : eta(h_alpha) in F_p}."""
    return _stabilisers(rs, *_table(rs, *_slots(eta)))


def dim_C(rs: RootSystem, eta) -> int:
    """dim of the primary component at eta: [W(eta + Lambda) : W(eta)],
    computed from the classified subsystem orders."""
    return subsystem_index(*eta_subsystems(rs, eta))


def _fp_unit(slots):
    return slots[0] and not any(slots[1:])  # the value is in F_p - {0}


def block_unramified(rs: RootSystem, lam):
    """unramified_on_slots at the slot vectors of the values lam."""
    return unramified_on_slots(rs, *_slots(lam))


def unramified_on_slots(rs: RootSystem, lam, p):
    """Both unramified tests of the block of the baby Verma with highest
    weight lam (slot vectors mod p, one per simple root), off one eta = lam
    + rho and its table.  simpleRootCriterion: no simple alpha with
    eta(h_alpha) in F_p - {0} (eta's own coordinates).  definitional: dim =
    [W(fp) : W(zero)] is 1, i.e. the two stabilisers of the table coincide
    (each root set is closed under its own reflections)."""
    eta, table = _table(rs, lam, p, 1)
    return {"simpleRootCriterion": not any(map(_fp_unit, eta)),
            "definitional": not any(map(_fp_unit, table))}


# -- blocks ------------------------------------------------------------------

class BlockKind(Kind):
    """What a modular block's point stabiliser fixes, given Phi' and whether
    chi is nilpotent: the stabiliser, dim = [W(Phi') : W(stabilizer)], the
    type of Phi', the Poincare series (None unless chi is nilpotent), the
    finite-type verdict, and the differing component of its witness as a
    tuple of (key, type) pairs, empty when there is none.  Built by _kind."""

    __slots__ = ("stabilizer", "dim", "stab_coset_type", "poincare", "finite_type", "differing")


@functools.cache
def _kind(zero, levi, nilpotent):
    # once per (point stabiliser, Phi', nilpotent) in the process; a kind
    # whose construction raises is not kept
    verdict, witness = _finite_type(zero, levi, False)
    differing = tuple((witness["differing_component"] or {}).items())
    return BlockKind(zero, subsystem_index(zero, levi), levi.type_str,
                     _poincare(zero) if nilpotent else None, verdict, differing)


class BlockReport(BlockRecord, kind=BlockKind):
    """Per-block record: both coordinate systems, orbit size, and the kind
    of the block's point stabiliser (BlockKind), through which it reads its
    dimension, unramified flag, stabilizer types, Poincare series and
    finite-type verdict.

    lam_code and eta_code hold each value's trimmed coefficients; lam and eta,
    the tuples of values, are built from them on access.  The blocks of one
    kind share its verdict, so finite_type_witness and to_dict give fresh
    dicts."""

    __slots__ = ()
    FIELDS = ("field", "lam_code", "eta_code", "orbit_size", "kind")

    @property
    def lam(self):
        return tuple(map(self.field.elem, self.lam_code))

    @property
    def eta(self):
        return tuple(map(self.field.elem, self.eta_code))

    @property
    def finite_type_witness(self):
        return {"point_type": self.stab_point_type, "coset_type": self.stab_coset_type,
                "differing_component": dict(self.differing) or None}

    def to_dict(self):
        return {"lambda": list(map(list, self.lam_code)), "eta": list(map(list, self.eta_code)),
                "orbit_size": self.orbit_size, "dim": self.dim, "unramified": self.unramified,
                "stabilizer_types": {"point": self.stab_point_type, "coset": self.stab_coset_type},
                "poincare": list(self.poincare) if self.poincare is not None else None,
                "finite_type": self.finite_type, "finite_type_witness": self.finite_type_witness}


def mod_blocks(chi: PChar, bound=None):
    """Blocks of the reduced algebra at chi: the partition of Lambda_chi under
    the dot action (ordinary action on eta = lambda + rho) of Stab_W(chi),
    as a BlockList of BlockReports, with the tables "eta" and "lambda" of
    each coordinate's codes by the constant term of eta.
    BoundExceeded when the p^r points of Lambda_chi, or then its ambient
    field, exceed `bound` (the "points" and "field" checks of
    errors.BOUNDS); the points are counted before any is listed, and both
    checks come before the walk memo is read.  The list depends on chi only
    through its walk (weyl.block_list: rs, Phi', p), the ambient field and
    the code tables, which fix whether chi is nilpotent, so it is kept on its
    walk while those are equal: a repeated chi_s returns the same read-only
    list, for any support."""
    rs, levi, p = chi.rs, chi.levi, chi.p
    charge("points", bound, p ** rs.rank)
    # Lambda_chi's base, in the ambient field, is one solution per coordinate
    sols, fields = zip(*[_solved(c, bound) for c in chi.values])
    ambient = max(fields, key=lambda f: f.e)
    etas, lams = zip(*(_codes(x, ambient) for x in sols))

    def make(walked):
        # eta(h_beta)^p - eta(h_beta) = chi(h_beta)^p, so eta(h_beta) is in
        # F_p iff beta is in Phi', and only then can it vanish;
        # InvariantViolation unless the first eta, paired in full, agrees
        pad = (0,) * ambient.e
        first = _values(rs, [(t[k] + pad)[:ambient.e] for t, k in zip(etas, walked[0][0])], p)
        if any((not any(v[1:])) != (b in levi.roots) for b, v in zip(rs.pos_roots, first)):
            raise InvariantViolation("the roots with eta(h_beta) in F_p are not Phi'")
        return BlockList(walked, lambda sub: _kind(sub, levi, chi.nilpotent),
                         {"eta": etas, "lambda": lams},
                         lambda x, size, kind: BlockReport(ambient, tuple(map(getitem, lams, x)),
                                                           tuple(map(getitem, etas, x)), size, kind))
    # the walk runs on the r constant terms of eta = lambda + rho (rho is 1
    # in each), in lambda order: Lambda_chi + rho = Lambda_chi = base +
    # F_p^r, and generators fixing chi keep the base's other slots
    return block_list(rs, levi, "values", p, [[(k + 1) % p for k in range(p)]] * rs.rank,
                      (ambient, etas, lams), make)


def unramified_count(chi: PChar, blocks=None, bound=None):
    """Predicted p^s (s = r - rank Phi') versus enumerated unramified blocks
    (a BlockList of chi, mod_blocks' by default)."""
    if blocks is None:
        blocks = mod_blocks(chi, bound)
    s = chi.rs.rank - len(chi.levi.basis)
    predicted, enumerated = chi.p**s, blocks.dims[1]
    return {"predicted": predicted, "enumerated": enumerated, "s": s,
            "agree": predicted == enumerated}


def poincare_series(rs: RootSystem, eta):
    """poincare_on_slots at the slot vectors of the values eta."""
    return poincare_on_slots(rs, *_slots(eta))


def poincare_on_slots(rs: RootSystem, eta, p):
    """Coefficients of P(C_eta, t) at eta (slot vectors mod p, one per
    simple root): minimal coset representatives of W(eta), once conjugated
    to a standard parabolic W_J, counted by length.  That sum is
    W(t)/W_J(t), read from the degrees of W and of W(eta)'s type.

    Requires a nilpotent context (all coordinates of eta in F_p)."""
    if any(any(s[1:]) for s in eta):
        raise NotNilpotentContext("Poincare series needs all coordinates in F_p")
    return _poincare(_zero(rs, _by_root(rs, _table(rs, eta, p)[1])))


def _poincare(zero):
    if not zero.is_parabolic:
        raise NoParabolicConjugate(
            "no W-conjugate of eta has a stabilizer generated by simple reflections")
    return zero.coset_poincare


def block_finite_type(rs: RootSystem, lam, assume_unique_simple: bool = False):
    """finite_type_on_slots at the slot vectors of the values lam."""
    return finite_type_on_slots(rs, *_slots(lam), assume_unique_simple)


def finite_type_on_slots(rs: RootSystem, lam, p, assume_unique_simple: bool = False):
    """Finite-representation-type classification of the block of the baby
    Verma with highest weight lam (slot vectors mod p, one per simple root),
    at eta = lam + rho.

    Returns (verdict, witness).  Necessity: the stabilizer pair must differ in
    rank by one and the differing connected component pair must be one of
    (A_n, A_{n-1}), (B_n, B_{n-1}) or (G2, A1) up to Coxeter equivalence.
    Sufficiency additionally needs the unique-simple-module hypothesis, which
    is not decidable here: without `assume_unique_simple` the best positive
    verdict is "unknown-boundary".  The verdict and its witness are read off
    the component lists of the two classified stabilizers; nothing is
    classified again.
    """
    return _finite_type(*_stabilisers(rs, *_table(rs, lam, p, 1)), assume_unique_simple)


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
    """The structure record of chi at p (weyl.structure_record): regularity
    under the standard-Levi model and, when regular, the descriptor Mat_{p^N}
    over the local components, read off `blocks` (a BlockList of chi),
    mod_blocks' by default, which then walks only when chi is regular."""
    return structure_record(chi, chi.p,
                            lambda: mod_blocks(chi, bound) if blocks is None else blocks)
