"""The fixed test matrix and the acceptance suites.

Matrix M: types {A1, A2, A3, B2, G2} x good p in {3, 5, 7} (cells failing the
standing hypotheses are skipped, e.g. A2/p=3) x odd ell in {3, 5, 7} (ell=3
skipped for G2) x characters {zero, regular nilpotent/unipotent, regular
semisimple, one mixed Levi case per type}.  A1 has no proper nonzero Levi, so
its mixed cell does not exist.

Everything here is deterministic: character searches scan candidates in lex
order and all suites enumerate exhaustively (no randomness anywhere).
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .errors import HypothesisFailure, InvariantViolation, NoParabolicConjugate
from .modular import (
    PChar,
    dim_C,
    enumerate_lambda_chi,
    is_unramified,
    mod_blocks,
    rho_weight,
    unramified_count,
)
from .quantum import (
    QChar,
    TorusElement,
    _delta_tilde,
    _delta_tilde_test,
    ell_fiber,
    hc_shift,
    q_blocks,
    q_regularity_and_counts,
    q_unramified,
    root_value,
    steinberg_fiber_point,
    verify_appendix_row,
    appendix_rows,
    w_t,
)
from .rootdata import (
    build_root_system,
    hypothesis_check,
    pair,
    subsystem_classify,
)
from .scalars import make_field, solve_linear
from .weyl import (
    act_modular,
    act_torus,
    burnside_count,
    enumerate_group,
    min_coset_reps,
    orbit_of,
    reflection_stabilizer,
    simple_reflection,
    stabilizer_bruteforce,
)

MATRIX_TYPES = ("A1", "A2", "A3", "B2", "G2")
MATRIX_PRIMES = (3, 5, 7)
MATRIX_ELLS = (3, 5, 7)


def _zero_root_count(rs, values):
    return sum(1 for b in rs.pos_roots if pair(rs, values, b).is_zero())


def _value_candidates(rs, field):
    """All value tuples over the field, lex order in the element encoding."""
    elems = list(field.elements())
    idx = [0] * rs.rank
    while True:
        yield tuple(elems[i] for i in idx)
        j = rs.rank - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < len(elems):
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


def modular_characters(rs, p):
    """The four matrix characters for (rs, p), in a fixed order.

    Regular semisimple values are searched over F_p and then F_{p^2}: e.g.
    for B2 or A3 at p = 3 no F_3-valued character is regular (the positive
    coroot values cannot all avoid 0 mod 3), but quadratic values work.
    """
    r = rs.rank
    out = [("zero", PChar(rs, p)),
           ("regnil", PChar(rs, p, support=tuple(range(r))))]
    regss = mixed = None
    regss_field = None
    for e in (1, 2):
        field = make_field(p, e)
        for values in _value_candidates(rs, field):
            z = _zero_root_count(rs, values)
            if regss is None and z == 0:
                regss, regss_field = values, field
            if e == 1 and mixed is None and 0 < z < rs.N:
                mixed = values
            if regss is not None and (mixed is not None or e == 2 or rs.N == 1):
                break
        if regss is not None:
            break
    if regss is None:
        raise InvariantViolation(
            f"no regular semisimple character for {rs.type_str}, p={p}")
    out.append(("regss", PChar(rs, p, values=regss, field=regss_field)))
    if mixed is not None:
        chi = PChar(rs, p, values=mixed)
        out.append(("mixed", PChar(rs, p, values=mixed,
                                   support=tuple(range(len(chi.levi.basis))))))
    return out


def _quantum_zero_count(rs, exps):
    t2 = TorusElement(exps).pow(2)
    return sum(1 for b in rs.pos_roots if root_value(rs, t2, b).is_one())


def quantum_characters(rs, ell):
    r = rs.rank
    trivial = TorusElement(tuple(Fraction(0) for _ in range(r)))
    out = [("one", QChar(rs, ell)),
           ("regunip", QChar(rs, ell, support=tuple(range(r))))]
    regss = mixed = None
    for denom in range(3, 64):
        for k in range(denom**r):
            digits = []
            n = k
            for _ in range(r):
                digits.append(n % denom)
                n //= denom
            exps = tuple(Fraction(d, denom) for d in digits)
            z = _quantum_zero_count(rs, exps)
            if regss is None and z == 0:
                regss = exps
            if mixed is None and 0 < z < rs.N:
                # require a standard Levi so the ell^s count is meaningful
                chi = QChar(rs, ell, chi_s=TorusElement(exps))
                if all(sum(b) == 1 for b in chi.levi.basis):
                    mixed = exps
            if regss is not None and (mixed is not None or r == 1):
                break
        if regss is not None and (mixed is not None or r == 1):
            break
    if regss is None:
        raise InvariantViolation(
            f"no regular semisimple character for {rs.type_str}, ell={ell}")
    out.append(("regss", QChar(rs, ell, chi_s=TorusElement(regss))))
    if mixed is not None:
        chi = QChar(rs, ell, chi_s=TorusElement(mixed))
        out.append(("mixed", QChar(rs, ell, chi_s=TorusElement(mixed),
                                   support=tuple(range(len(chi.levi.basis))))))
    return out


def modular_cells():
    for t in MATRIX_TYPES:
        rs = build_root_system(t)
        for p in MATRIX_PRIMES:
            if not hypothesis_check(rs.ctype, p)["ok"]:
                continue
            for name, chi in modular_characters(rs, p):
                yield (t, p, name, chi)


def quantum_cells():
    for t in MATRIX_TYPES:
        rs = build_root_system(t)
        for ell in MATRIX_ELLS:
            if t == "G2" and ell % 3 == 0:
                continue
            for name, chi in quantum_characters(rs, ell):
                yield (t, ell, name, chi)


class SuiteResult:
    def __init__(self, name, ok, detail, seconds):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.seconds = seconds

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name:24s} {self.seconds:7.2f}s  {self.detail}"


def _suite(fn):
    def run():
        t0 = time.time()
        ok, detail = fn()
        return SuiteResult(fn.__name__.replace("suite_", ""), ok, detail,
                           time.time() - t0)
    run.__name__ = fn.__name__
    return run


@_suite
def suite_sl2_quantum():
    t0 = time.time()
    rs = build_root_system("A1")
    chi = QChar(rs, 5, support=(0,))
    blocks = q_blocks(chi)
    dims = sorted(b.dim for b in blocks)
    st = q_regularity_and_counts(chi, blocks)
    ok = (len(blocks) == 3 and dims == [1, 2, 2]
          and sorted(b.orbit_size for b in blocks) == [1, 2, 2]
          and st["regular"] and st["descriptor"]["matrix_size"] == 5
          and st["descriptor"]["local_dims"] == [1, 2, 2])
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    return ok, f"3 blocks, dims {dims}, Mat_5 descriptor, {elapsed:.3f}s"


@_suite
def suite_appendix():
    t0 = time.time()
    rows = appendix_rows()
    bad = []
    corrected = 0
    for t, m in rows:
        res = verify_appendix_row(t, m)
        if not res["ok"]:
            bad.append((t, m))
        if res.get("alpha_corrected"):
            corrected += 1
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10.0
    return ok, (f"{len(rows)} rows ok, {corrected} alpha misprint corrected, "
                f"{elapsed:.2f}s" if ok else f"failures: {bad}")


@_suite
def suite_rank_identities():
    t0 = time.time()
    bad = []
    for t, p, name, chi in modular_cells():
        blocks = mod_blocks(chi)
        if sum(b.dim for b in blocks) != p**chi.rs.rank:
            bad.append(("mod", t, p, name))
        # a block is simple Artinian (semisimple verdict) iff unramified
        if any((b.finite_type == "semisimple") != b.unramified for b in blocks):
            bad.append(("mod semisimple<->unramified", t, p, name))
    for t, ell, name, chi in quantum_cells():
        blocks = q_blocks(chi)
        if sum(b.dim for b in blocks) != ell**chi.rs.rank:
            bad.append(("q", t, ell, name))
        # orbit-size law: each class is as large as its dimension
        if any(b.orbit_size != b.dim for b in blocks):
            bad.append(("q orbit-size", t, ell, name))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60.0
    return ok, f"all cells sum to p^r / ell^r, {elapsed:.2f}s" if ok else f"{bad}"


@_suite
def suite_block_count_oracle():
    bad = []
    spot = {}
    for t, p, name, chi in modular_cells():
        if not chi.nilpotent:
            continue
        rs = chi.rs
        blocks = mod_blocks(chi)
        W = enumerate_group(rs)
        field = make_field(p, 1)
        points = [tuple(field.from_int((k // p**i) % p) for i in range(rs.rank))
                  for k in range(p**rs.rank)]
        cnt = burnside_count(W, points, lambda w, x: act_modular(w, x, dot=True))
        if cnt != len(blocks):
            bad.append(("mod", t, p, name))
        spot[(t, p)] = cnt
    for t, ell, name, chi in quantum_cells():
        if not chi.chi_s.is_one():
            continue
        rs = chi.rs
        blocks = q_blocks(chi)
        W = enumerate_group(rs)
        fiber = ell_fiber(rs, chi.chi_s, ell)
        cnt = burnside_count(
            W, fiber,
            lambda w, x: TorusElement(w.act_torus_exponents(x.exps)))
        if cnt != len(blocks):
            bad.append(("q", t, ell, name))
    if spot.get(("A2", 5)) != 7 or spot.get(("A1", 3)) != 2:
        bad.append(("spot-values", spot.get(("A2", 5)), spot.get(("A1", 3))))
    return (not bad), ("partition = Burnside on every nilpotent cell; "
                       "A2/p5 -> 7, A1/p3 -> 2" if not bad else f"{bad}")


@_suite
def suite_unramified_counts():
    bad = []
    for t, p, name, chi in modular_cells():
        res = unramified_count(chi)
        if not res["agree"]:
            bad.append(("mod", t, p, name, res))
    skipped = 0
    for t, ell, name, chi in quantum_cells():
        res = q_regularity_and_counts(chi)
        if not res["coprimalityOK"]:
            skipped += 1
            continue
        if res["unramifiedPredicted"] != res["unramifiedEnumerated"]:
            bad.append(("q", t, ell, name, res))
    return (not bad), (f"p^s and ell^s match everywhere "
                       f"({skipped} quantum cells outside coprimality skipped)"
                       if not bad else f"{bad}")


def _baby_verma_labels(chi):
    """Baby-Verma labels: the ell^r torus elements t with t^ell = chi_s, in
    lex order of the coordinatewise offsets."""
    half = TorusElement(tuple(e.q / 2 for e in chi.chi_s.exps))
    return ell_fiber(chi.rs, half, chi.ell)


def _is_simple_system(rs, T, roots):
    """Is T a simple system of the closed subsystem `roots`?  Every root must
    be an all-nonnegative or all-nonpositive integer combination of T."""
    cols = [[b[row] for b in T] for row in range(rs.rank)]
    for beta in roots:
        coeffs = solve_linear(cols, beta)
        if coeffs is None or not all(c.denominator == 1 for c in coeffs):
            return False
        if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
            return False
    return True


def _delta_tilde_by_search(rs, point, ell, elements, eps=1):
    """Oracle for the highest-weight criterion: search the Weyl group
    `elements`, in order, for a w such that w{beta : beta(t)^{2 ell} = 1}
    has a simple system inside Delta-tilde, then run the Delta-tilde test at
    the dot-moved label."""
    sat = [b for b in rs.pos_roots
           if (root_value(rs, point, b) * (2 * ell)).is_one()]
    roots = frozenset(sat) | frozenset(tuple(-x for x in b) for b in sat)
    dt = _delta_tilde(rs)
    rank = subsystem_classify(rs, roots).rank
    for w in elements:
        moved = frozenset(w.apply_root(b) for b in roots)
        inside = [b for b in dt if b in moved]
        if len(inside) < rank:
            continue
        for T in itertools.combinations(inside, rank):
            if _is_simple_system(rs, T, moved):
                label = TorusElement(act_torus(w, point.exps, dot=True, ell=ell,
                                               eps=eps, rs=rs))
                return _delta_tilde_test(rs, label, ell, eps)
    raise HypothesisFailure("no W-conjugate has a basis inside Delta-tilde")


@_suite
def suite_criterion_equivalences():
    from .modular import eta_subsystems
    bad = []
    for t, p, name, chi in modular_cells():
        rs = chi.rs
        weights, ambient = enumerate_lambda_chi(chi)
        rho = rho_weight(rs, ambient)
        for lam in weights:
            simple = is_unramified(rs, lam, "simpleRootCriterion")
            defn = is_unramified(rs, lam, "definitional")
            dim1 = dim_C(rs, lam + rho) == 1
            if not (simple == defn == dim1):
                bad.append(("mod", t, p, name, lam.key()))
                break
            # Levi reduction: W(eta + Lambda) is the reflection group of Phi'
            _zero, fp_sub = eta_subsystems(rs, lam + rho)
            if fp_sub.subsystem.roots != chi.levi.roots:
                bad.append(("mod levi", t, p, name, lam.key()))
                break
    for t, ell, name, chi in quantum_cells():
        rs = chi.rs
        W = enumerate_group(rs)
        for lab in _baby_verma_labels(chi):
            hw = q_unramified(rs, lab, "highestWeight", ell)
            oracle = _delta_tilde_by_search(rs, lab, ell, W)
            u = hc_shift(rs, lab, ell, "forward")
            comp = q_unramified(rs, u, "component", ell)
            f = u.pow(2)
            dim1 = chi.levi.order == w_t(rs, f).order
            if not (hw == oracle == comp == dim1):
                bad.append(("q", t, ell, name, lab.key()))
                break
    return (not bad), ("simple-root == definitional == dim-1 (modular); "
                       "Delta-tilde after alcove descent == W-search oracle "
                       "== all-roots == dim-1 (quantum)"
                       if not bad else f"{bad}")


def _poincare_by_orbit_search(rs, eta, W):
    """Oracle for the closed-form Poincare series: walk the W-orbit of eta to
    the first point whose stabilizer is generated by simple reflections and
    count the minimal coset representatives of that parabolic by length."""
    gens = [simple_reflection(rs, j) for j in range(rs.rank)]
    orbit = orbit_of(eta.values, [lambda t, w=w: w.act_values(t) for w in gens])
    simples = {tuple(1 if k == j else 0 for k in range(rs.rank)): j
               for j in range(rs.rank)}
    for t in sorted(orbit, key=lambda tt: tuple(v.coeffs for v in tt)):
        zero = reflection_stabilizer(rs, lambda b: pair(rs, t, b).is_zero())
        basis = zero.subsystem.basis
        if all(b in simples for b in basis):
            reps = min_coset_reps(rs, W, [simples[b] for b in basis])
            coeffs = [0] * (max(w.length for w in reps) + 1)
            for w in reps:
                coeffs[w.length] += 1
            return tuple(coeffs)
    raise NoParabolicConjugate("no W-conjugate of eta has a parabolic stabilizer")


@_suite
def suite_poincare():
    bad = []
    checked = 0
    for t, p, name, chi in modular_cells():
        if not chi.nilpotent:
            continue
        rs = chi.rs
        blocks = mod_blocks(chi)
        W = enumerate_group(rs)
        for b in blocks:
            P = b.poincare
            checked += 1
            if P != _poincare_by_orbit_search(rs, b.eta, W):
                bad.append((t, p, name, "oracle", P))
            if sum(P) != b.dim or P[-1] != 1:
                bad.append((t, p, name, "P(1)/top", P, b.dim))
            if b.finite_type in ("finite", "unknown-boundary") and max(P) > 1:
                bad.append((t, p, name, "coeff>1", P, b.finite_type))
    return (not bad), (f"{checked} blocks: closed form = orbit-search oracle, "
                       "P(1) = dim, monic top, "
                       "uniserial coefficients on finite candidates"
                       if not bad else f"{bad}")


@_suite
def suite_steinberg():
    bad = []
    for t, p, name, chi in modular_cells():
        rs = chi.rs
        blocks = mod_blocks(chi)
        stein = [b for b in blocks
                 if all(pair(rs, b.eta.values, beta).is_zero()
                        for beta in chi.levi.basis)]
        if not stein or any(not (b.dim == 1 and b.unramified) for b in stein):
            bad.append(("mod", t, p, name))
        if chi.nilpotent:
            # the lambda = -rho block is the eta = 0 block
            if not any(all(v.is_zero() for v in b.eta.values) and b.dim == 1
                       for b in blocks):
                bad.append(("mod -rho", t, p, name))
    from .rootdata import two_rho_dot
    from .scalars import eps_pow
    for t, ell, name, chi in quantum_cells():
        rs = chi.rs
        st = steinberg_fiber_point(chi)
        if st is None:
            bad.append(("q missing", t, ell, name))
            continue
        if chi.levi.order != w_t(rs, st).order:
            bad.append(("q dim", t, ell, name))
        # the shifted route: a baby Verma label of Steinberg type satisfies
        # alpha(t)^2 = eps^{-(2 rho, alpha)} on the basis of Phi'; its shifted
        # square must land in a dimension-one block
        labels = [lab for lab in _baby_verma_labels(chi)
                  if all(root_value(rs, lab, a) * 2
                         == eps_pow(-two_rho_dot(rs, a), ell, chi.eps)
                         for a in chi.levi.basis)]
        if not labels:
            bad.append(("q label missing", t, ell, name))
            continue
        for lab in labels:
            f = hc_shift(rs, lab, ell, "forward", chi.eps).pow(2)
            if chi.levi.order != w_t(rs, f).order:
                bad.append(("q shifted dim", t, ell, name))
                break
    return (not bad), ("the -rho / shifted block is unramified of dimension 1 "
                       "in every cell" if not bad else f"{bad}")


@_suite
def suite_stabilizers():
    bad = []
    cells = 0
    for t, ell, name, chi in quantum_cells():
        rs = chi.rs
        if rs.weyl_order() > 10**4:
            continue
        cells += 1
        W = enumerate_group(rs)
        for f in ell_fiber(rs, chi.chi_s, ell):
            brute = set(stabilizer_bruteforce(
                W, [f],
                lambda w, x: TorusElement(w.act_torus_exponents(x.exps))))
            refl = set(w_t(rs, f).elements())
            if brute != refl:
                bad.append((t, ell, name, f.key()))
                break
    return (not bad), (f"brute-force = reflection-generated on all fiber "
                       f"points of {cells} cells" if not bad else f"{bad}")


SUITES = {
    "sl2_quantum": suite_sl2_quantum,
    "appendix": suite_appendix,
    "rank_identities": suite_rank_identities,
    "block_count_oracle": suite_block_count_oracle,
    "unramified_counts": suite_unramified_counts,
    "criterion_equivalences": suite_criterion_equivalences,
    "poincare": suite_poincare,
    "steinberg": suite_steinberg,
    "stabilizers": suite_stabilizers,
}


def run_suites(names=None):
    names = list(names) if names else list(SUITES)
    results = [SUITES[n]() for n in names]
    return all(r.ok for r in results), results
