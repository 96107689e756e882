"""The fixed test matrix and the acceptance suites.

Matrix M: types {A1, A2, A3, B2, G2} x good p in {3, 5, 7} (cells failing the
standing hypotheses are skipped, e.g. A2/p=3) x odd ell in {3, 5, 7} (ell=3
skipped for G2) x characters {zero, regular nilpotent/unipotent, regular
semisimple, one mixed Levi case per type}.  A1 has no proper nonzero Levi, so
its mixed cell does not exist.

Everything here is deterministic: character searches scan candidates in lex
order and all suites enumerate exhaustively (no randomness anywhere).

This module also holds the brute-force oracles that the suites and the tests
compare the production paths against: single-root pairings, root-set
closure, group and coset enumeration, brute-force stabilizers, the Burnside
count, the ell-fiber as torus elements and the solve-and-close derivation of
the exceptional elements.  No production module imports it; the CLI loads it
only for `lieram selftest`.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .errors import HypothesisFailure, InvariantViolation, NoParabolicConjugate, NotParabolic
from .modular import (
    PChar,
    dim_C,
    enumerate_lambda_chi,
    eta_subsystems,
    finite_type_verdict,
    is_unramified,
    mod_blocks,
    poincare_series,
    rho_weight,
    unramified_count,
)
from .quantum import (
    QChar,
    TorusElement,
    _delta_tilde,
    _delta_tilde_test,
    _pairings,
    beta_minimal,
    hc_shift,
    q_blocks,
    q_regularity_and_counts,
    q_unramified,
    verify_appendix_row,
    appendix_rows,
    w_t,
)
from .rootdata import RootSystem, build_root_system, hypothesis_check, subsystem_classify
from .scalars import UnityExp, make_field, solve_linear
from .weyl import (
    WeylElement,
    _word_for_reflection,
    act_torus,
    enumerate_group,
    generated_group,
    inversion_set,
    orbit_of,
    reflection_stabilizer,
    simple_reflection,
)

MATRIX_TYPES = ("A1", "A2", "A3", "B2", "G2")
MATRIX_PRIMES = (3, 5, 7)
MATRIX_ELLS = (3, 5, 7)


# -- brute-force oracles -----------------------------------------------------

def pair(rs: RootSystem, values, b):
    """lambda(h_beta) for lambda given by its values on the basis coroots."""
    cv = rs.coroot(b)
    acc = None
    for c, v in zip(cv, values):
        term = v * c
        acc = term if acc is None else acc + term
    return acc


def root_value(rs: RootSystem, t: TorusElement, beta) -> UnityExp:
    """beta(t) as a root of unity: exponent sum_j b_j sum_i C[i][j] q_i."""
    r = rs.rank
    acc = Fraction(0)
    for j, bj in enumerate(beta):
        if bj:
            acc += bj * sum(rs.cartan[i][j] * t.exps[i].q for i in range(r))
    return UnityExp(acc)


def close_up(rs: RootSystem, seed):
    """Smallest negation- and addition-closed root subset containing seed."""
    S = set()
    for b in seed:
        S.add(b)
        S.add(tuple(-c for c in b))
    changed = True
    while changed:
        changed = False
        cur = list(S)
        for b in cur:
            for g in cur:
                s = tuple(x + y for x, y in zip(b, g))
                if rs.is_root(s) and s not in S:
                    S.add(s)
                    changed = True
    return frozenset(S)


def root_reflection(rs: RootSystem, beta) -> WeylElement:
    """s_beta for any root beta."""
    r = rs.rank
    cv = rs.coroot(beta)
    pairings = [sum(cv[t] * rs.cartan[t][i] for t in range(r))  # alpha_i(h_beta)
                for i in range(r)]
    m = tuple(
        tuple((1 if i == k else 0) - pairings[i] * beta[k] for i in range(r))
        for k in range(r)
    )
    word = _word_for_reflection(rs, beta)
    return WeylElement(rs, m, m, word)


def subgroup_elements(sub):
    """The elements of W(sub), closed from the reflections of the basis of
    the classified subsystem `sub`."""
    gens = [root_reflection(sub.rs, b) for b in sub.basis]
    return generated_group(sub.rs, gens, sub.order, sub.type_str)


def is_reduced(rs: RootSystem, word) -> bool:
    gammas = inversion_set(rs, word)
    return (all(rs.is_positive(g) for g in gammas)
            and len(set(gammas)) == len(gammas))


def act_modular(w: WeylElement, values, dot: bool = False):
    """Weyl action on coroot-value vectors; dot variant is w(x + rho) - rho."""
    if not dot:
        return w.act_values(values)
    one = None
    for v in values:
        one = v.field.one()
        break
    shifted = tuple(v + one for v in values)
    moved = w.act_values(shifted)
    return tuple(v - one for v in moved)


def stabilizer_bruteforce(elements, points, act):
    """Exact stabilizer {w : w.x = x for all x in points}; oracle path."""
    return tuple(w for w in elements
                 if all(act(w, x) == x for x in points))


def min_coset_reps(rs: RootSystem, elements, parabolic_indices):
    """Minimal-length coset representatives for the standard parabolic
    generated by the given simple reflections (0-based indices)."""
    for j in parabolic_indices:
        if not (0 <= j < rs.rank):
            raise NotParabolic(f"generator index {j} is not a simple root index")
    simples = [tuple(1 if k == j else 0 for k in range(rs.rank))
               for j in parabolic_indices]
    reps = [w for w in elements
            if all(rs.is_positive(w.apply_root(a)) for a in simples)]
    return sorted(reps, key=lambda w: (w.length, w.word))


def burnside_count(elements, points, act) -> int:
    """Independent orbit-count oracle: average number of fixed points."""
    pointlist = list(points)
    total = 0
    for w in elements:
        total += sum(1 for x in pointlist if act(w, x) == x)
    if total % len(elements):
        raise InvariantViolation(
            f"Burnside sum {total} is not divisible by |G| = {len(elements)}")
    return total // len(elements)


def ell_fiber(rs: RootSystem, chi_s: TorusElement, ell: int):
    """The ell^r torus elements t with t^ell = chi_s^2, in lex order of the
    coordinatewise offsets."""
    axes = [[UnityExp((2 * e.q + d) / ell) for d in range(ell)] for e in chi_s.exps]
    return [TorusElement(exps) for exps in itertools.product(*axes)]


def steinberg_fiber_point(chi: QChar):
    """The canonical dimension-one fiber point: the lex-first fiber element on
    which every root of Phi' takes the value 1 (exists in every matrix cell;
    the whole Levi then stabilizes it, so its block has dimension one)."""
    for t in ell_fiber(chi.rs, chi.chi_s, chi.ell):
        vals, _N = _pairings(chi.rs, t)
        if all(vals[b] == 0 for b in chi.levi.basis):
            return t
    return None


def _exceptional_by_solve_and_closure(rs: RootSystem):
    """Oracle for quantum.exceptional_elements on an irreducible system: per
    node m, s_m from solving sum_i C[i][j] q_i = delta_jm / a_m, and its
    centralizer as the closure of the off-node simple roots and beta_m.
    Returns the records for m = 1..r."""
    r = rs.rank
    simple = [tuple(int(k == j) for k in range(r)) for j in range(r)]
    rows = [[rs.cartan[i][j] for i in range(r)] for j in range(r)]
    out = []
    for m in range(r):
        rhs = [Fraction(1, rs.a[m]) if j == m else 0 for j in range(r)]
        s_m = TorusElement(tuple(UnityExp(x) for x in solve_linear(rows, rhs)))
        bm = beta_minimal(rs, m)
        gens = [a for j, a in enumerate(simple) if j != m] + [bm]
        out.append({
            "m": m + 1,
            "torus": s_m,
            "root_values": tuple(root_value(rs, s_m, a) for a in simple),
            "centralizer": subsystem_classify(rs, close_up(rs, gens)),
            "beta_m": bm,
        })
    return out


# -- the test matrix ---------------------------------------------------------

def _zero_root_count(rs, values):
    return sum(1 for b in rs.pos_roots if pair(rs, values, b).is_zero())


def _value_candidates(rs, field):
    """All value tuples over the field, lex order in the element encoding."""
    return itertools.product(field.elements(), repeat=rs.rank)


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
        # coordinate 0 varies fastest
        for digits in itertools.product(range(denom), repeat=r):
            exps = tuple(Fraction(d, denom) for d in reversed(digits))
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


def _orbit_times_levi_is_w(chi, W, act, point):
    """|W.chi| |W(Phi')| = |W|, the orbit of chi's `point` listed through the
    elements W: the premise of the stabiliser walk in mod_blocks / q_blocks,
    that the reflections of Phi' generate all of Stab_W(chi)."""
    return len({act(w, point) for w in W}) * chi.levi.order == len(W)


def block_stabiliser_mismatches(chi):
    """The blocks of chi (a PChar or QChar) whose stabiliser data, as the
    block walk reads them on Phi', differ from the oracles' on the block's own
    point: point and coset types, dim, Poincare series, finite-type verdict
    and witness through eta_subsystems (modular); point and fiber types, dim
    and the exceptional flag through w_t on t and t^ell (quantum)."""
    rs = chi.rs
    bad = []
    if isinstance(chi, PChar):
        for b in mod_blocks(chi):
            zero, fp = eta_subsystems(rs, b.eta)
            want = (zero.type_str, fp.type_str, dim_C(rs, b.eta),
                    poincare_series(rs, b.eta) if chi.nilpotent else None,
                    *finite_type_verdict(rs, b.eta))
            if (b.stab_point_type, b.stab_coset_type, b.dim, b.poincare,
                    b.finite_type, b.finite_type_witness) != want:
                bad.append(b.lam.key())
        return bad
    for b in q_blocks(chi):
        point, fiber = w_t(rs, b.rep), w_t(rs, b.rep.pow(chi.ell))
        if (b.stab_point_type, b.stab_fiber_type, b.dim, b.exceptional) != (
                point.type_str, fiber.type_str, fiber.order // point.order,
                point.rank == rs.rank):
            bad.append(b.rep.key())
    return bad


@_suite
def suite_block_count_oracle():
    bad = []
    spot = {}
    for t, p, name, chi in modular_cells():
        W = enumerate_group(chi.rs)
        if not _orbit_times_levi_is_w(chi, W, WeylElement.act_values, chi.values):
            bad.append(("mod stabiliser", t, p, name))
        if block_stabiliser_mismatches(chi):
            bad.append(("mod block stabilisers", t, p, name))
        if not chi.nilpotent:
            continue
        rs = chi.rs
        blocks = mod_blocks(chi)
        field = make_field(p, 1)
        points = [tuple(field.from_int((k // p**i) % p) for i in range(rs.rank))
                  for k in range(p**rs.rank)]
        cnt = burnside_count(W, points, lambda w, x: act_modular(w, x, dot=True))
        if cnt != len(blocks):
            bad.append(("mod", t, p, name))
        spot[(t, p)] = cnt
    for t, ell, name, chi in quantum_cells():
        W = enumerate_group(chi.rs)
        if not _orbit_times_levi_is_w(chi, W, WeylElement.act_torus_exponents,
                                      chi.chi_s.pow(2).exps):
            bad.append(("q stabiliser", t, ell, name))
        if block_stabiliser_mismatches(chi):
            bad.append(("q block stabilisers", t, ell, name))
        if not chi.chi_s.is_one():
            continue
        rs = chi.rs
        blocks = q_blocks(chi)
        fiber = ell_fiber(rs, chi.chi_s, ell)
        cnt = burnside_count(
            W, fiber,
            lambda w, x: TorusElement(w.act_torus_exponents(x.exps)))
        if cnt != len(blocks):
            bad.append(("q", t, ell, name))
    if spot.get(("A2", 5)) != 7 or spot.get(("A1", 3)) != 2:
        bad.append(("spot-values", spot.get(("A2", 5)), spot.get(("A1", 3))))
    return (not bad), ("|W.chi| |W(Phi')| = |W| and per-block stabilisers = "
                       "eta_subsystems / w_t on every cell; partition = "
                       "Burnside on every nilpotent cell; A2/p5 -> 7, A1/p3 -> 2"
                       if not bad else f"{bad}")


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
                label = TorusElement(act_torus(w, point.exps, ell, eps))
                return _delta_tilde_test(rs, label, ell, eps)
    raise HypothesisFailure("no W-conjugate has a basis inside Delta-tilde")


@_suite
def suite_criterion_equivalences():
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
            if fp_sub.roots != chi.levi.roots:
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
        basis = zero.basis
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
            refl = set(subgroup_elements(w_t(rs, f)))
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
