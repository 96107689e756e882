"""Answer checks: projections, digests and invariants.

A query's outcome is its exit code plus a projection of its JSON answer onto
the fields known when the benchmark was written; keys a later version adds
are not part of the projection, so they never count as a mismatch.  Keys it
removes do.

Every answer is checked against invariants that hold for every seed:
  * blocks (both sides): sum of orbit sizes = sum of dimensions = p^r or
    ell^r, unramified iff dimension 1, the reported counts match the blocks;
  * modular: enumerated unramified blocks = p^s with s = r - rank Phi';
    P(1) = dim with a monic top coefficient on nilpotent blocks;
  * modular poincare probes: P(1) = value_at_1, P palindromic with constant
    and top coefficient 1, P(1) divides |W|, degree at most the number of
    positive roots;
  * quantum: orbit size = dimension; on a standard Levi under the
    coprimality hypothesis, enumerated unramified blocks = ell^s;
  * quantum unramified under --coords both: "component" equals an
    all-roots test at the point, and "highestWeight" equals the same test at
    the Harish-Chandra shift of the point (the two fields are evaluated on
    one point in two coordinate systems, so they are compared through the
    shift, never directly);
  * quantum exceptional and verify appendix rows: counts, ranks and orders.

An answer passes when its exit code is 0 and every invariant holds, or when
it is a documented domain error (exit 1, message on stderr).  A traceback,
exit 2 (usage) or any other code fails.  For the default seed the projection
digests are also compared with those pinned in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

KEEP = True


PROJECTIONS = {
    "modular.blocks": {
        "command": KEEP, "type": KEEP, "p": KEEP,
        "chi": {"values": KEEP, "field": KEEP, "support": KEEP,
                "levi_type": KEEP, "levi_basis": KEEP},
        "blocks": [{"lambda": KEEP, "eta": KEEP, "orbit_size": KEEP, "dim": KEEP,
                    "unramified": KEEP,
                    "stabilizer_types": {"point": KEEP, "coset": KEEP},
                    "poincare": KEEP, "finite_type": KEEP,
                    "finite_type_witness": KEEP}],
        "counts": {"num_blocks": KEEP, "dim_sum": KEEP,
                   "unramified": {"predicted": KEEP, "enumerated": KEEP, "s": KEEP,
                                  "agree": KEEP}},
        "structure": {"regular": KEEP, "fullyAzumaya": KEEP, "descriptor": KEEP},
    },
    "modular.poincare": {"command": KEEP, "type": KEEP, "p": KEEP, "weight": KEEP,
                         "coefficients": KEEP, "value_at_1": KEEP},
    "modular.finite-type": {"command": KEEP, "type": KEEP, "p": KEEP, "weight": KEEP,
                            "verdict": KEEP, "witness": KEEP},
    "modular.unramified": {"command": KEEP, "type": KEEP, "p": KEEP, "weight": KEEP,
                           "simpleRootCriterion": KEEP, "definitional": KEEP},
    "quantum.blocks": {
        "command": KEEP, "type": KEEP, "ell": KEEP,
        "chi": {"chi_s": KEEP, "support": KEEP, "levi_type": KEEP,
                "levi_basis": KEEP, "eps": KEEP},
        "blocks": [{"torus": KEEP, "orbit_size": KEEP, "dim": KEEP,
                    "unramified": KEEP, "exceptional": KEEP,
                    "stabilizer_types": {"point": KEEP, "fiber": KEEP}}],
        "counts": {"num_blocks": KEEP, "dim_sum": KEEP},
        "structure": {"regular": KEEP, "fullyAzumaya": KEEP, "s": KEEP,
                      "coprimalityOK": KEEP, "index_of_connection": KEEP,
                      "unramifiedPredicted": KEEP, "unramifiedEnumerated": KEEP,
                      "eps": KEEP, "descriptor": KEEP},
    },
    "quantum.unramified": {"command": KEEP, "type": KEEP, "ell": KEEP, "torus": KEEP,
                           "coords": KEEP, "eps": KEEP, "component": KEEP,
                           "highestWeight": KEEP},
    "quantum.exceptional": {"command": KEEP, "type": KEEP, "elements": KEEP},
    "verify.appendix": {"command": KEEP, "rows": KEEP, "all_ok": KEEP},
}

_MISSING = "<missing>"


def project(obj, template):
    if template is KEEP:
        return obj
    if isinstance(template, list):
        if not isinstance(obj, list):
            return _MISSING
        return [project(x, template[0]) for x in obj]
    if not isinstance(obj, dict):
        return _MISSING
    return {k: project(obj[k], sub) if k in obj else _MISSING
            for k, sub in template.items()}


def _has_missing(x) -> bool:
    if x is _MISSING:
        return True
    if isinstance(x, dict):
        return any(_has_missing(v) for v in x.values())
    return isinstance(x, list) and any(_has_missing(v) for v in x)


def digest(outcome_projection) -> str:
    blob = json.dumps(outcome_projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- Weyl group data, independent of the engine ------------------------------

def weyl_order(t: str) -> int:
    letter, n = t[0], int(t[1:])
    return {"A": lambda: math.factorial(n + 1),
            "B": lambda: 2**n * math.factorial(n),
            "C": lambda: 2**n * math.factorial(n),
            "D": lambda: 2 ** (n - 1) * math.factorial(n),
            "E": lambda: {6: 51840, 7: 2903040, 8: 696729600}[n],
            "F": lambda: 1152,
            "G": lambda: 12}[letter]()


def positive_roots(t: str) -> int:
    letter, n = t[0], int(t[1:])
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[letter]


def type_rank(type_str: str) -> int:
    if type_str == "1":
        return 0
    return sum(int(part[1:]) for part in type_str.split("x"))


# -- invariants ------------------------------------------------------------------

def _blocks_common(a, size, bad):
    blocks = a["blocks"]
    if sum(b["orbit_size"] for b in blocks) != size:
        bad.append(f"sum of orbit sizes != {size}")
    if sum(b["dim"] for b in blocks) != size:
        bad.append(f"sum of dimensions != {size}")
    if any(b["unramified"] != (b["dim"] == 1) for b in blocks):
        bad.append("unramified flag != (dim == 1)")
    c = a["counts"]
    if c["num_blocks"] != len(blocks) or c["dim_sum"] != sum(b["dim"] for b in blocks):
        bad.append("counts disagree with the block list")


def _modular_blocks(q, a, bad):
    chi = a["chi"]
    p, r = a["p"], len(chi["values"])
    _blocks_common(a, p**r, bad)
    blocks = a["blocks"]
    unram = sum(1 for b in blocks if b["unramified"])
    expect = p ** (r - len(chi["levi_basis"]))
    u = a["counts"]["unramified"]
    if not (u["enumerated"] == unram == expect == u["predicted"]):
        bad.append(f"unramified count {unram} != p^s = {expect}")
    nilpotent = all(not v for v in chi["values"])
    for b in blocks:
        P = b["poincare"]
        if nilpotent and (not P or sum(P) != b["dim"] or P[-1] != 1):
            bad.append(f"P(1) != dim or top coefficient != 1: {P}, dim {b['dim']}")
            break
        if not nilpotent and P is not None:
            bad.append("Poincare series reported outside the nilpotent context")
            break
    regular = set(chi["support"]) == set(range(1, len(chi["levi_basis"]) + 1))
    if a["structure"]["regular"] != regular:
        bad.append("regularity flag disagrees with the support")


def _modular_poincare(q, a, bad):
    P = a["coefficients"]
    t = q.ctype
    if not P or sum(P) != a["value_at_1"]:
        bad.append("value_at_1 != P(1)")
    elif P[0] != 1 or P[-1] != 1 or P != P[::-1]:
        bad.append(f"P not monic palindromic: {P}")
    elif weyl_order(t) % a["value_at_1"] or len(P) - 1 > positive_roots(t):
        bad.append(f"P(1) = {a['value_at_1']} does not divide |W| or degree too high")


def _modular_finite_type(q, a, bad):
    w = a["witness"]
    if a["verdict"] not in ("semisimple", "finite", "infinite", "unknown-boundary"):
        bad.append(f"unknown verdict {a['verdict']}")
    elif (a["verdict"] == "semisimple") != (w["point_type"] == w["coset_type"]):
        bad.append("semisimple verdict disagrees with the stabilizer pair")


def _modular_unramified(q, a, bad):
    if a["simpleRootCriterion"] != a["definitional"]:
        bad.append("simple-root criterion != definitional criterion")


def _quantum_blocks(q, a, bad):
    ell, r = a["ell"], len(a["chi"]["chi_s"])
    _blocks_common(a, ell**r, bad)
    blocks = a["blocks"]
    if any(b["orbit_size"] != b["dim"] for b in blocks):
        bad.append("orbit size != dimension")
    s = a["structure"]
    unram = sum(1 for b in blocks if b["unramified"])
    if s["unramifiedEnumerated"] != unram:
        bad.append("enumerated unramified count disagrees with the blocks")
    standard = all(sum(b) == 1 for b in a["chi"]["levi_basis"])
    if standard and s["coprimalityOK"] and s["unramifiedPredicted"] != unram:
        bad.append(f"unramified count {unram} != ell^s = {s['unramifiedPredicted']}")


def _all_roots_unramified(rs, exps, ell):
    r = rs.rank
    for b in rs.pos_roots:
        x = sum(b[j] * sum(rs.cartan[i][j] * exps[i] for i in range(r)) for j in range(r))
        if (x * 2 * ell).denominator == 1 and (x * 2).denominator != 1:
            return False
    return True


def _quantum_unramified(q, a, bad):
    from lieram import TorusElement, build_root_system, hc_shift
    rs = build_root_system(a["type"])
    ell, eps = a["ell"], a["eps"]
    t = [Fraction(x) for x in a["torus"]]
    if a["component"] != _all_roots_unramified(rs, t, ell):
        bad.append("component criterion != all-roots test at the point")
    u = hc_shift(rs, TorusElement(tuple(t)), ell, "forward", eps)
    if a["highestWeight"] != _all_roots_unramified(rs, [e.q for e in u.exps], ell):
        bad.append("highestWeight criterion != all-roots test at the shifted label")


def _quantum_exceptional(q, a, bad):
    t = q.ctype
    r, order = int(t[1:]), weyl_order(t)
    els = a["elements"]
    if [e["m"] for e in els] != list(range(r + 1)):
        bad.append("exceptional elements are not s_0..s_r")
        return
    if els[0]["centralizer_order"] != order or els[0]["beta_m"] is not None:
        bad.append("s_0 must have the whole group as centralizer")
    for e in els[1:]:
        if (order % e["centralizer_order"] or type_rank(e["centralizer_type"]) != r
                or len(e["beta_m"] or ()) != r):
            bad.append(f"s_{e['m']}: centralizer not of full rank or order")


def _verify_appendix(q, a, bad):
    rows = a["rows"]
    r = int(q.ctype[1:])
    if not a["all_ok"] or len(rows) != r or not all(x["ok"] for x in rows):
        bad.append("appendix rows not all verified")


INVARIANTS = {
    "modular.blocks": _modular_blocks,
    "modular.poincare": _modular_poincare,
    "modular.finite-type": _modular_finite_type,
    "modular.unramified": _modular_unramified,
    "quantum.blocks": _quantum_blocks,
    "quantum.unramified": _quantum_unramified,
    "quantum.exceptional": _quantum_exceptional,
    "verify.appendix": _verify_appendix,
}


def command_of(query) -> str:
    if query.argv is None:
        return "modular.blocks"
    cmd = query.argv[1]
    return f"{query.argv[0]}.{cmd}"


def check(query, outcome):
    """(digest, problems) for one answered query; no problems means passed."""
    cmd = command_of(query)
    if outcome.rc != 0:
        problems = []
        if outcome.traceback is not None:
            problems.append("traceback: " + outcome.traceback.strip().splitlines()[-1])
        elif outcome.rc != 1 or not outcome.stderr.startswith("error: "):
            problems.append(f"exit code {outcome.rc}")
        return digest({"exit": outcome.rc}), problems
    try:
        answer = json.loads(outcome.stdout)
    except ValueError:
        return digest({"exit": 0, "answer": None}), ["answer is not JSON"]
    proj = project(answer, PROJECTIONS[cmd])
    problems = []
    if _has_missing(proj):
        problems.append("answer lacks a projected field")
    else:
        try:
            INVARIANTS[cmd](query, answer, problems)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed answer: {exc!r}")
    return digest({"exit": 0, "answer": proj}), problems
