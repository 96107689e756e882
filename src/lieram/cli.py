"""Command-line front end.

Subcommands: modular {blocks,unramified,poincare,finite-type,structure},
quantum {blocks,unramified,exceptional,simplicity,structure},
verify appendix, selftest.

Output is deterministic: JSON with sorted keys (the machine format) or a flat
TSV projection.  Exit status: 0 success, 1 domain error, 2 usage error.
The single --bound flag (mirrored by the LIERAM_BOUND environment variable)
caps both the field size (default 10^9) and the points a block walk visits
(default 10^6).

Input grammars:
  * Cartan types:   A2, b3, A1xA1 (case-insensitive, no whitespace)
  * modular values: comma-separated field literals: integers, g^k (g is the
    deterministic generator of the ambient field), or AS(c) for a chosen
    Artin-Schreier solution of x^p - x = c.  Any AS(c) with c != 0 makes the
    ambient field F_{p^p}; otherwise it is F_p.
  * torus elements: comma-separated exact rationals, exponents on the
    fundamental-weight coordinates, e.g. 1/5,2/5
  * support: comma-separated 1-based indices into the basis of Phi'
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import LieramError
from .modular import (
    ModWeight,
    PChar,
    check_hypotheses,
    finite_type_verdict,
    is_unramified,
    mod_blocks,
    poincare_series,
    regularity_and_structure,
    rho_weight,
    unramified_count,
)
from .quantum import (
    QChar,
    TorusElement,
    appendix_rows,
    check_root_of_unity,
    exceptional_elements,
    q_blocks,
    q_regularity_and_counts,
    q_unramified,
    simplicity_necessary,
    verify_appendix_row,
)
from .rootdata import build_root_system
from .scalars import artin_schreier_solve, embed, make_field


class UsageError(Exception):
    """A malformed literal in an argument; main() reports it with the usage
    line and exit status 2."""


def _bound_value(text):
    """The --bound (and LIERAM_BOUND) value: a non-negative integer."""
    try:
        bound = int(text)
    except ValueError:
        bound = None
    if bound is None or bound < 0:
        raise argparse.ArgumentTypeError(
            f"bound must be a non-negative integer, not {text!r}")
    return bound


def _bounds(args):
    """The --bound value, else LIERAM_BOUND's, else None (each check's own
    default)."""
    env = os.environ.get("LIERAM_BOUND")
    if args.bound is not None or not env:
        return args.bound
    try:
        return _bound_value(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"LIERAM_BOUND: {exc}") from None


_FIELD_LITERAL = re.compile(r"[+-]?\d+|g(\^[+-]?\d+)?|AS\([+-]?\d+\)")


def parse_field_values(text: str, p: int, rank: int, bound=None):
    """Parse the modular character / weight grammar into FFElem values."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    if len(tokens) != rank:
        raise LieramError(f"expected {rank} comma-separated values, got {len(tokens)}")
    for t in tokens:
        if not _FIELD_LITERAL.fullmatch(t):
            raise UsageError(
                f"malformed field literal {t!r}: expected an integer, g, g^k or AS(c)")
    base = make_field(p, 1, bound)
    needs_ext = any(t.startswith("AS(") and int(t[3:-1]) % p != 0 for t in tokens)
    ambient = make_field(p, p, bound) if needs_ext else base
    gen = None
    values = []
    for t in tokens:
        if t.startswith("AS(") and t.endswith(")"):
            c = base.from_int(int(t[3:-1]))
            x, _fld = artin_schreier_solve(c, bound)
            values.append(embed(x, ambient))
        elif t == "g" or t.startswith("g^"):
            if gen is None:
                gen = ambient.generator()
            k = 1 if t == "g" else int(t[2:])
            values.append(gen**k)
        else:
            values.append(ambient.from_int(int(t)))
    return tuple(values), ambient


def parse_torus(text: str, rank: int) -> TorusElement:
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    if len(tokens) != rank:
        raise LieramError(f"expected {rank} comma-separated exponents, got {len(tokens)}")
    return TorusElement(tuple(_literal(Fraction, t, "exact rational") for t in tokens))


def parse_support(text: str):
    """1-based indices into the basis of Phi', returned 0-based."""
    if not text or not text.strip():
        return ()
    out = tuple(_literal(int, t.strip(), "support index") for t in text.split(","))
    if any(i < 1 for i in out):
        raise UsageError(f"support indices start at 1, not {min(out)}")
    return tuple(i - 1 for i in out)


def _literal(convert, text, what):
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"malformed {what} {text!r}") from None


def _ffstr(v):
    return repr(v)


def _emit(args, payload, tsv_rows=None):
    """Write payload as JSON, or under --format tsv the rows that `tsv_rows`
    (a function, called only then) builds, by default one per payload key."""
    if args.format == "json":
        sys.stdout.write(_dumps(payload) + "\n")
    else:
        rows = tsv_rows() if tsv_rows else [["key", "value"]] + [
            [k, json.dumps(v, sort_keys=True)] for k, v in sorted(payload.items())]
        for row in rows:
            sys.stdout.write("\t".join(str(c) for c in row) + "\n")
    return 0


def _dumps(obj, nl="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte: the stdlib
    encodes with indent in pure Python, never with its C encoder.  Dict keys
    must be str (TypeError otherwise); `nl` is the current line break."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    if obj is None or type(obj) is bool:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        if all(type(x) is int for x in obj):  # bools are not ints here
            return "[" + inner + ("," + inner).join(map(str, obj)) + nl + "]"
        return "[" + inner + ("," + inner).join(_dumps(x, inner) for x in obj) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())) + nl + "}"
    return json.dumps(obj)


def _chi_dict(chi):
    return {
        "values": [list(v.coeffs) for v in chi.values],
        "field": {"p": chi.field.p, "e": chi.field.e,
                  "modulus": list(chi.field.modulus)},
        "support": [s + 1 for s in chi.support],
        "levi_type": chi.levi.type_str,
        "levi_basis": [list(b) for b in chi.levi.basis],
    }


def cmd_modular_blocks(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    values, field = parse_field_values(args.chi_s, args.p, rs.rank, bound)
    chi = PChar(rs, args.p, values=values, support=parse_support(args.support),
                field=field)
    blocks = mod_blocks(chi, bound)
    counts = unramified_count(chi, blocks)
    structure = regularity_and_structure(chi, blocks)
    payload = {
        "command": "modular.blocks",
        "type": rs.type_str,
        "p": args.p,
        "chi": _chi_dict(chi),
        "blocks": [b.to_dict() for b in blocks],
        "counts": {"num_blocks": len(blocks),
                   "dim_sum": sum(b.dim for b in blocks),
                   "unramified": counts},
        "structure": structure,
    }

    def rows():
        out = [["lambda", "eta", "orbit_size", "dim", "unramified",
                "stab_point", "stab_coset", "poincare", "finite_type"]]
        for b in blocks:
            out.append([
                ";".join(_ffstr(v) for v in b.lam.values),
                ";".join(_ffstr(v) for v in b.eta.values),
                b.orbit_size, b.dim, b.unramified,
                b.stab_point_type, b.stab_coset_type,
                ",".join(map(str, b.poincare)) if b.poincare else "-",
                b.finite_type,
            ])
        return out
    return _emit(args, payload, rows)


def cmd_modular_unramified(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    check_hypotheses(rs, args.p)
    values, _field = parse_field_values(args.weight, args.p, rs.rank, bound)
    lam = ModWeight(values)
    payload = {
        "command": "modular.unramified",
        "type": rs.type_str,
        "p": args.p,
        "weight": [list(v.coeffs) for v in lam.values],
        "simpleRootCriterion": is_unramified(rs, lam, "simpleRootCriterion"),
        "definitional": is_unramified(rs, lam, "definitional"),
    }
    return _emit(args, payload)


def cmd_modular_poincare(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    values, _field = parse_field_values(args.weight, args.p, rs.rank, bound)
    coeffs = poincare_series(rs, ModWeight(values))
    payload = {
        "command": "modular.poincare",
        "type": rs.type_str,
        "p": args.p,
        "weight": [list(v.coeffs) for v in values],
        "coefficients": list(coeffs),
        "value_at_1": sum(coeffs),
    }
    return _emit(args, payload)


def cmd_modular_finite_type(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    check_hypotheses(rs, args.p)
    values, field = parse_field_values(args.weight, args.p, rs.rank, bound)
    lam = ModWeight(values)
    eta = lam + rho_weight(rs, field)
    verdict, witness = finite_type_verdict(rs, eta)
    payload = {
        "command": "modular.finite-type",
        "type": rs.type_str,
        "p": args.p,
        "weight": [list(v.coeffs) for v in values],
        "verdict": verdict,
        "witness": witness,
    }
    return _emit(args, payload)


def cmd_modular_structure(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    values, field = parse_field_values(args.chi_s, args.p, rs.rank, bound)
    chi = PChar(rs, args.p, values=values, support=parse_support(args.support),
                field=field)
    out = regularity_and_structure(chi, bound=bound)
    payload = {
        "command": "modular.structure",
        "type": rs.type_str,
        "p": args.p,
        "chi": _chi_dict(chi),
        **out,
    }
    return _emit(args, payload)


def _qchi_dict(chi):
    return {
        "chi_s": [str(e) for e in chi.chi_s.exps],
        "support": [s + 1 for s in chi.support],
        "levi_type": chi.levi.type_str,
        "levi_basis": [list(b) for b in chi.levi.basis],
        "eps": chi.eps,
    }


def cmd_quantum_blocks(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    chi = QChar(rs, args.ell, chi_s=parse_torus(args.chi_s, rs.rank),
                support=parse_support(args.support), eps=args.eps)
    blocks = q_blocks(chi, bound)
    counts = q_regularity_and_counts(chi, blocks)
    payload = {
        "command": "quantum.blocks",
        "type": rs.type_str,
        "ell": args.ell,
        "chi": _qchi_dict(chi),
        "blocks": [b.to_dict() for b in blocks],
        "counts": {"num_blocks": len(blocks),
                   "dim_sum": sum(b.dim for b in blocks)},
        "structure": counts,
    }

    def rows():
        out = [["torus", "orbit_size", "dim", "unramified", "exceptional",
                "stab_point", "stab_fiber"]]
        for b in blocks:
            out.append([";".join(str(e) for e in b.rep.exps),
                        b.orbit_size, b.dim, b.unramified, b.exceptional,
                        b.stab_point_type, b.stab_fiber_type])
        return out
    return _emit(args, payload, rows)


def cmd_quantum_unramified(args):
    rs = build_root_system(args.type)
    check_root_of_unity(rs, args.ell, args.eps)
    t = parse_torus(args.torus, rs.rank)
    payload = {
        "command": "quantum.unramified",
        "type": rs.type_str,
        "ell": args.ell,
        "torus": [str(e) for e in t.exps],
        "coords": args.coords,
        "eps": args.eps,
    }
    if args.coords in ("component", "both"):
        payload["component"] = q_unramified(rs, t, "component", args.ell, args.eps)
    if args.coords in ("highestWeight", "both"):
        payload["highestWeight"] = q_unramified(rs, t, "highestWeight",
                                                args.ell, args.eps)
    return _emit(args, payload)


def cmd_quantum_exceptional(args):
    rs = build_root_system(args.type)
    recs = exceptional_elements(rs)
    payload = {
        "command": "quantum.exceptional",
        "type": rs.type_str,
        "elements": [{
            "m": rec["m"],
            "torus": [str(e) for e in rec["torus"].exps],
            "centralizer_type": rec["centralizer"].type_str,
            "centralizer_order": rec["centralizer"].order,
            "beta_m": list(rec["beta_m"]) if rec["beta_m"] else None,
        } for rec in recs],
    }

    def rows():
        out = [["m", "torus", "centralizer", "order", "beta_m"]]
        for rec in payload["elements"]:
            out.append([rec["m"], ";".join(rec["torus"]), rec["centralizer_type"],
                        rec["centralizer_order"],
                        ",".join(map(str, rec["beta_m"])) if rec["beta_m"] else "-"])
        return out
    return _emit(args, payload, rows)


def cmd_quantum_simplicity(args):
    rs = build_root_system(args.type)
    chi = QChar(rs, args.ell, chi_s=parse_torus(args.chi_s, rs.rank),
                support=parse_support(args.support), eps=args.eps)
    t = parse_torus(args.torus, rs.rank)
    res = simplicity_necessary(chi, t)
    payload = {
        "command": "quantum.simplicity",
        "note": "necessary condition only",
        "type": rs.type_str,
        "ell": args.ell,
        "chi": _qchi_dict(chi),
        "torus": [str(e) for e in t.exps],
        **res,
    }
    return _emit(args, payload)


def cmd_quantum_structure(args):
    bound = _bounds(args)
    rs = build_root_system(args.type)
    chi = QChar(rs, args.ell, chi_s=parse_torus(args.chi_s, rs.rank),
                support=parse_support(args.support), eps=args.eps)
    out = q_regularity_and_counts(chi, bound=bound)
    payload = {
        "command": "quantum.structure",
        "type": rs.type_str,
        "ell": args.ell,
        "chi": _qchi_dict(chi),
        **out,
    }
    return _emit(args, payload)


def cmd_verify_appendix(args):
    rows = appendix_rows()
    if args.type:
        want = args.type.strip().upper()
        rows = [(t, m) for t, m in rows if t == want]
        if not rows:
            raise LieramError(f"no appendix rows for type {args.type}")
    results = [verify_appendix_row(t, m) for t, m in rows]
    payload = {
        "command": "verify.appendix",
        "rows": results,
        "all_ok": all(r["ok"] for r in results),
    }

    def rows():
        out = [["type", "m", "ok", "convention", "alpha_corrected"]]
        for r in results:
            out.append([r["type"], r["m"], r["ok"], r["convention"],
                        json.dumps(r["alpha_corrected"])])
        return out
    return _emit(args, payload, rows)


def cmd_selftest(args):
    # the suites and their brute-force oracles load only for this command
    from .selftest import SUITES, run_suites
    names = [args.suite] if args.suite else None
    if args.suite and args.suite not in SUITES:
        raise LieramError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(SUITES))}")
    ok, results = run_suites(names)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    sys.stdout.write(("ALL PASS" if ok else "FAILURES") + "\n")
    return 0 if ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--bound", type=_bound_value, default=argparse.SUPPRESS,
                        help="cap for field size and group enumeration "
                             "(defaults 10^9 / 10^6; env LIERAM_BOUND)")
    top = argparse.ArgumentParser(prog="lieram", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--format", choices=("json", "tsv"), default="json")
    top.add_argument("--bound", type=_bound_value, default=None)
    sub = top.add_subparsers(dest="group", required=True)

    def leaf(parent, name):
        p = parent.add_parser(name, parents=[common])
        p.set_defaults(parser=p)  # its usage line goes with a UsageError
        return p

    mod = sub.add_parser("modular").add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("blocks", cmd_modular_blocks, ("chi_s", "support")),
        ("unramified", cmd_modular_unramified, ("weight",)),
        ("poincare", cmd_modular_poincare, ("weight",)),
        ("finite-type", cmd_modular_finite_type, ("weight",)),
        ("structure", cmd_modular_structure, ("chi_s", "support")),
    ):
        p = leaf(mod, name)
        p.add_argument("--type", required=True)
        p.add_argument("--p", type=int, required=True)
        if "chi_s" in extra:
            p.add_argument("--chi-s", dest="chi_s", default="",
                           help="semisimple values (field literals)")
            p.add_argument("--support", default="",
                           help="1-based indices into the basis of Phi'")
        if "weight" in extra:
            p.add_argument("--weight", required=True,
                           help="coroot values (field literals)")
        p.set_defaults(func=fn)

    q = sub.add_parser("quantum").add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("blocks", cmd_quantum_blocks, ("chi_s", "support")),
        ("unramified", cmd_quantum_unramified, ("torus", "coords")),
        ("exceptional", cmd_quantum_exceptional, ()),
        ("simplicity", cmd_quantum_simplicity, ("chi_s", "support", "torus")),
        ("structure", cmd_quantum_structure, ("chi_s", "support")),
    ):
        p = leaf(q, name)
        p.add_argument("--type", required=True)
        if name != "exceptional":
            p.add_argument("--ell", type=int, required=True)
            p.add_argument("--eps", type=int, default=1,
                           help="epsilon = exp(2 pi i eps/ell)")
        if "chi_s" in extra:
            p.add_argument("--chi-s", dest="chi_s", default="",
                           help="torus exponents, e.g. 0/1 or 1/5,2/5")
            p.add_argument("--support", default="")
        if "torus" in extra:
            p.add_argument("--torus", required=True,
                           help="torus exponents of the point")
        if "coords" in extra:
            p.add_argument("--coords", default="both",
                           choices=("component", "highestWeight", "both"))
        p.set_defaults(func=fn)

    v = sub.add_parser("verify").add_subparsers(dest="command", required=True)
    pa = leaf(v, "appendix")
    pa.add_argument("--type", default=None)
    pa.set_defaults(func=cmd_verify_appendix)

    st = sub.add_parser("selftest", parents=[common])
    st.add_argument("--suite", default=None)
    st.set_defaults(func=cmd_selftest, parser=st)
    return top


@functools.cache
def _parser():
    # built on the first call, not at import; every call parses into a fresh
    # Namespace, so nothing carries over from one call to the next
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # empty chi-s defaults to the zero character / trivial torus element
        if getattr(args, "chi_s", None) == "":
            rs = build_root_system(args.type)
            args.chi_s = ",".join(["0"] * rs.rank)
        return args.func(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except LieramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
