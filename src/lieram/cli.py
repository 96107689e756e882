"""Command-line front end.

Subcommands: modular {blocks,unramified,poincare,finite-type,structure},
quantum {blocks,unramified,exceptional,simplicity,structure},
verify appendix, selftest.

Output is deterministic: JSON with sorted keys (the machine format) or a flat
TSV projection.  Exit status: 0 success, 1 domain error, 2 usage error.
The single --bound flag (mirrored by the LIERAM_BOUND environment variable)
caps the field size (default 10^9), the points a block walk visits (default
10^6) and, with the default of the points, the root tables of the Cartan
type: |Phi+| x rank entries.

Every subcommand's inputs are resolved and checked once, before it runs, in
one order; the first failure is the one reported:
  1. the bound: --bound, else LIERAM_BOUND;
  2. the Cartan type: its grammar, then |Phi+| x rank against the bound,
     before its root system is built;
  3. the standing hypotheses: on p (modular: p within the field bound,
     prime, then the hypotheses), or on ell and eps (quantum);
  4. the character, --chi-s (empty: the zero character) then --support, or
     the single --weight or --torus: the count of values, each literal, the
     field bound; given both (quantum simplicity), the character, then the
     torus, which must label a baby Verma module of it (t^ell = chi_s).
Each command then computes only its own fields.

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
from types import SimpleNamespace
from typing import NamedTuple

from .errors import HypothesisFailure, InvariantViolation, LieramError
from .modular import (
    PChar,
    block_finite_type,
    block_unramified,
    check_hypotheses,
    mod_blocks,
    poincare_series,
    regularity_and_structure,
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
    values = []
    for t in tokens:
        if t.startswith("AS(") and t.endswith(")"):
            c = base.from_int(int(t[3:-1]))
            x, _fld = artin_schreier_solve(c, bound)
            values.append(embed(x, ambient))
        elif t == "g" or t.startswith("g^"):  # the generator is kept by its field
            values.append(ambient.generator ** (1 if t == "g" else int(t[2:])))
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


def _emit(args, payload, tsv_rows=None):
    """Write payload as JSON, a list of block reports one report at a time
    (see _json_pieces), or under --format tsv the rows that `tsv_rows` (a
    function, called only then) builds, by default one per payload key."""
    if args.format == "json":
        for piece in _json_pieces(payload):
            sys.stdout.write(piece)
    else:
        rows = tsv_rows() if tsv_rows else [["key", "value"]] + [
            [k, json.dumps(v, sort_keys=True)] for k, v in sorted(payload.items())]
        for row in rows:
            sys.stdout.write("\t".join(str(c) for c in row) + "\n")
    return 0


# a value no payload holds, put where a layout leaves a hole, and its text
_MARK = "\x00"
_MARK_TEXT = encode_basestring_ascii(_MARK)


class _Texts(dict):
    """The text of each value at line break `nl`, rendered on first use."""

    def __init__(self, nl):
        self.nl = nl

    def __missing__(self, v):
        text = self[v] = _dumps(v, self.nl)
        return text


def _json_pieces(payload):
    """_dumps(payload) + "\n" in pieces.  A non-empty payload["blocks"] is a
    list of block reports (weyl.BlockRecord), each written as _dumps of its
    to_dict in a piece of its own, by one % of a template over the texts of
    its varying_items().  The layout of a report (_layout) is rendered once
    per process and shape; per answer and report.stabilizer, one to_dict and
    the text of each fixed field (outside VARYING), baked with the layout
    into the template; per answer, the text of each distinct varying value.
    InvariantViolation, checked on each stabiliser's first report, unless
    every such value with line breaks sits at one depth, a list item's: each
    VARYING field of to_dict is a list, or holds no list, tuple or dict."""
    blocks = payload.get("blocks")
    if not blocks:
        yield _dumps(payload) + "\n"
        return
    head, sep, tail = _dumps({**payload, "blocks": [_MARK, _MARK]}).split(_MARK_TEXT)
    nl = sep[1:]  # the line break before each report
    templates, texts = {}, _Texts(nl + "    ")  # at a list item
    yield head
    for i, b in enumerate(blocks):
        template = templates.get(b.stabilizer)
        if template is None:
            template = templates[b.stabilizer] = _template(b, nl)
        yield (sep if i else "") + template % tuple(map(texts.__getitem__, b.varying_items()))
    yield tail + "\n"


def _template(report, nl):
    """The % template of the reports that share report.stabilizer at line
    break nl: its layout with the text of each fixed field in place, "%"
    escaped, and a %s per value of varying_items()."""
    d, varying = report.to_dict(), report.VARYING
    if any(type(d[k]) is not list and isinstance(d[k], (list, tuple, dict)) for k in varying):
        raise InvariantViolation(
            f"a VARYING value of {type(report).__name__} is not at the depth of a list item")
    parts, fixed = _layout(tuple(sorted(d)), varying,
                           tuple(len(d[k]) if type(d[k]) is list else None for k in varying), nl)
    parts, inner = list(parts), nl + "  "  # at a report's field
    for i, k in fixed:
        parts[i] = _dumps(d[k], inner).replace("%", "%%")
    return "".join(parts)


@functools.cache
def _layout(keys, varying, lengths, nl):
    """The layout of a report at line break nl whose to_dict has the sorted
    keys `keys`, `varying` its VARYING and `lengths` the length of each
    VARYING list (None for a field that is not a list): the texts between
    its values, "%" escaped, with a %s for each varying value and a None
    slot for each fixed field between them; and (index, key) of each slot.
    Pure, so kept for the process: one entry per report class and shape."""
    counts = {k: n for k, n in zip(varying, lengths) if n is not None}
    shape = {k: [_MARK] * counts[k] if k in counts else _MARK for k in keys}
    pieces = [x.replace("%", "%%") for x in _dumps(shape, nl).split(_MARK_TEXT)]
    keys = [k for k in keys for _ in range(counts.get(k, 1))]  # of each value
    parts = [pieces[0]]
    for k, x in zip(keys, pieces[1:]):
        parts += ("%s" if k in varying else None, x)
    return tuple(parts), tuple((2 * i + 1, k) for i, k in enumerate(keys) if k not in varying)


def _dumps(obj, nl="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte: the stdlib
    encodes with indent in pure Python, never with its C encoder.  Dict keys
    must be str (TypeError otherwise); `nl` is the current line break.  It
    dispatches on the exact type of obj, then on isinstance."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([
            str(x) if type(x) is int else _dumps(x, inner) for x in obj]) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())]) + nl + "}"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    # a subclass of str, list, tuple or dict, read as json.dumps reads it;
    # floats and subclasses of int through json.dumps itself
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        return _dumps(list(obj), nl)
    if isinstance(obj, dict):
        return _dumps(dict(obj.items()), nl)
    return json.dumps(obj)


def _levi_dict(chi):
    # what a character of either side says of its support and its Levi
    return {"support": [s + 1 for s in chi.support], "levi_type": chi.levi.type_str,
            "levi_basis": [list(b) for b in chi.levi.basis]}


def _chi_dict(chi):
    return {"values": [list(v.coeffs) for v in chi.values], **_levi_dict(chi),
            "field": {"p": chi.field.p, "e": chi.field.e, "modulus": list(chi.field.modulus)}}


def _qchi_dict(chi):
    return {"chi_s": chi.chi_s.texts(), "eps": chi.eps, **_levi_dict(chi)}


def _resolve(args):
    """The inputs of args' subcommand, each resolved and checked once, in the
    order the module docstring gives: a namespace of the bound, the root
    system rs, the character chi and the point (a tuple of field values or a
    TorusElement) the command takes, and the head of its payload: command,
    type, p or ell, and chi, weight or torus."""
    q = SimpleNamespace(bound=_bounds(args), head={})
    if args.group == "selftest":
        return q
    q.head["command"] = f"{args.group}.{args.command}"
    if args.group == "verify":  # its --type picks rows of the appendix table
        return q
    rs = q.rs = build_root_system(args.type, q.bound)  # refuses a type above the bound
    q.head["type"] = rs.type_str
    # an empty --chi-s is the zero character (the identity torus element)
    chi_s = "chi_s" in args and (args.chi_s or ",".join(["0"] * rs.rank))
    if args.group == "modular":
        make_field(args.p, 1, q.bound)  # p within the field bound and prime
        check_hypotheses(rs, args.p)
        q.head["p"] = args.p
        values, field = parse_field_values(chi_s or args.weight, args.p, rs.rank, q.bound)
        if chi_s:
            q.chi = PChar(rs, args.p, values=values, support=parse_support(args.support),
                          field=field)
            q.head["chi"] = _chi_dict(q.chi)
        else:
            q.point = values
            q.head["weight"] = [list(v.coeffs) for v in values]
    elif "ell" in args:
        check_root_of_unity(rs, args.ell, args.eps)
        q.head["ell"] = args.ell
        if chi_s:
            q.chi = QChar(rs, args.ell, chi_s=parse_torus(chi_s, rs.rank),
                          support=parse_support(args.support), eps=args.eps)
            q.head["chi"] = _qchi_dict(q.chi)
        if "torus" in args:
            q.point = parse_torus(args.torus, rs.rank)
            q.head["torus"] = q.point.texts()
            if chi_s and q.point.pow(args.ell) != q.chi.chi_s:
                raise HypothesisFailure(
                    f"t^{args.ell} != chi_s: t labels no baby Verma module")
    return q


def cmd_modular_blocks(args, q):
    blocks = mod_blocks(q.chi, q.bound)
    payload = {**q.head, "blocks": blocks,
               "counts": {"num_blocks": len(blocks), "dim_sum": sum(b.dim for b in blocks),
                          "unramified": unramified_count(q.chi, blocks)},
               "structure": regularity_and_structure(q.chi, blocks)}

    def rows():
        return [["lambda", "eta", "orbit_size", "dim", "unramified",
                 "stab_point", "stab_coset", "poincare", "finite_type"],
                *([";".join(map(repr, b.lam)), ";".join(map(repr, b.eta)),
                   b.orbit_size, b.dim, b.unramified, b.stab_point_type, b.stab_coset_type,
                   ",".join(map(str, b.poincare)) if b.poincare else "-", b.finite_type]
                  for b in blocks)]
    return _emit(args, payload, rows)


def cmd_modular_unramified(args, q):
    return _emit(args, {**q.head, **block_unramified(q.rs, q.point)})


def cmd_modular_poincare(args, q):
    coeffs = poincare_series(q.rs, q.point)
    return _emit(args, {**q.head, "coefficients": list(coeffs), "value_at_1": sum(coeffs)})


def cmd_modular_finite_type(args, q):
    verdict, witness = block_finite_type(q.rs, q.point)
    return _emit(args, {**q.head, "verdict": verdict, "witness": witness})


def cmd_modular_structure(args, q):
    return _emit(args, {**q.head, **regularity_and_structure(q.chi, bound=q.bound)})


def cmd_quantum_blocks(args, q):
    blocks = q_blocks(q.chi, q.bound)
    payload = {**q.head, "blocks": blocks,
               "counts": {"num_blocks": len(blocks), "dim_sum": sum(b.dim for b in blocks)},
               "structure": q_regularity_and_counts(q.chi, blocks)}

    def rows():
        return [["torus", "orbit_size", "dim", "unramified", "exceptional",
                 "stab_point", "stab_fiber"],
                *([";".join(b.torus), b.orbit_size, b.dim, b.unramified, b.exceptional,
                   b.stab_point_type, b.stab_fiber_type] for b in blocks)]
    return _emit(args, payload, rows)


def cmd_quantum_unramified(args, q):
    payload = {**q.head, "coords": args.coords, "eps": args.eps}
    for coords in ("component", "highestWeight"):
        if args.coords in (coords, "both"):
            payload[coords] = q_unramified(q.rs, q.point, coords, args.ell, args.eps)
    return _emit(args, payload)


def cmd_quantum_exceptional(args, q):
    elements = [{"m": rec["m"], "torus": rec["torus"].texts(),
                 "centralizer_type": rec["centralizer"].type_str,
                 "centralizer_order": rec["centralizer"].order,
                 "beta_m": list(rec["beta_m"]) if rec["beta_m"] else None}
                for rec in exceptional_elements(q.rs)]

    def rows():
        return [["m", "torus", "centralizer", "order", "beta_m"],
                *([e["m"], ";".join(e["torus"]), e["centralizer_type"], e["centralizer_order"],
                   ",".join(map(str, e["beta_m"])) if e["beta_m"] else "-"] for e in elements)]
    return _emit(args, {**q.head, "elements": elements}, rows)


def cmd_quantum_simplicity(args, q):
    return _emit(args, {**q.head, "note": "necessary condition only",
                        **simplicity_necessary(q.chi, q.point)})


def cmd_quantum_structure(args, q):
    return _emit(args, {**q.head, **q_regularity_and_counts(q.chi, bound=q.bound)})


def cmd_verify_appendix(args, q):
    rows = appendix_rows()
    if args.type is not None:
        want = args.type.strip().upper()
        rows = [(t, m) for t, m in rows if t == want]
        if not rows:
            raise LieramError(f"no appendix rows for type {args.type!r}")
    results = [verify_appendix_row(t, m) for t, m in rows]
    payload = {**q.head, "rows": results, "all_ok": all(r["ok"] for r in results)}

    def rows():
        return [["type", "m", "ok", "convention", "alpha_corrected"],
                *([r["type"], r["m"], r["ok"], r["convention"],
                   json.dumps(r["alpha_corrected"])] for r in results)]
    return _emit(args, payload, rows)


def cmd_selftest(args, _q):
    # the suites and their brute-force oracles load only for this command
    from .selftest import SUITES, run_suites
    if args.suite is not None and args.suite not in SUITES:
        raise LieramError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(SUITES))}")
    ok, results = run_suites(None if args.suite is None else [args.suite])
    for r in results:
        sys.stdout.write(r.line() + "\n")
    sys.stdout.write(("ALL PASS" if ok else "FAILURES") + "\n")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    # argparse drops a failed write; a failed --help write must reach main.
    # Subparsers take the class of their parent parser.
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


class _Flag(NamedTuple):
    """One flag: its name and the keywords argparse's add_argument takes."""
    name: str
    type: object = None
    default: object = None
    required: bool = False
    choices: tuple = None
    help: str = None

    @property
    def dest(self):
        return self.name[2:].replace("-", "_")


# the top-level flags, then the same flags after a leaf, where they override
_TOP = (_Flag("--format", default="json", choices=("json", "tsv")),
        _Flag("--bound", _bound_value))
_COMMON = (_Flag("--format", default=argparse.SUPPRESS, choices=("json", "tsv")),
           _Flag("--bound", _bound_value, argparse.SUPPRESS,
                 help="cap for field size, points a block walk visits and |Phi+| x rank "
                      "of the type (defaults 10^9 / 10^6 / 10^6; env LIERAM_BOUND)"))
_TYPE = _Flag("--type", required=True)
_P = _Flag("--p", int, required=True)
_WEIGHT = _Flag("--weight", required=True, help="coroot values (field literals)")
_MOD_CHI = (_Flag("--chi-s", default="", help="semisimple values (field literals)"),
            _Flag("--support", default="", help="1-based indices into the basis of Phi'"))
_ELL = (_Flag("--ell", int, required=True),
        _Flag("--eps", int, 1, help="epsilon = exp(2 pi i eps/ell)"))
_Q_CHI = (_Flag("--chi-s", default="", help="torus exponents, e.g. 0/1 or 1/5,2/5"),
          _Flag("--support", default=""))
_TORUS = _Flag("--torus", required=True, help="torus exponents of the point")

# The grammar: each leaf, (group, command) or (group,) for a group without
# commands, with its function and its own flags in the order --help lists them.
# build_parser builds the argparse parser from it, and main reads an argv of
# the exact form "group command (--flag value)*" off it directly (_match),
# into the namespace argparse would build; argparse parses every other form
# (--help, abbreviations, --flag=value, flags before the group, repeated or
# unknown flags, bad values), so its messages and exit statuses are its own.
# (The module docstring is the text of `lieram --help`, so this note is here.)
GRAMMAR = {
    ("modular", "blocks"): (cmd_modular_blocks, (_TYPE, _P, *_MOD_CHI)),
    ("modular", "unramified"): (cmd_modular_unramified, (_TYPE, _P, _WEIGHT)),
    ("modular", "poincare"): (cmd_modular_poincare, (_TYPE, _P, _WEIGHT)),
    ("modular", "finite-type"): (cmd_modular_finite_type, (_TYPE, _P, _WEIGHT)),
    ("modular", "structure"): (cmd_modular_structure, (_TYPE, _P, *_MOD_CHI)),
    ("quantum", "blocks"): (cmd_quantum_blocks, (_TYPE, *_ELL, *_Q_CHI)),
    ("quantum", "unramified"): (cmd_quantum_unramified, (
        _TYPE, *_ELL, _TORUS,
        _Flag("--coords", default="both", choices=("component", "highestWeight", "both")))),
    ("quantum", "exceptional"): (cmd_quantum_exceptional, (_TYPE,)),
    ("quantum", "simplicity"): (cmd_quantum_simplicity, (_TYPE, *_ELL, *_Q_CHI, _TORUS)),
    ("quantum", "structure"): (cmd_quantum_structure, (_TYPE, *_ELL, *_Q_CHI)),
    ("verify", "appendix"): (cmd_verify_appendix, (_Flag("--type"),)),
    ("selftest",): (cmd_selftest, (_Flag("--suite"),)),
}


def _add(parser, flag):
    keywords = flag._asdict()
    parser.add_argument(keywords.pop("name"), **keywords)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    for flag in _COMMON:
        _add(common, flag)
    top = _Parser(prog="lieram", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    for flag in _TOP:
        _add(top, flag)
    sub = top.add_subparsers(dest="group", required=True)
    groups, top.leaves = {}, {}
    for key, (fn, flags) in GRAMMAR.items():
        if len(key) == 1:
            p = sub.add_parser(key[0], parents=[common])
        else:
            if key[0] not in groups:
                groups[key[0]] = sub.add_parser(key[0]).add_subparsers(
                    dest="command", required=True)
            p = groups[key[0]].add_parser(key[1], parents=[common])
        for flag in flags:
            _add(p, flag)
        p.set_defaults(func=fn, parser=p)  # its usage line goes with a UsageError
        top.leaves[key] = p
    return top


@functools.cache
def _parser():
    # built on the first call, not at import; every call parses into a fresh
    # Namespace, so nothing carries over from one call to the next
    return build_parser()


@functools.cache
def _exact_forms():
    """Per leaf of GRAMMAR: the namespace argparse fills before it reads a
    flag, the leaf's flags by name, and the names of its required flags."""
    leaves = _parser().leaves
    forms = {}
    for key, (fn, flags) in GRAMMAR.items():
        start = {f.dest: f.default for f in _TOP + flags}
        start.update(zip(("group", "command"), key), func=fn, parser=leaves[key])
        forms[key] = (start, {f.name: (f.dest, f.type, f.choices) for f in _COMMON + flags},
                      {f.name for f in flags if f.required})
    return forms


def _match(argv):
    """The namespace _parser().parse_args(argv) returns when argv is a leaf
    then (--flag value)*, each flag the leaf's, named in full and once, each
    value not starting with "-", converted and among its flag's choices, and
    every required flag given; None for any other argv."""
    forms = _exact_forms()
    key = tuple(argv[:2])
    if key not in forms:
        key = key[:1]
        if key not in forms:
            return None
    start, flags, required = forms[key]
    rest = argv[len(key):]
    if len(rest) % 2:
        return None
    ns, seen = dict(start), set()
    for name, text in zip(rest[::2], rest[1::2]):
        if name not in flags or name in seen or text[:1] == "-":
            return None
        seen.add(name)
        dest, convert, choices = flags[name]
        value = text
        if convert is not None:
            try:
                value = convert(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        ns[dest] = value
    return argparse.Namespace(**ns) if required <= seen else None


def main(argv=None) -> int:
    try:
        try:
            args = _match(sys.argv[1:] if argv is None else argv)
            if args is None:
                args = _parser().parse_args(argv)  # --help writes here, then exits
            return args.func(args, _resolve(args))
        finally:
            if sys.stdout is sys.__stdout__:
                sys.stdout.flush()  # while a failure can still be reported
    except UsageError as exc:
        args.parser.error(str(exc))
    except LieramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        # a write to stdout failed (a closed pipe, a full device); what is
        # still buffered goes from fd 1 to os.devnull at exit, and succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        sys.stderr.write(f"error: writing to stdout: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
