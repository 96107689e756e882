"""Command-line front end.

Subcommands: modular {blocks,unramified,poincare,finite-type,structure},
quantum {blocks,unramified,exceptional,simplicity,structure},
verify appendix, selftest.

Output is deterministic: JSON with sorted keys (the machine format) or a flat
TSV projection.  Exit status: 0 success, 1 domain error, 2 usage error.
The single --bound flag (mirrored by the LIERAM_BOUND environment variable)
caps the work of each check of lieram.errors.BOUNDS; without it each check
has its own default: type 10^6 (rank^2, then |Phi+| x rank), field 10^9
(p^e), points 10^6 (the points a block walk visits) and group 10^6 (|W|,
in the oracles only).

Every subcommand's inputs are resolved and checked once, before it runs, in
one order; the first failure is the one reported:
  1. the bound: --bound, else LIERAM_BOUND;
  2. the Cartan type: its grammar, then rank^2 and |Phi+| x rank against
     the type bound, before its root system is built;
  3. the standing hypotheses: on p (modular: p within the field bound,
     prime, then the hypotheses), or on ell and eps (quantum);
  4. the character, --chi-s (empty: the zero character) then --support, or
     the single --weight or --torus: the count of values, each literal, the
     field bound; given both (quantum simplicity), the character, then the
     torus, which must label a baby Verma module of it (t^ell = chi_s).
Each command then computes only its own fields.

Input grammars:
  * Cartan types:   A2, b3, A1xA1 (case-insensitive; blanks around a factor
    are ignored)
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
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import getitem
from types import SimpleNamespace
from typing import NamedTuple

# lieram.modular, lieram.quantum and the finite fields of lieram.scalars load
# when a command first reads one: no quantum or verify command loads scalars
import lieram

from .errors import HypothesisFailure, InvariantViolation, LieramError
from .rootdata import check_cartan_type, root_system, type_string


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


# the field literals other than an integer, [+-]?\d+: g, g^k and AS(c)
_FIELD_SYMBOL = re.compile(r"g(\^[+-]?\d+)?|AS\([+-]?\d+\)")


def parse_field_slots(text: str, base, rank: int, bound=None):
    """Parse the modular character / weight grammar into slot vectors, each
    value's e coefficients mod p with 0 past its length, and their ambient
    field F_{p^e}; `base` is F_p, built by make_field under the same bound.
    Checked in order: the count of values, each literal, the bound of
    F_{p^p} when an AS(c) literal needs it, then the Artin-Schreier
    solutions.  An integer literal builds no field element."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    if len(tokens) != rank:
        raise LieramError(f"expected {rank} comma-separated values, got {len(tokens)}")
    for t in tokens:
        # str.isdecimal reads Unicode category Nd, as \d does
        if not ((t[1:] if t[:1] in "+-" else t).isdecimal() or _FIELD_SYMBOL.fullmatch(t)):
            raise UsageError(
                f"malformed field literal {t!r}: expected an integer, g, g^k or AS(c)")
    # the integer of each literal: its value, k of g^k (1 for g), c of AS(c)
    try:
        ks = [int(t if t[0] not in "Ag" else t[3:-1] if t[0] == "A" else t[2:] or "1")
              for t in tokens]
    except ValueError:  # more digits than int() reads
        raise UsageError("malformed field literal: more digits than int() reads") from None
    p = base.p
    needs_ext = "AS(" in text and any(k % p for t, k in zip(tokens, ks) if t[0] == "A")
    ambient = lieram.scalars.make_field(p, p, bound) if needs_ext else base
    pad = (0,) * (ambient.e - 1)
    return [(k % p,) + pad if t[0] not in "Ag" else _field_slot(t, k, base, ambient, bound)
            for t, k in zip(tokens, ks)], ambient


def _field_slot(t, k, base, ambient, bound):
    """The slot vector of a g, g^k or AS(c) literal, of integer k (c), in the
    ambient field."""
    if t[0] == "A":
        fields = lieram.scalars
        x = fields.embed(fields.artin_schreier_solve(base.from_int(k), bound)[0], ambient)
    else:  # the generator is kept by its field
        x = ambient.generator ** k
    return x.coeffs + (0,) * (ambient.e - len(x.coeffs))


def parse_field_values(text: str, p: int, rank: int, bound=None):
    """parse_field_slots, as FFElem values of the ambient field, after F_p
    is checked under the bound."""
    slots, field = parse_field_slots(text, lieram.scalars.make_field(p, 1, bound), rank, bound)
    return tuple(map(field.elem, slots)), field


def parse_torus(text: str, rank: int):
    """The torus element of comma-separated exact rationals, each taken and
    refused as Fraction takes a string (_rational)."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    if len(tokens) != rank:
        raise LieramError(f"expected {rank} comma-separated exponents, got {len(tokens)}")
    pairs = [_rational(t) for t in tokens]
    N = math.lcm(*(d for _n, d in pairs))
    return lieram.quantum.TorusElement.of([n * (N // d) for n, d in pairs], N)


def _rational(t):
    """(numerator, denominator > 0) of the exact rational Fraction(t): an
    integer or n/d by int() alone, any other form (decimal, exponent) by
    Fraction, which refuses what no form takes (UsageError).  int() would
    also take blanks around n and d and a sign on d, which Fraction refuses,
    so n must end and d start with a digit."""
    n, slash, d = t.partition("/")
    if n[-1:].isdecimal() and (not slash or d[:1].isdecimal()):
        try:
            num, den = int(n), int(d) if slash else 1
        except ValueError:  # more digits than int() reads, or a misplaced "_"
            den = 0
        if den:
            return num, den
    q = _literal(Fraction, t, "exact rational")
    return q.numerator, q.denominator


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
    """Write payload as JSON, a list of blocks one block at a time (see
    _json_pieces), or under --format tsv the rows that `tsv_rows` (a
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


# a value no payload holds, put where a head or a template leaves a hole, and
# its text
_MARK = "\x00"
_MARK_TEXT = encode_basestring_ascii(_MARK)

# the line break before each block: "blocks" is a key of the top-level payload
_NL = "\n    "

# for the process: the % template of each kind of block, keyed by the kind
# object, and the texts of each coordinate table, keyed by its id (the entry
# keeps the table, so the id is not reused)
_TEMPLATES = {}
_TEXTS = {}

# the most blocks a list may have for its joined JSON text to be kept
BLOCK_LIST_BOUND = 1024


def _texts(table):
    """The texts of a coordinate table's values, as list items of a block,
    by coordinate value; rendered once per table and process."""
    entry = _TEXTS.get(id(table))
    if entry is None:
        items = table.items() if isinstance(table, Mapping) else enumerate(table)
        entry = _TEXTS[id(table)] = table, {k: _dumps(v, _NL + "    ") for k, v in items}
    return entry[1]


def _json_pieces(payload):
    """_dumps(payload) + "\n" in pieces.  A non-empty payload["blocks"] is a
    weyl.BlockList, whose blocks are written as _dumps of each report's
    to_dict, at one depth, so their text does not depend on the rest of the
    payload.  The list's first rendering writes each block in a piece of its
    own (_block_pieces) and keeps no text, so an answer met once holds none;
    the second keeps the joined text of its blocks on the list (its `json`),
    unless it has more than BLOCK_LIST_BOUND blocks, and every later one
    writes that text in one piece.  Per answer: the head, then the blocks,
    then the tail."""
    blocks = payload.get("blocks")
    if not blocks:
        return [_dumps(payload) + "\n"]
    head, sep, tail = _dumps({**payload, "blocks": [_MARK, _MARK]}).split(_MARK_TEXT)
    if blocks.json is None or len(blocks) > BLOCK_LIST_BOUND:
        blocks.json = False  # rendered once, or too many blocks to keep the text of
        body = _block_pieces(blocks, sep)
    else:
        if blocks.json is False:
            blocks.json = "".join(_block_pieces(blocks, sep))
        body = [blocks.json]
    return itertools.chain([head], body, [tail + "\n"])


def _block_pieces(blocks, sep):
    """The blocks of a BlockList, each a piece of _dumps of its report's
    to_dict at the line break _NL, after `sep` but the first: one % of its
    kind's template (_template) over the texts of its orbit size and of its
    point's coordinates in each table (_texts), in the order of the keys; no
    report is built but the first of each kind in the process."""
    keys = sorted(blocks.tables)
    before = [_texts(t) for k in keys if k < "orbit_size" for t in blocks.tables[k]]
    after = [_texts(t) for k in keys if k > "orbit_size" for t in blocks.tables[k]]
    # a point's coordinates, once per table of a key before or after orbit_size
    nb, na = len(before) // len(blocks.points[0]), len(after) // len(blocks.points[0])
    for i, (x, size, kind) in enumerate(zip(blocks.points, blocks.sizes, blocks.kinds)):
        template = _TEMPLATES.get(kind)
        if template is None:
            template = _TEMPLATES[kind] = _template(blocks, i)
        yield (sep if i else "") + template % (
            *map(getitem, before, x * nb), size, *map(getitem, after, x * na))


def _template(blocks, i):
    """The % template of the blocks of blocks.kinds[i]: the to_dict of block
    i rendered at the line break _NL with _MARK for its orbit size and for
    each item of a table's key, "%" escaped, and a %s at each mark; no other
    key or value may be _MARK.  InvariantViolation unless each table's key
    holds a list of one item per coordinate."""
    d = blocks[i].to_dict()
    r = len(blocks.points[i])
    if any(type(d[k]) is not list or len(d[k]) != r for k in blocks.tables):
        raise InvariantViolation("a table of the blocks is not a list item per coordinate")
    d.update((k, [_MARK] * r) for k in blocks.tables)
    d["orbit_size"] = _MARK
    return "%s".join(x.replace("%", "%%") for x in _dumps(d, _NL).split(_MARK_TEXT))


# the texts of the JSON constants
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dumps(obj, nl="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte: the stdlib
    encodes with indent in pure Python, never with its C encoder.  The keys
    of a dict must be str (TypeError otherwise); `nl` is the current line
    break.  It dispatches on the exact type of obj, then on isinstance.  An
    int item of a list, and a str, int, bool or None value of a dict, is
    written in place, with no call of _dumps."""
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
            encode_basestring_ascii(k) + ": " + (
                encode_basestring_ascii(v) if type(v) is str else str(v) if type(v) is int
                else _CONSTANTS[v] if v is None or type(v) is bool else _dumps(v, inner))
            for k, v in sorted(obj.items())]) + nl + "}"
    if obj is None or kind is bool:
        return _CONSTANTS[obj]
    # a subclass of list, tuple or dict, read as json.dumps reads it; floats
    # and subclasses of str and int through json.dumps itself
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
    system rs, the character chi and the point (a list of slot vectors, see
    parse_field_slots, or a TorusElement) the command takes, and the head
    of its payload: command, type, p or ell, and chi, weight or torus.  The
    type is checked once, by check_cartan_type; the hypotheses and the
    values read only its components, and root_system builds the root system
    from them after those checks, before the character checks its support."""
    q = SimpleNamespace(bound=_bounds(args), head={})
    if args.group == "selftest":
        return q
    q.head["command"] = f"{args.group}.{args.command}"
    if args.group == "verify":  # its --type, if given, picks rows of the appendix table
        if args.type is not None:
            q.type_str = type_string(check_cartan_type(args.type, q.bound))
        return q
    comps = check_cartan_type(args.type, q.bound)  # refuses a type above the bound
    rank = sum(n for _l, n in comps)
    # an empty --chi-s is the zero character (the identity torus element)
    chi_s = "chi_s" in args and (args.chi_s or ",".join(["0"] * rank))
    if args.group == "modular":
        base = lieram.scalars.make_field(args.p, 1, q.bound)  # p within the field bound and prime
        lieram.modular.check_hypotheses(comps, args.p)
        q.head["p"] = args.p
        slots, field = parse_field_slots(chi_s or args.weight, base, rank, q.bound)
    elif "ell" in args:
        lieram.quantum.check_root_of_unity(comps, args.ell, args.eps)
        q.head["ell"] = args.ell
        # the character's torus, else the point's; given both (quantum
        # simplicity), the point is parsed after the character's support
        torus = parse_torus(chi_s or args.torus, rank)
    rs = q.rs = root_system(comps)
    q.head["type"] = rs.type_str
    if args.group == "modular" and chi_s:
        q.chi = lieram.modular.PChar(rs, args.p, values=tuple(map(field.elem, slots)),
                                     support=parse_support(args.support), field=field)
        q.head["chi"] = _chi_dict(q.chi)
    elif args.group == "modular":
        q.point = slots
        q.head["weight"] = [s if s[-1] else lieram.scalars._ptrim(s) for s in slots]
    elif chi_s:
        q.chi = lieram.quantum.QChar(rs, args.ell, chi_s=torus,
                                     support=parse_support(args.support), eps=args.eps)
        q.head["chi"] = _qchi_dict(q.chi)
    if "torus" in args:
        q.point = parse_torus(args.torus, rank) if chi_s else torus
        q.head["torus"] = q.point.texts()
        if chi_s and q.point.pow(args.ell) != q.chi.chi_s:
            raise HypothesisFailure(
                f"t^{args.ell} != chi_s: t labels no baby Verma module")
    return q


def cmd_modular_blocks(args, q):
    blocks = lieram.modular.mod_blocks(q.chi, q.bound)
    payload = {**q.head, "blocks": blocks,
               "counts": {"num_blocks": len(blocks), "dim_sum": blocks.dim_sum,
                          "unramified": lieram.modular.unramified_count(q.chi, blocks)},
               "structure": lieram.modular.regularity_and_structure(q.chi, blocks)}

    def rows():
        return [["lambda", "eta", "orbit_size", "dim", "unramified",
                 "stab_point", "stab_coset", "poincare", "finite_type"],
                *([";".join(map(repr, b.lam)), ";".join(map(repr, b.eta)),
                   b.orbit_size, b.dim, b.unramified, b.stab_point_type, b.stab_coset_type,
                   ",".join(map(str, b.poincare)) if b.poincare else "-", b.finite_type]
                  for b in blocks)]
    return _emit(args, payload, rows)


def cmd_modular_unramified(args, q):
    return _emit(args, {**q.head, **lieram.modular.unramified_on_slots(q.rs, q.point, args.p)})


def cmd_modular_poincare(args, q):
    coeffs = lieram.modular.poincare_on_slots(q.rs, q.point, args.p)
    return _emit(args, {**q.head, "coefficients": list(coeffs), "value_at_1": sum(coeffs)})


def cmd_modular_finite_type(args, q):
    verdict, witness = lieram.modular.finite_type_on_slots(q.rs, q.point, args.p)
    return _emit(args, {**q.head, "verdict": verdict, "witness": witness})


def cmd_modular_structure(args, q):
    structure = lieram.modular.regularity_and_structure(q.chi, bound=q.bound)
    return _emit(args, {**q.head, **structure})


def cmd_quantum_blocks(args, q):
    blocks = lieram.quantum.q_blocks(q.chi, q.bound)
    payload = {**q.head, "blocks": blocks,
               "counts": {"num_blocks": len(blocks), "dim_sum": blocks.dim_sum},
               "structure": lieram.quantum.q_regularity_and_counts(q.chi, blocks)}

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
            payload[coords] = lieram.quantum.q_unramified(q.rs, q.point, coords, args.ell,
                                                          args.eps)
    return _emit(args, payload)


def cmd_quantum_exceptional(args, q):
    elements = [{"m": rec["m"], "torus": rec["torus"].texts(),
                 "centralizer_type": rec["centralizer"].type_str,
                 "centralizer_order": rec["centralizer"].order,
                 "beta_m": list(rec["beta_m"]) if rec["beta_m"] else None}
                for rec in lieram.quantum.exceptional_elements(q.rs)]

    def rows():
        return [["m", "torus", "centralizer", "order", "beta_m"],
                *([e["m"], ";".join(e["torus"]), e["centralizer_type"], e["centralizer_order"],
                   ",".join(map(str, e["beta_m"])) if e["beta_m"] else "-"] for e in elements)]
    return _emit(args, {**q.head, "elements": elements}, rows)


def cmd_quantum_simplicity(args, q):
    return _emit(args, {**q.head, "note": "necessary condition only",
                        **lieram.quantum.simplicity_necessary(q.chi, q.point)})


def cmd_quantum_structure(args, q):
    structure = lieram.quantum.q_regularity_and_counts(q.chi, bound=q.bound)
    return _emit(args, {**q.head, **structure})


def cmd_verify_appendix(args, q):
    rows = lieram.quantum.appendix_rows()
    if args.type is not None:
        rows = [(t, m) for t, m in rows if t == q.type_str]
        if not rows:
            raise LieramError(f"no appendix rows for type {args.type!r}")
    results = [lieram.quantum.verify_appendix_row(t, m) for t, m in rows]
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


# a value list that starts with a negative literal of either grammar, -1,0
# or -1/10,2/5; argparse's own pattern takes a lone -1 or -1.5 only
_NEGATIVE_LIST = re.compile(r"^-(\d+(/\d+)?|\d*\.\d+)(,|$)")


class _Parser(argparse.ArgumentParser):
    # argparse drops a failed write; a failed --help write must reach main.
    # A negative value list after a space is a value, not a flag.
    # Subparsers take the class of their parent parser.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_LIST

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
                 help="cap on each check's work, else its default: type 10^6 (|Phi+| x rank), "
                      "field 10^9 (p^e), points 10^6, group 10^6 (|W|); env LIERAM_BOUND"))
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
# The parser is built only for those and for a usage error's usage line.
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
        p.set_defaults(func=fn)
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
    flag, the leaf's flags by name, and the names of its required flags;
    read off GRAMMAR, with no parser built."""
    forms = {}
    for key, (fn, flags) in GRAMMAR.items():
        start = {f.dest: f.default for f in _TOP + flags}
        start.update(zip(("group", "command"), key), func=fn)
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
    args, seen = argparse.Namespace(), set()
    ns = vars(args)
    ns.update(start)
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
    return args if required <= seen else None


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
        key = (args.group, args.command) if "command" in args else (args.group,)
        _parser().leaves[key].error(str(exc))  # the leaf's usage line, then exit 2
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
