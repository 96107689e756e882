"""Byte pins for every selftest-matrix cell, a fixed set of rank-3/4 cells and
fixed probes
(F4 modular, quantum unramified on F4, E6 and the types listed in MORE_TORUS,
and `verify appendix` per type of the table): the sha256 of each command's JSON stdout, recomputed in
this process and compared with tests/golden/manifest.json.

A modular cell whose character has values outside F_p cannot be written in
the CLI grammar; it makes the public calls `modular blocks` makes and emits
the same JSON (its key starts with "api").

Regenerate only when an output change is intended:
    PYTHONPATH=src python tests/test_golden_manifest.py --write
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from lieram.cli import _chi_dict, main
from lieram.modular import PChar, mod_blocks, regularity_and_structure, unramified_count
from lieram.quantum import QChar, appendix_rows
from lieram.rootdata import build_root_system
from lieram.selftest import modular_cells, quantum_cells

MANIFEST = pathlib.Path(__file__).parent / "golden" / "manifest.json"

# (type, p, semisimple chi_s) on top of the matrix; each also runs with the
# regular nilpotent character
RANK34_MODULAR = [
    ("A3", 5, "1,0,2"), ("A3", 7, "0,3,0"),
    ("B3", 5, "1,0,0"), ("B3", 7, "0,2,1"),
    ("C3", 5, "0,0,1"), ("C3", 7, "2,0,0"),
    ("D4", 5, "0,1,0,0"), ("A4", 7, "1,0,0,2"),
]
RANK34_QUANTUM = ["A3", "B3", "C3", "D4"]  # ell = 5, regular unipotent

F4_WEIGHTS = ["0,0,0,0", "1,0,0,0", "0,1,2,0", "1,1,1,1", "4,0,0,3", "2,3,0,1"]
F4_TORUS = ["0,0,0,0", "1/5,0,0,0", "1/10,3/10,1/2,0", "2/7,1/14,0,5/14",
            "1/2,1/2,1/3,1/7"]
E6_TORUS = ["0,0,0,0,0,0", "6/7,13/14,0,1/3,6/7,6/7",
            "11/21,13/14,6/7,1/3,1/42,11/21", "1/5,0,3/10,0,0,1/2"]
# quantum unramified on the types the probes above leave out
MORE_TORUS = {
    "G2": ["0,0", "1/5,0", "1/3,1/2", "2/7,3/14"],
    "B4": ["0,0,0,0", "1/2,0,0,0", "1/10,3/10,1/2,0", "2/7,1/14,0,5/14"],
    "C4": ["0,0,0,0", "1/2,0,0,0", "1/10,3/10,1/2,0", "2/7,1/14,0,5/14"],
    "D4": ["0,0,0,0", "0,1/2,0,0", "1/10,3/10,1/2,0", "2/7,1/14,0,5/14"],
    "A1xB2": ["0,0,0", "1/2,1/3,0", "1/5,1/10,3/10", "3/14,0,1/2"],
    "E7": ["0,0,0,0,0,0,0", "1/2,0,0,0,0,0,1/3", "1/5,0,3/10,0,0,1/2,1/7",
           "6/7,13/14,0,1/3,6/7,6/7,1/14"],
    "E8": ["0,0,0,0,0,0,0,0", "1/2,0,0,0,0,0,0,1/3", "1/5,0,3/10,0,0,1/2,1/7,0",
           "6/7,13/14,0,1/3,6/7,6/7,1/14,11/21"],
}


def _csv(items):
    return ",".join(str(x) for x in items)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def _api_modular_blocks(chi):
    blocks = mod_blocks(chi)
    payload = {
        "command": "modular.blocks",
        "type": chi.rs.type_str,
        "p": chi.p,
        "chi": _chi_dict(chi),
        "blocks": [b.to_dict() for b in blocks],
        "counts": {"num_blocks": len(blocks),
                   "dim_sum": sum(b.dim for b in blocks),
                   "unramified": unramified_count(chi, blocks)},
        "structure": regularity_and_structure(chi, blocks),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _modular_blocks(t, p, chi):
    support = _csv(s + 1 for s in chi.support)
    if chi.field.e > 1:
        key = (f"api modular blocks --type {t} --p {p} --chi-s-coeffs "
               f"{';'.join(_csv(v.coeffs) for v in chi.values)} --support {support}")
        return key, lambda: _api_modular_blocks(chi)
    argv = ["modular", "blocks", "--type", t, "--p", str(p),
            "--chi-s", _csv(v.as_int() for v in chi.values), "--support", support]
    return " ".join(argv), lambda: _cli(argv)


def _quantum_blocks(t, ell, chi):
    argv = ["quantum", "blocks", "--type", t, "--ell", str(ell),
            "--chi-s", _csv(chi.chi_s.exps), "--support",
            _csv(s + 1 for s in chi.support)]
    return " ".join(argv), lambda: _cli(argv)


def _probe(*argv):
    return " ".join(argv), lambda: _cli(list(argv))


def cases():
    """(key, thunk returning stdout) for every pinned command."""
    out = [_modular_blocks(t, p, chi) for t, p, _name, chi in modular_cells()]
    out += [_quantum_blocks(t, ell, chi) for t, ell, _name, chi in quantum_cells()]
    for t, p, chi_s in RANK34_MODULAR:
        rs = build_root_system(t)
        out.append(_modular_blocks(t, p, PChar(rs, p, support=tuple(range(rs.rank)))))
        out.append(_probe("modular", "blocks", "--type", t, "--p", str(p),
                          "--chi-s", chi_s))
    for t in RANK34_QUANTUM:
        rs = build_root_system(t)
        out.append(_quantum_blocks(t, 5, QChar(rs, 5, support=tuple(range(rs.rank)))))
    for p in (5, 7):
        for w in F4_WEIGHTS:
            for cmd in ("poincare", "finite-type", "unramified"):
                out.append(_probe("modular", cmd, "--type", "F4", "--p", str(p),
                                  "--weight", w))
    for t, points in (("F4", F4_TORUS), ("E6", E6_TORUS), *MORE_TORUS.items()):
        for ell in (5, 7):
            for x in points:
                out.append(_probe("quantum", "unramified", "--type", t, "--ell",
                                  str(ell), "--torus", x, "--coords", "both"))
    for t in dict.fromkeys(t for t, _m in appendix_rows()):
        out.append(_probe("verify", "appendix", "--type", t))
    return out


def digests():
    return {key: hashlib.sha256(run().encode()).hexdigest() for key, run in cases()}


def test_outputs_match_the_manifest():
    pinned = json.loads(MANIFEST.read_text())
    got = digests()
    assert sorted(got) == sorted(pinned)
    assert [k for k in sorted(got) if got[k] != pinned[k]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    MANIFEST.write_text(json.dumps(digests(), sort_keys=True, indent=1) + "\n")
