"""Answer one query in this interpreter and time it.

CLI queries go through the public entry point lieram.cli.main(argv) with
stdout and stderr captured.  API queries (F_{p^2} characters, which the CLI
grammar cannot write) make the public calls cmd_modular_blocks makes and
emit the same JSON shape, so both kinds cost the same JSON emission.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


class Outcome:
    __slots__ = ("rc", "stdout", "stderr", "seconds", "traceback")

    def __init__(self, rc, stdout, stderr, seconds, tb=None):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.traceback = tb


def _api_modular_blocks(spec):
    from lieram import (
        LieramError,
        PChar,
        build_root_system,
        make_field,
        mod_blocks,
        regularity_and_structure,
        unramified_count,
    )
    t, p, coeffs, support = spec
    try:
        rs = build_root_system(t)
        field = make_field(p, 2)
        chi = PChar(rs, p, values=tuple(field.elem(c) for c in coeffs),
                    support=support, field=field)
        blocks = mod_blocks(chi)
        counts = unramified_count(chi, blocks)
        structure = regularity_and_structure(chi, blocks)
    except LieramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    payload = {
        "command": "modular.blocks",
        "type": rs.type_str,
        "p": p,
        "chi": {
            "values": [list(v.coeffs) for v in chi.values],
            "field": {"p": chi.field.p, "e": chi.field.e,
                      "modulus": list(chi.field.modulus)},
            "support": [s + 1 for s in chi.support],
            "levi_type": chi.levi.type_str,
            "levi_basis": [list(b) for b in chi.levi.basis],
        },
        "blocks": [b.to_dict() for b in blocks],
        "counts": {"num_blocks": len(blocks),
                   "dim_sum": sum(b.dim for b in blocks),
                   "unramified": counts},
        "structure": structure,
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def answer(query) -> Outcome:
    """Run the query with stdout and stderr captured; time only the call."""
    from lieram import cli
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if query.argv is not None:
                rc = cli.main(query.argv)
            else:
                rc = _api_modular_blocks(query.spec)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed answer, never a crash
            rc = None
            tb = traceback.format_exc()
        seconds = time.perf_counter() - t0
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, tb)
