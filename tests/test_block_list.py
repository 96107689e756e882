"""The block list both sides answer with (weyl.BlockList).  On every block
cell of the manifest, and on the cells of selftest.modular_cells whose
character lies in F_{p^2}, its length, its order and its indexing (negative
indices and slices too) give views whose to_dict are the JSON blocks of the
same answer, and the counts tallied from its kinds (dims, dim_sum, the
unramified counts and local_dims) are the sums over its views.  The values
kept per process keep no refusal: an answered character is refused again
under a bound below its field, from --bound and from LIERAM_BOUND, with the
message and exit status of a cold refusal, and a repeated answer is the cold
one byte for byte."""

import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lieram import cli
from lieram.cli import _chi_dict, _json_pieces
from lieram.errors import BoundExceeded
from lieram.modular import PChar, mod_blocks, regularity_and_structure, unramified_count
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from lieram.selftest import modular_cells
from lieram.weyl import BlockList
from test_golden_manifest import cases


@pytest.fixture(scope="module")
def answers():
    """(payload, parsed stdout) of every block answer of the manifest's CLI
    cells, as cli._emit got it, and of the F_{p^2} cells, with the payload
    `modular blocks` would build, written by cli._json_pieces."""
    payloads, out = [], []
    emit = cli._emit

    def recording(args, payload, rows=None):
        payloads.append(payload)
        return emit(args, payload, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit", recording)
        for _key, run in cases():
            made = len(payloads)
            text = run()
            if len(payloads) > made and "blocks" in payloads[-1]:
                out.append((payloads[-1], json.loads(text)))
    for _t, _p, _name, chi in modular_cells():
        if chi.field.e > 1:
            blocks = mod_blocks(chi)
            payload = {"command": "modular.blocks", "chi": _chi_dict(chi), "blocks": blocks,
                       "counts": {"num_blocks": len(blocks), "dim_sum": blocks.dim_sum,
                                  "unramified": unramified_count(chi, blocks)},
                       "structure": regularity_and_structure(chi, blocks)}
            out.append((payload, json.loads("".join(_json_pieces(payload)))))
    return out


def test_the_list_reads_as_its_json_blocks(answers):
    for payload, doc in answers:
        blocks, want = payload["blocks"], doc["blocks"]
        n = len(blocks)
        assert isinstance(blocks, BlockList)
        assert n == len(want) == len(blocks.points) == len(blocks.sizes) == len(blocks.kinds)
        assert [b.to_dict() for b in blocks] == want
        assert [(b.orbit_size, b.kind) for b in blocks] == list(zip(blocks.sizes, blocks.kinds))
        for i in {0, 1 % n, n // 2, n - 1, -1, -n, -(n // 2) - 1}:
            assert blocks[i].to_dict() == want[i], i
        for cut in (slice(1, n, 3), slice(None, None, -1), slice(-2, None)):
            assert [b.to_dict() for b in blocks[cut]] == want[cut]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                blocks[i]
    # both sides; chi in F_p and in F_{p^2}; short lists and long ones
    assert {payload["command"] for payload, _doc in answers} == {"modular.blocks",
                                                                "quantum.blocks"}
    assert {payload["chi"]["field"]["e"] for payload, _doc in answers
            if "field" in payload["chi"]} == {1, 2}
    sizes = {len(payload["blocks"]) for payload, _doc in answers}
    assert min(sizes) == 2 and max(sizes) > 100


def test_the_tallied_counts_are_the_sums_over_the_views(answers):
    for payload, doc in answers:
        blocks, counts, structure = payload["blocks"], doc["counts"], doc["structure"]
        dims = [b.dim for b in blocks]
        assert blocks.dims == collections.Counter(dims)
        assert blocks.dim_sum == counts["dim_sum"] == sum(dims)
        assert counts["num_blocks"] == len(dims)
        enumerated = (counts["unramified"]["enumerated"] if "unramified" in counts
                      else structure["unramifiedEnumerated"])
        assert enumerated == blocks.dims[1] == sum(b.unramified for b in blocks)
        if structure["descriptor"]:
            assert structure["descriptor"]["local_dims"] == sorted(dims)
    assert {payload["command"] for payload, doc in answers
            if doc["structure"]["descriptor"]} == {"modular.blocks", "quantum.blocks"}


# Lambda_chi of this character lies in F_{7^7}, above the bound 800000
A2 = ["modular", "blocks", "--type", "A2", "--p", "7", "--chi-s", "AS(1),0"]
REFUSAL = "error: field size 7^7 exceeds bound 800000\n"


def _cold(argv, **env):
    env = {**{k: v for k, v in os.environ.items() if k != "LIERAM_BOUND"}, **env,
           "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "lieram.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=env)


def test_a_kept_value_never_hides_a_refusal(capsys, monkeypatch):
    cold = _cold(A2)
    assert (cold.returncode, cold.stderr) == (0, "")
    for refused in (_cold([*A2, "--bound", "800000"]), _cold(A2, LIERAM_BOUND="800000")):
        assert (refused.returncode, refused.stdout, refused.stderr) == (1, "", REFUSAL)
    monkeypatch.delenv("LIERAM_BOUND", raising=False)
    for _ in range(2):
        assert cli.main(A2) == 0
        assert capsys.readouterr() == (cold.stdout, "")
        assert cli.main([*A2, "--bound", "800000"]) == 1
        assert capsys.readouterr() == ("", REFUSAL)
        monkeypatch.setenv("LIERAM_BOUND", "800000")
        assert cli.main(A2) == 1
        assert capsys.readouterr() == ("", REFUSAL)
        monkeypatch.delenv("LIERAM_BOUND")
    # through the API, where the solution of x^7 - x = 1 itself needs F_{7^7}:
    # a solution kept under the default bound is not read under a lower one
    F7 = make_field(7, 1)
    chi = PChar(build_root_system("A2"), 7, values=(F7.one(), F7.zero()))
    want = [b.to_dict() for b in mod_blocks(chi)]
    for _ in range(2):
        with pytest.raises(BoundExceeded, match=r"7\^7 exceeds bound 800000"):
            mod_blocks(chi, 800000)
        assert [b.to_dict() for b in mod_blocks(chi)] == want
