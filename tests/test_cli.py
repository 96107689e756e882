"""CLI surface: documented examples, golden files, determinism, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

from lieram import cli, modular, quantum, rootdata, scalars
from lieram.cli import main
from lieram.modular import dim_C
from lieram.quantum import TorusElement, hc_shift
from lieram.rootdata import build_root_system
from lieram.scalars import make_field
from test_scalars import HUGE_PRIME, primality_tests_only_within_the_field_bound

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# every CLI example in the README is listed here and diffed against its
# committed golden file
GOLDEN = {
    "quantum_blocks_a1_l5.json": [
        "quantum", "blocks", "--type", "A1", "--ell", "5",
        "--chi-s", "0/1", "--support", "1"],
    "verify_appendix_g2.json": ["verify", "appendix", "--type", "G2"],
    "modular_blocks_a2_p5.json": [
        "modular", "blocks", "--type", "A2", "--p", "5",
        "--chi-s", "0,0", "--support", ""],
    "quantum_exceptional_g2.json": ["quantum", "exceptional", "--type", "G2"],
    "modular_unramified_a1_p3.json": [
        "modular", "unramified", "--type", "A1", "--p", "3", "--weight", "2"],
    "modular_structure_a1_p3_regnil.json": [
        "modular", "structure", "--type", "A1", "--p", "3",
        "--chi-s", "0", "--support", "1"],
}


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# sha256 of the `--format tsv` stdout of each golden cell and of four block
# cells with e > 1, a non-standard Levi or a unipotent support, as written
# before the TSV rows were built only on demand and before block reports
# built their coordinates only on access; they must not move
TSV_SHA256 = {
    "modular_blocks_a2_p5.json":
        "6c82b5e40ed396435718c21be403676b83f762b0dbacf40e7129d83dfbb9238d",
    "modular_structure_a1_p3_regnil.json":
        "0358d3e9948ecad5d418f34b45ee59d094ae2c687fc9740c25ba6916ee166420",
    "modular_unramified_a1_p3.json":
        "3edb7643e82cfb2043be4c86a76842130be25f39bebbe4302b40c32df5b38f55",
    "quantum_blocks_a1_l5.json":
        "1d9aa238a17bb4b70047075d523d7f7cb9f50df16c8a022affbd08660f8c8012",
    "quantum_exceptional_g2.json":
        "0b65fc66a372cedd42ce441c041a8eebd0ef483317dace2477501d2cc04a6519",
    "verify_appendix_g2.json":
        "8d6d894b8ad504da544dc883070e2d2ce750cf8f3b9009189ffafbf44578e895",
    "modular blocks A2/p5 1,AS(1)":
        "c2f1ed72e7f9d35ce3dfe1c55301cda42a4e33eb1c2cc4929e63283bf6dd0ecc",
    "quantum blocks B2/l7 0,1/3":
        "802816cb2ff6bc4d9667142762654fe1b570b9eecde571a7b36d47026cf1b5de",
    "modular blocks B3/p5 1,0,2 S=1":
        "052708c04d927d5c350c93c456cb8e16536ab3376f4b539d874ad1db8a640934",
    "quantum blocks B3/l7 1/2,0,1/3 S=1":
        "5fa7df79a0a2489a3c47f2dd8ed967344c3deb8c738da450d4376d4b6113bf70",
}
TSV_ARGV = {
    **GOLDEN,
    "modular blocks A2/p5 1,AS(1)": [
        "modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "1,AS(1)"],
    "quantum blocks B2/l7 0,1/3": [
        "quantum", "blocks", "--type", "B2", "--ell", "7", "--chi-s", "0,1/3"],
    "modular blocks B3/p5 1,0,2 S=1": [
        "modular", "blocks", "--type", "B3", "--p", "5", "--chi-s", "1,0,2",
        "--support", "1"],
    "quantum blocks B3/l7 1/2,0,1/3 S=1": [
        "quantum", "blocks", "--type", "B3", "--ell", "7", "--chi-s", "1/2,0,1/3",
        "--support", "1"],
}


@pytest.mark.parametrize("name", sorted(TSV_SHA256))
def test_tsv_output_is_pinned(name, capsys):
    code, out = run_cli(["--format", "tsv"] + TSV_ARGV[name], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TSV_SHA256[name]


def test_tsv_rows_are_built_only_for_tsv(monkeypatch, capsys):
    # JSON block answers are written off the walked codes: no TSV cell, and
    # no weight of field values or TorusElement per block, is built for them
    for name in ("lam", "eta"):
        monkeypatch.setattr(modular.BlockReport, name,
                            property(lambda _b: pytest.fail("weight built")))
    monkeypatch.setattr(quantum.QBlockReport, "rep",
                        property(lambda _b: pytest.fail("TorusElement built")))
    for name in ("modular_blocks_a2_p5.json", "quantum_blocks_a1_l5.json"):
        code, out = run_cli(GOLDEN[name], capsys)
        assert code == 0 and out == (GOLDEN_DIR / name).read_text()


# modular probe weights over F_p and with an AS(1) coordinate (F_{p^p})
PROBE_WEIGHTS = [("D4", "5", "0,3,0,4"), ("C3", "7", "0,0,1"),
                 ("B3", "5", "0,4,AS(1)"), ("G2", "5", "AS(1),0")]


def test_modular_probes_do_no_field_arithmetic(monkeypatch, capsys):
    # a probe builds eta = lambda + rho and its pairing table on coefficient
    # slots, once: no FFElem is added or subtracted once its inputs are
    # resolved (parsing an AS literal checks the solution by subtracting)
    armed, pairings = [], []

    def guarded(name):
        original = getattr(scalars.FFElem, name)

        def op(self, other):
            if armed:
                pytest.fail(f"FFElem.{name} on the {armed[0]} path")
            return original(self, other)
        return op
    for name in ("__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(scalars.FFElem, name, guarded(name))
    resolve, count = cli._resolve, modular._values

    def resolved(args):
        q = resolve(args)
        armed.append(args.command)
        return q
    monkeypatch.setattr(cli, "_resolve", resolved)
    monkeypatch.setattr(modular, "_values", lambda *a: pairings.append(1) or count(*a))
    for t, p, w in PROBE_WEIGHTS:
        for cmd in ("unramified", "finite-type", "poincare"):
            armed.clear()
            pairings.clear()
            code = main(["modular", cmd, "--type", t, "--p", p, "--weight", w])
            capsys.readouterr()
            refused = cmd == "poincare" and "AS" in w  # eta outside F_p
            assert (code, len(pairings)) == ((1, 0) if refused else (0, 1)), (cmd, t, w)


def test_integer_literal_probes_build_no_field_element(monkeypatch, capsys):
    # the literals are parsed once, straight to slot vectors, and the probes
    # run on those: an integer-literal probe builds no FFElem at all
    built = []
    init = scalars.FFElem.__init__
    monkeypatch.setattr(scalars.FFElem, "__init__",
                        lambda self, *a: built.append(1) or init(self, *a))
    for t, p, w in [*PROBE_WEIGHTS[:2], ("A3", "5", "-1,7,-12"), ("G2", "7", "3,-3")]:
        for cmd in ("unramified", "finite-type", "poincare"):
            code = main(["modular", cmd, "--type", t, "--p", p, "--weight", w])
            assert code == 0 and capsys.readouterr().out
            assert not built, (cmd, t, w)
    main(["modular", "unramified", "--type", "A2", "--p", "5", "--weight", "g,0"])
    assert built  # the count sees a field element where one is built


def _values_by_field_arithmetic(text, p, bound=None):
    # the values of a literal list as built before the slot parser: integers
    # by from_int, g^k as a power of the generator, AS(c) as an embedded
    # Artin-Schreier solution, all in the ambient field
    tokens = [t.strip() for t in text.split(",")]
    base = make_field(p, 1, bound)
    ambient = (make_field(p, p, bound) if any(
        t.startswith("AS(") and int(t[3:-1]) % p for t in tokens) else base)
    out = []
    for t in tokens:
        if t.startswith("AS("):
            out.append(scalars.embed(
                scalars.artin_schreier_solve(base.from_int(int(t[3:-1])), bound)[0], ambient))
        elif t.startswith("g"):
            out.append(ambient.generator ** (1 if t == "g" else int(t[2:])))
        else:
            out.append(ambient.from_int(int(t)))
    return tuple(out), ambient


@pytest.mark.parametrize("text", [
    "0,1,4", "-1,-7,12", "g,g^2,g^-1", "g^0,g^7,-3", "AS(1),0,2", "AS(0),g,1",
    "AS(-2),g^-1,-4", "AS(0),AS(0),AS(5)", "3,AS(3),g^3"])
def test_field_values_are_the_slot_parse(text):
    values, field = cli.parse_field_values(text, 5, 3)
    slots, ambient = cli.parse_field_slots(text, make_field(5, 1), 3)
    assert field == ambient
    assert (values, field) == _values_by_field_arithmetic(text, 5)
    assert values == tuple(map(field.elem, slots))
    assert all(len(s) == field.e for s in slots)
    assert [list(v.coeffs) for v in values] == [list(scalars._ptrim(s)) for s in slots]


@pytest.mark.parametrize("text, p, rank, bound", [
    ("1,2", 5, 3, None), ("", 5, 1, None), ("1,h,2", 5, 3, None), ("1,2.0", 5, 2, None),
    ("AS(x),0", 5, 2, None), ("AS(1),0", 5, 2, 100), ("1,g", 4, 2, None),
    ("1,1", 10**10 + 19, 2, None)])
def test_malformed_literals_raise_alike_in_both_parses(text, p, rank, bound):
    # parse_field_slots on F_p checked under the same bound
    errors = []
    for parse in (lambda: cli.parse_field_slots(text, make_field(p, 1, bound), rank, bound),
                  lambda: cli.parse_field_values(text, p, rank, bound)):
        with pytest.raises(Exception) as exc:
            parse()
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("argv", [
    ["modular", "unramified", "--type", "A2", "--p", "5", "--weight", "-1,0"],
    ["modular", "poincare", "--type", "A2", "--p", "5", "--weight", "-1,-3"],
    ["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "-1,2"],
    ["quantum", "unramified", "--type", "A1", "--ell", "5", "--torus", "-1/10"],
    ["quantum", "blocks", "--type", "A2", "--ell", "5", "--chi-s", "-2/5,1/5"]])
def test_a_negative_list_after_a_space_is_a_value(argv, capsys):
    # argparse's own pattern reads only a lone -1 as a value; a list that
    # starts with a negative literal of either grammar is one too, and gives
    # the bytes of the --flag=value form
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run_cli(argv, capsys) == run_cli(joined, capsys)
    assert run_cli(argv, capsys)[0] == 0


def test_a_flag_is_still_no_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["modular", "unramified", "--weight", "--type", "A2", "--p", "5"])
    assert exc.value.code == 2
    assert "--weight: expected one argument" in capsys.readouterr().err


class _Sha256Writer:
    # a text stream that keeps only the sha256 of what is written to it
    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


# the large semisimple E6 answers the streamed block writer exists for, by
# the sha256 of their stdout (28.8 MB and 0.75 MB of JSON)
E6_BLOCKS_SHA256 = {
    "modular": ("947e41b96e6ccbf9f635213b84bb0ccf350ca1cf25b845e44068506b85b70a0d",
                ["modular", "blocks", "--type", "E6", "--p", "7",
                 "--chi-s", "1,2,3,1,2,3", "--support", ""]),
    "quantum": ("3ab6fd298fbe300c48bb0b3db434970ffb25f109876726c2fd91b78ab4e562ab",
                ["quantum", "blocks", "--type", "E6", "--ell", "7",
                 "--chi-s", "1/3,0,0,0,0,1/3", "--support", ""]),
}


@pytest.mark.parametrize("side", sorted(E6_BLOCKS_SHA256))
def test_e6_semisimple_blocks_are_pinned(side):
    digest, argv = E6_BLOCKS_SHA256[side]
    out = _Sha256Writer()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.sha.hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(name, capsys):
    code, out = run_cli(GOLDEN[name], capsys)
    assert code == 0
    expected = (GOLDEN_DIR / name).read_text()
    assert out == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_byte_identical_across_runs(name, capsys):
    _, first = run_cli(GOLDEN[name], capsys)
    _, second = run_cli(GOLDEN[name], capsys)
    assert first == second


def test_sl2_quantum_example_content(capsys):
    code, out = run_cli(GOLDEN["quantum_blocks_a1_l5.json"], capsys)
    assert code == 0
    doc = json.loads(out)
    dims = sorted(b["dim"] for b in doc["blocks"])
    assert dims == [1, 2, 2]
    assert doc["structure"]["descriptor"]["matrix_size"] == 5
    assert doc["structure"]["regular"] is True


def test_appendix_g2_content(capsys):
    code, out = run_cli(GOLDEN["verify_appendix_g2.json"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["all_ok"] and len(doc["rows"]) == 2


def test_modular_blocks_a2_content(capsys):
    code, out = run_cli(GOLDEN["modular_blocks_a2_p5.json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["counts"]["num_blocks"] == 7
    assert doc["counts"]["dim_sum"] == 25


def test_tsv_projection(capsys):
    code, out = run_cli(["--format", "tsv", "modular", "blocks", "--type",
                         "A2", "--p", "5", "--chi-s", "0,0", "--support", ""],
                        capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("lambda\teta\torbit_size")
    assert len(lines) == 8  # header + 7 blocks
    # the flag also parses after the subcommand
    code, out2 = run_cli(["modular", "blocks", "--type", "A2", "--p", "5",
                          "--chi-s", "0,0", "--support", "", "--format", "tsv"],
                         capsys)
    assert out2 == out


def test_extension_literals(capsys):
    # AS(1) over p=3 puts the character in F_27
    code, out = run_cli(["modular", "blocks", "--type", "A1", "--p", "3",
                         "--chi-s", "AS(1)", "--support", ""], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"]["field"]["e"] == 3
    assert doc["counts"]["dim_sum"] == 3


def test_generator_literals(capsys):
    # g is the deterministic generator of the ambient field (here F_5)
    code, out = run_cli(["modular", "blocks", "--type", "A2", "--p", "5",
                         "--chi-s", "g,g^2", "--support", ""], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"]["values"] == [[2], [4]]  # 2 generates F_5^x
    assert doc["counts"]["dim_sum"] == 25


def test_domain_error_exit_1(capsys):
    code = main(["modular", "blocks", "--type", "Z9", "--p", "5",
                 "--chi-s", "", "--support", ""])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    # hypothesis failures are named
    code = main(["modular", "blocks", "--type", "A2", "--p", "3",
                 "--chi-s", "0,0", "--support", ""])
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["modular", "blocks", "--type", "A2"])  # missing --p
    assert exc.value.code == 2


def test_selftest_suite_filter(capsys):
    code, out = run_cli(["selftest", "--suite", "appendix"], capsys)
    assert code == 0
    assert out.startswith("PASS appendix")
    assert out.strip().endswith("ALL PASS")
    code = main(["selftest", "--suite", "nosuch"])
    assert code == 1


def test_poincare_e7_beyond_group_bound(capsys):
    # |W(E7)| = 2903040 exceeds the default group bound; the closed form
    # never enumerates W
    code, out = run_cli(["modular", "poincare", "--type", "E7", "--p", "7",
                         "--weight", "1,1,1,1,1,1,1"], capsys)
    assert code == 0
    P = json.loads(out)["coefficients"]
    eta = (make_field(7, 1).one(),) * 7
    assert len(P) - 1 == 57
    assert sum(P) == 60480 == dim_C(build_root_system("E7"), eta)
    assert P[-1] == 1 and P == P[::-1]


def test_quantum_unramified_cli(capsys):
    code, out = run_cli(["quantum", "unramified", "--type", "A1", "--ell", "5",
                         "--torus", "1/5", "--coords", "both"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["component"] is False
    assert doc["highestWeight"] is False


def test_bound_flag(capsys):
    code = main(["modular", "blocks", "--type", "A1", "--p", "3",
                 "--chi-s", "1", "--support", "", "--bound", "10"])
    assert code == 1  # F_27 exceeds the tiny bound
    err = capsys.readouterr().err
    assert "exceeds bound" in err


def test_bound_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LIERAM_BOUND", "10")
    code = main(["modular", "blocks", "--type", "A1", "--p", "3",
                 "--chi-s", "1", "--support", ""])
    assert code == 1
    assert "exceeds bound 10" in capsys.readouterr().err
    # the flag wins over the environment
    monkeypatch.setenv("LIERAM_BOUND", "10")
    code = main(["modular", "blocks", "--type", "A1", "--p", "3",
                 "--chi-s", "1", "--support", "", "--bound", "1000000"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "F4", "--p", "5"],
    ["quantum", "blocks", "--type", "F4", "--ell", "5"],
])
def test_bound_caps_the_points_walked(argv, capsys):
    # |W(F4)| = 1152 exceeds 1000, but the walk visits only the 625 points of
    # the set
    code, out = run_cli([*argv, "--bound", "1000"], capsys)
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["dim_sum"] == 625
    code = main([*argv, "--bound", "600"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: 625 points to walk exceeds bound 600\n"


@pytest.mark.parametrize("argv, dim_sum, num_blocks", [
    # 625 fiber points; the W-orbit of chi_s^2 (576 points) is not walked
    (["--bound", "1000", "quantum", "blocks", "--type", "F4", "--ell", "5",
      "--chi-s", "1/2,1/3,1/7,1/11", "--support", ""], 625, 375),
    # 15 625 points of Lambda_chi; the W-orbit of chi (27 points) is not
    # walked, and the ambient field F_{5^5} is within the bound
    (["--bound", "15630", "modular", "blocks", "--type", "E6", "--p", "5",
      "--chi-s", "1,0,0,0,0,0", "--support", ""], 15625, 135),
])
def test_the_points_bound_counts_the_point_set_alone(argv, dim_sum, num_blocks, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"]["dim_sum"] == dim_sum
    assert doc["counts"]["num_blocks"] == len(doc["blocks"]) == num_blocks
    assert sum(b["orbit_size"] for b in doc["blocks"]) == dim_sum


def test_a_set_within_the_bound_still_meets_the_field_bound(capsys):
    # the 625 points of Lambda_chi fit in 630, but c = 1 in F_5 puts
    # Lambda_chi in F_{5^5}, which the same bound refuses
    code = main(["--bound", "630", "modular", "blocks", "--type", "F4", "--p", "5",
                 "--chi-s", "1,0,0,0", "--support", ""])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: field size 5^5 exceeds bound 630\n"


@pytest.mark.parametrize("argv, points", [
    (["quantum", "blocks", "--type", "A2", "--ell", "1000000001"], 1000000001**2),
    (["modular", "blocks", "--type", "A2", "--p", "999999937"], 999999937**2),
])
def test_the_points_bound_is_checked_before_any_axis_is_built(argv, points):
    # a child limited to 1.5 GB of address space, too little to list 10^9
    # axis values: without the early check it ends in a MemoryError
    done = _run_capped(argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {points} points to walk exceeds bound 1000000\n"


def _run_capped(argv, python=("-m", "lieram.cli")):
    # the CLI (or python with other arguments) in a child limited to 1.5 GB of
    # address space, at the default bound
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
    env = {k: v for k, v in os.environ.items() if k != "LIERAM_BOUND"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, *python, *argv], capture_output=True,
                          text=True, timeout=120, env=env, preexec_fn=cap)


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "A99999", "--p", "5"],
    ["quantum", "exceptional", "--type", "A99999"],
])
def test_the_type_is_bounded_before_its_root_system_is_built(argv):
    # the root tables of A99999 (|Phi+| x rank = 5 x 10^14 entries) end in a
    # MemoryError under the cap when they are built; rank^2 <= |Phi+| x rank
    # refuses the type before even its degrees are listed
    done = _run_capped(argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: type A99999: rank^2 = 9999800001 exceeds bound 1000000\n"


def test_the_library_bounds_the_type_before_its_root_system_is_built():
    # the same check guards build_root_system for a library caller; without
    # it the tables of A99999 end in a MemoryError under the cap
    done = _run_capped([], ("-c", "from lieram import BoundExceeded, build_root_system\n"
                                  "try:\n    build_root_system('A99999')\n"
                                  "except BoundExceeded as exc:\n    print(exc)"))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "type A99999: rank^2 = 9999800001 exceeds bound 1000000\n"


# an integer of more digits than str() writes (4300 by default)
LONG = "1" * 4400


@pytest.mark.parametrize("argv, counted", [
    (["quantum", "blocks", "--type", "A2", "--ell", "9" * 2200],
     "a 14617-bit number points to walk"),
    (["quantum", "exceptional", "--type", "A" + "1" * 2500],
     f"type A{'1' * 2500}: rank^2 = a 16604-bit number"),
])
def test_a_refusal_too_long_to_print_names_its_bit_length(argv, counted):
    # ell^2 has 4400 digits and rank^2 5000: the refusal names their bit
    # lengths in one error line, not a traceback from str()
    done = _run_capped(argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {counted} exceeds bound 1000000\n"


def test_a_rank_too_long_to_read_is_an_invalid_type(capsys):
    assert main(["quantum", "exceptional", "--type", "A" + LONG]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: rank of component A has 4400 digits\n")


def test_the_type_bound_is_inclusive(capsys):
    argv = ["modular", "poincare", "--type", "A2", "--p", "5", "--weight", "0,0"]
    # |Phi+| x rank = 3 x 2 for A2
    code, out = run_cli([*argv, "--bound", "6"], capsys)
    assert code == 0 and json.loads(out)["value_at_1"] == 1
    code = main([*argv, "--bound", "5"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: type A2: |Phi+| x rank = 6 exceeds bound 5\n"
    # at the default bound A125 (984 375 entries) is the largest A_n
    code = main(["quantum", "exceptional", "--type", "A126"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: type A126: |Phi+| x rank = 1008126 exceeds bound 1000000\n"


@pytest.mark.parametrize("argv", [
    ["modular", "poincare", "--type", "D2", "--p", "5", "--weight", "1,1"],
    ["quantum", "blocks", "--type", "D2", "--ell", "5"],
])
def test_d2_is_an_invalid_component(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: invalid component D2\n"


def test_exceptional_on_product_type_is_a_domain_error(capsys):
    code = main(["quantum", "exceptional", "--type", "A1xA1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "A1xA1" in err


MALFORMED = {
    "as-literal": ["modular", "blocks", "--type", "A2", "--p", "5",
                   "--chi-s", "AS(x),0"],
    "modular-fraction": ["modular", "blocks", "--type", "A2", "--p", "5",
                         "--chi-s", "1/0,0"],
    "quantum-chi-zero-denominator": ["quantum", "blocks", "--type", "A2",
                                     "--ell", "5", "--chi-s", "1/0,0"],
    "torus-zero-denominator": ["quantum", "unramified", "--type", "A1",
                               "--ell", "5", "--torus", "1/0"],
    "support": ["modular", "blocks", "--type", "A2", "--p", "5",
                "--support", "a"],
    "negative-bound": ["modular", "blocks", "--type", "A2", "--p", "5",
                       "--bound", "-1"],
    # literals of more digits than int() reads
    "long-integer": ["modular", "blocks", "--type", "A1", "--p", "5", "--chi-s", LONG],
    "long-as-literal": ["modular", "unramified", "--type", "A1", "--p", "5",
                        "--weight", f"AS({LONG})"],
    "long-g-power": ["modular", "unramified", "--type", "A1", "--p", "5",
                     "--weight", f"g^{LONG}"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_literal_is_a_usage_error(case, capsys):
    with pytest.raises(SystemExit) as exc:
        main(MALFORMED[case])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lieram " + " ".join(MALFORMED[case][:2]))
    assert "error: " in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    (["quantum", "unramified", "--type", "A1", "--ell", "1", "--torus", "0"],
     "ell = 1 must be odd and >= 3"),
    (["quantum", "unramified", "--type", "A1", "--ell", "4", "--torus", "0"],
     "ell = 4 must be odd and >= 3"),
    (["quantum", "unramified", "--type", "G2", "--ell", "3", "--torus", "0,0"],
     "ell = 3 must be prime to 3 for G2 components"),
    (["quantum", "unramified", "--type", "A1", "--ell", "5", "--eps", "10",
      "--torus", "0"], "eps = 10 must be coprime to ell"),
    (["modular", "unramified", "--type", "A1", "--p", "2", "--weight", "1"],
     "(type A1, p=2) fails hypotheses"),
    (["modular", "finite-type", "--type", "G2", "--p", "3", "--weight", "1,1"],
     "(type G2, p=3) fails hypotheses"),
    (["modular", "poincare", "--type", "A2", "--p", "3", "--weight", "0,0"],
     "(type A2, p=3) fails hypotheses"),
    (["modular", "poincare", "--type", "G2", "--p", "3", "--weight", "0,0"],
     "(type G2, p=3) fails hypotheses"),
    (["modular", "poincare", "--type", "A1", "--p", "2", "--weight", "0"],
     "(type A1, p=2) fails hypotheses"),
    (["quantum", "simplicity", "--type", "A1", "--ell", "5", "--chi-s", "0",
      "--torus", "1/3"], "t^5 != chi_s"),
    (["quantum", "simplicity", "--type", "B2", "--ell", "5", "--chi-s", "0,1/3",
      "--support", "", "--torus", "1/5,1/3"], "t^5 != chi_s"),
])
def test_standalone_commands_check_the_standing_hypotheses(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: " + message)


MODULAR_COMMANDS = {
    "blocks": ["--type", "A2", "--chi-s", "0,0", "--support", ""],
    "structure": ["--type", "A1xB2", "--chi-s", "0,0,0"],
    "unramified": ["--type", "A2", "--weight", "1,1"],
    "poincare": ["--type", "A2", "--weight", "1,1"],
    "finite-type": ["--type", "A1xB2", "--weight", "1,1,1"],
}


@pytest.mark.parametrize("p", ["0", "1", "4", "-5"])
@pytest.mark.parametrize("command", sorted(MODULAR_COMMANDS))
def test_modular_commands_refuse_a_non_prime(command, p, capsys):
    code = main(["modular", command, "--p", p, *MODULAR_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {p} is not prime\n"


@pytest.mark.parametrize("command", sorted(MODULAR_COMMANDS))
def test_modular_commands_check_the_field_bound_before_primality(command, monkeypatch,
                                                                 capsys):
    primality_tests_only_within_the_field_bound(monkeypatch)
    code = main(["modular", command, "--p", str(HUGE_PRIME), *MODULAR_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: field size {HUGE_PRIME}^1 exceeds bound 1000000000\n"


@pytest.mark.parametrize("command, flags", [
    ("blocks", ["--type", "A2", "--chi-s", "1,AS(2)"]),  # F_7 and F_{7^7}
    *((command, MODULAR_COMMANDS[command]) for command in sorted(MODULAR_COMMANDS))])
def test_a_modular_command_tests_p_for_primality_once(command, flags, monkeypatch, capsys):
    # an empty descriptor cache, so that the command builds each field itself
    monkeypatch.setattr(scalars, "_build_field",
                        functools.lru_cache(maxsize=None)(scalars._build_field.__wrapped__))
    tested = []
    real = scalars.is_prime
    monkeypatch.setattr(scalars, "is_prime", lambda n: tested.append(n) or real(n))
    assert main(["modular", command, "--p", "7", *flags]) == 0
    assert capsys.readouterr().err == ""
    assert tested == [7]


# per side: flags with a p or ell that fails the standing hypotheses, the
# first error every subcommand must report, and per subcommand the rest of
# its flags, with a second fault (a wrong count of values, or a malformed
# literal) that is checked later
DOUBLE_FAULTS = {
    "modular": (["--type", "A2", "--p", "3"], "(type A2, p=3) fails hypotheses", {
        "blocks": ["--chi-s", "1"],
        "structure": ["--chi-s", "1"],
        "unramified": ["--weight", "1"],
        "poincare": ["--weight", "1"],
        "finite-type": ["--weight", "1"],
        "blocks AS(x)": ["--chi-s", "AS(x),0"],
        "finite-type AS(x)": ["--weight", "AS(x),0"],
    }),
    "quantum": (["--type", "A2", "--ell", "4"], "ell = 4 must be odd and >= 3", {
        "blocks": ["--chi-s", "1/2"],
        "structure": ["--chi-s", "1/2"],
        "unramified": ["--torus", "1/2"],
        "simplicity": ["--chi-s", "1/2", "--torus", "1/2"],
        "blocks 1/0": ["--chi-s", "1/0,0"],
        "unramified 1/0": ["--torus", "1/0,0"],
    }),
}


@pytest.mark.parametrize("side", sorted(DOUBLE_FAULTS))
def test_every_subcommand_reports_the_same_first_error(side, capsys):
    # the inputs are checked in one order for every subcommand: the standing
    # hypotheses before the values
    flags, message, commands = DOUBLE_FAULTS[side]
    errors = {}
    for case, extra in commands.items():
        code = main([side, case.split()[0], *flags, *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), case
        errors[case] = captured.err
    assert set(errors.values()) == {errors["blocks"]}
    assert errors["blocks"].startswith("error: " + message)


# (command, its values, the message): each refused off the parsed A120 type
A120_REFUSALS = [
    *((["modular", c, "--p", "1000003", "--weight", "0"], "values")
      for c in ("poincare", "unramified", "finite-type")),
    (["modular", "blocks", "--p", "1000003", "--chi-s", "1"], "values"),
    (["quantum", "unramified", "--ell", "7", "--torus", "0"], "exponents"),
    (["quantum", "blocks", "--ell", "7", "--chi-s", "1"], "exponents"),
]


def test_refused_inputs_build_no_root_system(monkeypatch, capsys):
    # the hypotheses and the value count read the parsed type alone; the
    # memo is patched too, so that no memoised A120 hides a build
    monkeypatch.setattr(rootdata.RootSystem, "_build_roots",
                        lambda _rs: pytest.fail("root system built"))
    monkeypatch.setattr(cli, "root_system", lambda _c: pytest.fail("memo read"))
    for (side, command, *flags), what in A120_REFUSALS:
        code = main([side, command, "--type", "A120", *flags])
        assert (code, capsys.readouterr()) == (
            1, ("", f"error: expected 120 comma-separated {what}, got 1\n")), command
    # the hypotheses come before the count: 121 = 11^2
    code = main(["modular", "poincare", "--type", "A120", "--p", "11", "--weight", "0"])
    assert (code, capsys.readouterr()) == (1, ("", (
        "error: (type A120, p=11) fails hypotheses: {'goodPrime': True, "
        "'traceFormOK': False, 'oddPrime': True, 'ok': False}\n")))


# (type, highest-weight label, verdict): the alcove descent of each label
# takes a Weyl word of length 11 to 100 and leaves a proper Levi of zero Kac
# nodes; |W(E7)| and |W(E8)| exceed the default group bound
E_LABELS = [
    ("E6", "6/7,13/14,0,1/3,6/7,6/7", False),
    ("E6", "11/21,13/14,6/7,1/3,1/42,11/21", True),
    ("E7", "4/7,5/7,2/7,1/7,10/21,5/14,9/14", False),
    ("E7", "1/14,2/3,11/14,9/14,9/14,13/21,19/21", True),
    ("E8", "13/14,11/14,1/6,5/7,1/2,1/6,13/14,13/14", False),
    ("E8", "3/7,11/14,1/3,1/21,2/7,2/3,5/14,6/7", True),
]


# one argv per leaf of cli.GRAMMAR whose --type is a Cartan type, some on
# products, so that the component gate is counted per component
TYPED_LEAVES = {
    ("modular", "blocks"): ["--type", "B2", "--p", "7", "--chi-s", "1,AS(1)"],
    ("modular", "unramified"): ["--type", "A1xB2", "--p", "5", "--weight", "0,1,2"],
    ("modular", "poincare"): ["--type", "G2", "--p", "7", "--weight", "0,0"],
    ("modular", "finite-type"): ["--type", "C3", "--p", "5", "--weight", "1,0,0"],
    ("modular", "structure"): ["--type", "A2xA1", "--p", "5", "--chi-s", "1,2,0"],
    ("quantum", "blocks"): ["--type", "B2", "--ell", "7", "--chi-s", "1/3,0"],
    ("quantum", "unramified"): ["--type", "A1xA2", "--ell", "5", "--torus", "1/5,0,2/5"],
    ("quantum", "exceptional"): ["--type", "F4"],
    ("quantum", "simplicity"): ["--type", "A2", "--ell", "5", "--chi-s", "0,0",
                                "--torus", "1/5,2/5"],
    ("quantum", "structure"): ["--type", "A2xG2", "--ell", "5"],
}


def test_every_typed_leaf_is_counted():
    assert set(TYPED_LEAVES) == set(cli.GRAMMAR) - {("verify", "appendix"), ("selftest",)}


def clear_checked_facts():
    # the checks that keep an accepted input for the process
    for check in (rootdata.parse_cartan_type, rootdata.check_cartan_type,
                  modular.check_hypotheses, quantum.check_root_of_unity):
        check.cache_clear()


@pytest.mark.parametrize("leaf", sorted(TYPED_LEAVES), ids=" ".join)
def test_a_command_checks_its_type_once(leaf, monkeypatch, capsys):
    # check_cartan_type is asked once per command; on a cold cache it checks
    # the type, and the component gate runs once per component: the
    # hypotheses read the checked components, and the root system is built
    # from them without a second check.  A repeat of the command reuses the
    # checked type and runs no check.
    argv = [*leaf, *TYPED_LEAVES[leaf]]
    components = len(rootdata.parse_cartan_type(argv[argv.index("--type") + 1]))
    calls = []
    real = rootdata._validate_component
    monkeypatch.setattr(rootdata, "_validate_component",
                        lambda *args: calls.append("component") or real(*args))
    clear_checked_facts()
    for checks, gates in ((1, components), (0, 0)):
        calls.clear()
        before = rootdata.check_cartan_type.cache_info()
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        after = rootdata.check_cartan_type.cache_info()
        assert after.hits + after.misses == before.hits + before.misses + 1
        assert (after.misses - before.misses, calls) == (checks, ["component"] * gates)


# refusals on B4, each at a later step of the documented order than the one
# before it (the type over the bound, p not prime, p failing the
# hypotheses, the count of values, a literal; then ell, eps, the count, a
# literal), most with a later fault too; and two accepted commands on B4
B4_REFUSALS = [
    ["modular", "unramified", "--type", "B4", "--p", "9", "--weight", "1,2", "--bound", "63"],
    ["modular", "unramified", "--type", "B4", "--p", "9", "--weight", "1,2"],
    ["modular", "unramified", "--type", "B4", "--p", "2", "--weight", "1,2"],
    ["modular", "unramified", "--type", "B4", "--p", "5", "--weight", "1,x"],
    ["modular", "unramified", "--type", "B4", "--p", "5", "--weight", "1,x,3,4"],
    ["quantum", "unramified", "--type", "B4", "--ell", "4", "--eps", "2", "--torus", "1"],
    ["quantum", "unramified", "--type", "B4", "--ell", "5", "--eps", "5", "--torus", "1"],
    ["quantum", "unramified", "--type", "B4", "--ell", "5", "--torus", "1/0"],
    ["quantum", "unramified", "--type", "B4", "--ell", "5", "--torus", "1/0,0,0,0"],
]
B4_ACCEPTED = [["modular", "unramified", "--type", "B4", "--p", "5", "--weight", "1,2,3,4"],
               ["quantum", "unramified", "--type", "B4", "--ell", "5", "--torus", "1/5,0,0,0"]]


def outcome(argv, capsys):
    # exit status, stdout and stderr of one command; a usage error exits 2
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_cached_acceptance_never_hides_a_refusal(monkeypatch, capsys):
    # a check keeps what it accepted, never a refusal: after the type, p,
    # ell and eps are accepted, every refusal comes back, twice in a row,
    # with the same first failure, message and exit status as on a cold cache
    clear_checked_facts()
    cold = [outcome(argv, capsys) for argv in B4_REFUSALS]
    assert [code for code, _out, _err in cold] == [1, 1, 1, 1, 2, 1, 1, 1, 2]
    assert len({err for _code, _out, err in cold}) == len(cold)
    assert cold[2][2].startswith("error: (type B4, p=2) fails hypotheses")
    for argv in B4_ACCEPTED:
        assert outcome(argv, capsys)[0] == 0
    for _repeat in range(2):
        assert [outcome(argv, capsys) for argv in B4_REFUSALS] == cold
    # the accepted type under a lower bound: by --bound, then by LIERAM_BOUND
    refused = (1, "", "error: type B4: |Phi+| x rank = 64 exceeds bound 63\n")
    assert outcome([*B4_ACCEPTED[0], "--bound", "63"], capsys) == refused
    monkeypatch.setenv("LIERAM_BOUND", "63")
    assert [outcome(argv, capsys) for argv in B4_ACCEPTED] == [refused, refused]
    monkeypatch.delenv("LIERAM_BOUND")
    assert [outcome(argv, capsys)[0] for argv in B4_ACCEPTED] == [0, 0]


@pytest.mark.parametrize("spelling", ["A1XB2", "a1Xb2", "A1 x B2"])
def test_the_type_grammar_is_case_insensitive(spelling, capsys):
    # the product sign too, in either case; blanks around a factor are ignored
    outs = []
    for t in ("a1xb2", spelling):
        assert main(["modular", "blocks", "--type", t, "--p", "5", "--chi-s", "1,0,2"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].err == "" and '"type": "A1xB2"' in outs[0].out


@pytest.mark.parametrize("type_str,torus,verdict", E_LABELS)
def test_quantum_unramified_exceptional_types(type_str, torus, verdict, capsys):
    rs = build_root_system(type_str)
    code, out = run_cli(["quantum", "unramified", "--type", type_str, "--ell", "7",
                         "--torus", torus, "--coords", "both"], capsys)
    assert code == 0
    assert json.loads(out)["highestWeight"] is verdict
    t = TorusElement(tuple(Fraction(x) for x in torus.split(",")))
    u = ",".join(str(e.q) for e in hc_shift(rs, t, 7, "forward").exps)
    code, out = run_cli(["quantum", "unramified", "--type", type_str, "--ell", "7",
                         "--torus", u, "--coords", "component"], capsys)
    assert code == 0
    assert json.loads(out)["component"] is verdict


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # --format=json is a form _match does not read, so argparse parses it
    cli._parser.cache_clear()
    run_cli(["--format=json", *GOLDEN["quantum_exceptional_g2.json"]], capsys)
    assert cli._parser.cache_info().currsize == 1
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    code, out = run_cli(["--format=json", *GOLDEN["modular_unramified_a1_p3.json"]], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "modular_unramified_a1_p3.json").read_text()


def _child(code, *argv):
    src = str(pathlib.Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"})


def test_parser_is_not_built_at_import():
    done = _child("import lieram.cli as c; print(c._parser.cache_info().currsize)")
    assert (done.returncode, done.stdout) == (0, "0\n")
    # nor by an answer to an argv of the exact form: its bytes, then the
    # parser cache's size, on stderr
    probe = ("import sys, lieram.cli as c; code = c.main(sys.argv[1:]); "
             "sys.stderr.write(f'{code} {c._parser.cache_info().currsize}')")
    name = "quantum_blocks_a1_l5.json"
    done = _child(probe, *GOLDEN[name])
    assert done.stderr == "0 0"
    assert done.stdout == (GOLDEN_DIR / name).read_text()


def test_a_usage_error_on_the_exact_form_keeps_its_usage_line():
    # the usage line and message argparse's leaf parser wrote when every
    # namespace carried it, now from the parser built for the error alone
    done = _child("import sys, lieram.cli as c; sys.exit(c.main())",
                  "modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "AS(x),0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "usage: lieram modular blocks [-h] [--format {json,tsv}] [--bound BOUND] --type\n"
        "                             TYPE --p P [--chi-s CHI_S] [--support SUPPORT]\n"
        "lieram modular blocks: error: malformed field literal 'AS(x)': "
        "expected an integer, g, g^k or AS(c)\n")


def test_reused_parser_keeps_formats_apart(capsys):
    argv = GOLDEN["modular_blocks_a2_p5.json"]
    golden = (GOLDEN_DIR / "modular_blocks_a2_p5.json").read_text()
    for tsv in (["--format", "tsv", *argv], [*argv, "--format", "tsv"]):
        code, out = run_cli(tsv, capsys)
        assert code == 0 and out.startswith("lambda\teta\t")
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == golden


def test_usage_error_after_a_successful_call(capsys):
    code, _out = run_cli(GOLDEN["quantum_blocks_a1_l5.json"], capsys)
    assert code == 0
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["modular", "blocks", "--type", "A2", "--p", "5", "--support", "0"])
    assert exc.value.code == 2
    assert err.getvalue().startswith("usage: lieram modular blocks ")
    assert "support indices start at 1, not 0" in err.getvalue()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["top", "subcommand"])
def test_bound_does_not_leak_into_the_next_call(where, monkeypatch, capsys):
    monkeypatch.delenv("LIERAM_BOUND", raising=False)
    argv = ["modular", "blocks", "--type", "A1", "--p", "3", "--chi-s", "1", "--support", ""]
    flagged = ["--bound", "10", *argv] if where == "top" else [*argv, "--bound", "10"]
    assert main(flagged) == 1
    assert "exceeds bound 10" in capsys.readouterr().err
    code, out = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["counts"]["dim_sum"] == 3


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "0,0", "--support", "0"],
    ["modular", "structure", "--type", "A2", "--p", "5", "--support", "2,-1"],
    ["quantum", "blocks", "--type", "A2", "--ell", "5", "--support", "0"],
    ["quantum", "simplicity", "--type", "A2", "--ell", "5", "--support", "0",
     "--torus", "0,0"],
])
def test_support_index_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: lieram {argv[0]} {argv[1]} ")
    assert "error: support indices start at 1" in captured.err


@pytest.mark.parametrize("argv", [
    ["modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "0,0", "--support", "3"],
    ["quantum", "blocks", "--type", "A2", "--ell", "5", "--support", "1,3"],
])
def test_support_index_past_the_basis_quotes_the_typed_index(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(
        "error: support index 3 outside the basis of Phi' (rank 2")


def _run_into(stdout, argv, unbuffered):
    # stdout block-buffered, as it is by default (the answer may still sit in
    # the buffer when the command returns), or unbuffered (each write meets
    # the failure at once)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "lieram.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120, env=env)


def _one_error_line(done):
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


# argparse writes --help to stdout before the command runs, then exits
HELP_ARGVS = (["--help"], ["modular", "blocks", "--help"])


def test_a_closed_stdout_is_one_error_line():
    # the read end is closed before the command starts, so every write to
    # stdout meets a broken pipe
    for argv in (["--format", "tsv", "quantum", "blocks", "--type", "B3", "--ell", "7",
                  "--chi-s", "1/2,0,1/3", "--support", "1"], *HELP_ARGVS):
        for unbuffered in (False, True):
            read, write = os.pipe()
            os.close(read)
            try:
                done = _run_into(write, argv, unbuffered)
            finally:
                os.close(write)
            _one_error_line(done)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_is_one_error_line():
    for argv in (GOLDEN["quantum_exceptional_g2.json"], *HELP_ARGVS):
        for unbuffered in (False, True):
            with open("/dev/full", "w") as full:
                done = _run_into(full, argv, unbuffered)
            _one_error_line(done)


@pytest.mark.parametrize("argv, err", [
    (["selftest", "--suite", ""], "error: unknown suite ''; choose from "),
    (["verify", "appendix", "--type", ""], "error: no appendix rows for type "),
], ids=["suite", "appendix-type"])
def test_an_empty_filter_name_is_refused(argv, err, capsys):
    # an empty --suite or appendix --type names nothing; it is not read as
    # "no filter", which runs every suite or lists every row
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(err) and captured.err.count("\n") == 1


@pytest.mark.parametrize("name, err", [
    ("", "error: no appendix rows for type ''\n"),
    (" ", "error: no appendix rows for type ' '\n"),
    ("Z9", "error: no appendix rows for type 'Z9'\n"),
], ids=["empty", "blank", "unknown"])
def test_an_appendix_type_without_rows_is_named_as_typed(name, err, capsys):
    # the refusal quotes the --type value, so an empty or blank one shows
    assert main(["verify", "appendix", "--type", name]) == 1
    assert capsys.readouterr() == ("", err)


def _torus_by_fraction(text, rank):
    """parse_torus as it read each exponent: Fraction's string parser, the
    point built from the Fractions; (nums, N), or the UsageError text."""
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    assert len(tokens) == rank
    try:
        t = TorusElement(tuple(Fraction(t) for t in tokens))
    except (ValueError, ZeroDivisionError):
        bad = next(t for t in tokens if not _fraction_takes(t))
        return f"malformed exact rational {bad!r}"
    return t.nums, t.N


def _fraction_takes(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _torus_read(text, rank):
    try:
        t = cli.parse_torus(text, rank)
    except cli.UsageError as exc:
        return str(exc)
    return t.nums, t.N


# every form Fraction takes from a string: integers and n/d (signs, "_"
# between digits, leading zeros, any Unicode decimal digits), decimals and
# exponents; and forms it refuses, some of which int() alone would take
TORUS_TAKEN = ["0", "-0", "+3", "7", "1/2", "-1/2", "+1/2", "3/6", "-9/3", "0/5", "10/4",
               "007/010", "1_0/2_0", "1_000", "0.5", "-.5", "5.", "+5.25", "1e3", "1E-2",
               "-2.5e-1", "1_0.5e1_0", "١/٣", "２/３", " 1/3 ", "\t-2/7　"]
TORUS_REFUSED = ["", "1/", "/2", "1/0", "0/0", "1/-2", "1/+2", "1 /2", "1/ 2", "- 1", "1__0",
                 "_1", "1_", "1_/2", "1/_2", "1/2/3", "0x10", "1.5/2", "1/2.5", "inf", "nan",
                 "1e", "e3", "--1", "+-1", "1 2", "1/2e3", "١/0", "²", "1" * 4400,
                 "1" * 4400 + "/3", "1/" + "3" * 4400]


@pytest.mark.parametrize("text", TORUS_TAKEN + TORUS_REFUSED)
def test_a_torus_exponent_is_read_as_fraction_reads_it(text):
    # parse_torus reads an integer or n/d with int() alone: every literal
    # gives the point, or the refusal, that Fraction's parser gave
    if text.strip():  # alone, a blank text is no exponent at all
        want = _torus_by_fraction(text, 1)
        assert (type(want) is tuple) == (text in TORUS_TAKEN)
        assert _torus_read(text, 1) == want
    # beside other exponents, the first refused one is named
    for other in ("1/3", "-2.5", "x"):
        joined = f"{other},{text}"
        assert _torus_read(joined, 2) == _torus_by_fraction(joined, 2), joined


def test_torus_exponents_drawn_at_random_are_read_as_fraction_reads_them():
    rng = random.Random(49)
    alphabet = "0123456789/+-._eE ١２x"
    taken = 0
    for _ in range(4000):
        text = ",".join("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                        for _ in range(3))
        if len([t for t in text.split(",") if t.strip()]) != 3:
            continue
        want = _torus_by_fraction(text, 3)
        taken += type(want) is tuple
        assert _torus_read(text, 3) == want, text
    assert taken > 30
