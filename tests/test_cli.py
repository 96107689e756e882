"""CLI surface: documented examples, golden files, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from lieram import cli
from lieram.cli import main
from lieram.modular import ModWeight, dim_C
from lieram.quantum import TorusElement, hc_shift
from lieram.rootdata import build_root_system
from lieram.scalars import make_field

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


# sha256 of the `--format tsv` stdout of each golden cell and of two cells with
# e > 1 or a non-standard Levi, as written before the TSV rows were built only
# on demand; they must not move
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
}
TSV_ARGV = {
    **GOLDEN,
    "modular blocks A2/p5 1,AS(1)": [
        "modular", "blocks", "--type", "A2", "--p", "5", "--chi-s", "1,AS(1)"],
    "quantum blocks B2/l7 0,1/3": [
        "quantum", "blocks", "--type", "B2", "--ell", "7", "--chi-s", "0,1/3"],
}


@pytest.mark.parametrize("name", sorted(TSV_SHA256))
def test_tsv_output_is_pinned(name, capsys):
    code, out = run_cli(["--format", "tsv"] + TSV_ARGV[name], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TSV_SHA256[name]


def test_tsv_rows_are_built_only_for_tsv(monkeypatch, capsys):
    # JSON answers never format the per-block TSV cells
    monkeypatch.setattr(cli, "_ffstr", lambda v: pytest.fail("TSV cell built"))
    code, out = run_cli(GOLDEN["modular_blocks_a2_p5.json"], capsys)
    assert code == 0 and out == (GOLDEN_DIR / "modular_blocks_a2_p5.json").read_text()


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
    eta = ModWeight((make_field(7, 1).one(),) * 7)
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
    # the set and the one point of the orbit of chi
    code, out = run_cli([*argv, "--bound", "1000"], capsys)
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["dim_sum"] == 625
    code = main([*argv, "--bound", "600"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: 626 points to walk (625 in the block set, 1 in the W-orbit "
        "of chi) exceeds bound 600\n")


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_literal_is_a_usage_error(case, capsys):
    with pytest.raises(SystemExit) as exc:
        main(MALFORMED[case])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lieram ")
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
    run_cli(GOLDEN["quantum_exceptional_g2.json"], capsys)
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    code, out = run_cli(GOLDEN["modular_unramified_a1_p3.json"], capsys)
    assert code == 0
    assert out == (GOLDEN_DIR / "modular_unramified_a1_p3.json").read_text()


def test_parser_is_not_built_at_import():
    src = str(pathlib.Path(cli.__file__).parents[1])
    probe = "import lieram.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout == "0\n"


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
