"""A seeded grammar fuzz of the CLI, in process: a few hundred random argv
over ranks <= 9, most of them malformed somewhere (Cartan types, primes,
ell and eps, field literals, torus exponents, supports, bounds, flags), some
in a form only argparse reads (an abbreviated flag, --flag=value, a
top-level flag before the group, a repeated flag, a value starting with -).
main must answer each with exit status 0, 1 or 2 and output of that status's
shape: no exception other than SystemExit escapes it.  Every draw runs under
a bound of at most 2000, from --bound or LIERAM_BOUND, so no answer walks
more points than that.

main reads an argv of the exact form group command (--flag value)* itself
(cli._match) and hands every other to argparse; wherever it reads one itself,
its namespace must be the one argparse builds."""

import argparse
import contextlib
import io
import random

import pytest

from lieram import cli
from lieram.cli import main
from test_cli import GOLDEN, GOLDEN_DIR, TSV_ARGV
from test_golden_manifest import cases

RANKS = {"A1": 1, "A2": 2, "b2": 2, "G2": 2, "A3": 3, "B3": 3, "c3": 3, "D4": 4,
         "F4": 4, "A1xA1": 2, "A1xB2": 3, "A2xG2": 4, "E6": 6, "E7": 7, "E8": 8,
         "A9": 9, "D9": 9, "B4xA5": 9}
BAD_TYPES = ["", "Z3", "A0", "D2", "E9", "F5", "G3", "A1x", "xA1", "A-1", "A 2", "A2xZ1",
             "A1xxA1", "E66", "A126", "B1000", "A99999", "A" + "9" * 30]
PRIMES = ["3", "5", "7", "11", "13"]
BAD_PRIMES = ["0", "1", "2", "4", "-5", "9", "3.0", "x", "", "1000000007"]
ELLS = ["3", "5", "7", "9", "11"]
BAD_ELLS = ["0", "1", "4", "-5", "15", "x", "", "1000000001"]
EPS = ["1", "2", "3"]
BAD_EPS = ["0", "5", "-1", "x", "10", ""]
FIELD = ["0", "1", "-3", "7", "g", "g^2", "g^-1", "AS(1)", "AS(0)", "AS(-2)"]
BAD_FIELD = ["AS(x)", "1/2", "h", "g^", "AS()", "1.5", "", "g^x", "0x1"]
EXPONENTS = ["0", "1/5", "2/5", "-1/3", "1/2", "3/7", "0/1", "2", "6/14"]
BAD_EXPONENTS = ["1/0", "x", "1//2", "", "1/", "0x1", "g"]
SUPPORTS = ["", "1", "2", "1,2", "2,1", "1,1"]
BAD_SUPPORTS = ["0", "-1", "a", "1,,2", "9", "1.0"]
BOUNDS = ["0", "5", "100", "700", "2000"]
BAD_BOUNDS = ["-1", "x", "1e3", ""]
COORDS = ["component", "highestWeight", "both"]


def _pick(rng, good, bad, p_bad=0.2):
    return rng.choice(bad) if rng.random() < p_bad else rng.choice(good)


def _values(rng, rank, good, bad):
    n = max(0, rank + rng.choice((0, 0, 0, 0, -1, 1)))
    return ",".join(_pick(rng, good, bad, 0.05) for _ in range(n))


def _argparse_form(rng, argv):
    """argv in one of the forms only argparse reads."""
    flags = [i for i, a in enumerate(argv[:-1]) if a.startswith("--")]
    form = rng.randrange(5)
    if form == 2 or not flags:  # a top-level flag before the group
        return rng.choice([["--bound", _pick(rng, BOUNDS, BAD_BOUNDS)],
                           ["--format", _pick(rng, ["json", "tsv"], ["xml"])]]) + argv
    i = rng.choice(flags)
    if form == 0:  # an abbreviation, which may be ambiguous: --ty, --e
        return argv[:i] + [argv[i][:max(3, len(argv[i]) - 2)]] + argv[i + 1:]
    if form == 1:
        return argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    if form == 3:  # the same flag again, its value too
        return argv + argv[i:i + 2]
    return argv[:i + 1] + ["-5"] + argv[i + 2:]


def _draw(rng):
    """(argv, LIERAM_BOUND) of one query."""
    t = _pick(rng, list(RANKS), BAD_TYPES)
    rank = RANKS.get(t) or rng.randint(1, 9)
    side = rng.choices(["modular", "quantum", "verify", "selftest"], (10, 10, 2, 1))[0]
    if side == "modular":
        command = rng.choice(["blocks", "structure", "unramified", "poincare", "finite-type"])
        argv = [side, command, "--type", t, "--p", _pick(rng, PRIMES, BAD_PRIMES)]
        if command in ("blocks", "structure"):
            if rng.random() < 0.7:
                argv += ["--chi-s", _values(rng, rank, FIELD, BAD_FIELD)]
            if rng.random() < 0.5:
                argv += ["--support", _pick(rng, SUPPORTS, BAD_SUPPORTS)]
        else:
            argv += ["--weight", _values(rng, rank, FIELD, BAD_FIELD)]
    elif side == "quantum":
        command = rng.choice(["blocks", "structure", "unramified", "simplicity", "exceptional"])
        argv = [side, command, "--type", t]
        if command != "exceptional":
            argv += ["--ell", _pick(rng, ELLS, BAD_ELLS)]
            if rng.random() < 0.5:
                argv += ["--eps", _pick(rng, EPS, BAD_EPS)]
        if command in ("blocks", "structure", "simplicity"):
            if rng.random() < 0.7:
                argv += ["--chi-s", _values(rng, rank, EXPONENTS, BAD_EXPONENTS)]
            if rng.random() < 0.5:
                argv += ["--support", _pick(rng, SUPPORTS, BAD_SUPPORTS)]
        if command in ("unramified", "simplicity"):
            argv += ["--torus", _values(rng, rank, EXPONENTS, BAD_EXPONENTS)]
        if command == "unramified" and rng.random() < 0.5:
            argv += ["--coords", _pick(rng, COORDS, ["bad", ""])]
    elif side == "verify":
        argv = [side, "appendix", "--type", t]
    else:
        argv = [side, "--suite", rng.choice(["nosuch", "ALL", ""])]
    if rng.random() < 0.7:
        argv += ["--bound", _pick(rng, BOUNDS, BAD_BOUNDS)]
    if rng.random() < 0.1:
        argv += ["--format", _pick(rng, ["json", "tsv"], ["xml"])]
    if rng.random() < 0.3:
        argv = _argparse_form(rng, argv)
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--nope", "--help", "-"]))
    return argv, _pick(rng, BOUNDS, ["-1", "x", "1e3"])


def test_malformed_argv_never_escapes_main(monkeypatch):
    rng = random.Random(0)
    codes = []
    for _ in range(400):
        argv, env_bound = _draw(rng)
        monkeypatch.setenv("LIERAM_BOUND", env_bound)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, env_bound, code, err)
        # an answer writes nothing to stderr; a domain error one error line
        # and nothing to stdout; a usage error argparse's usage and message
        if code == 0:
            assert err == "", (argv, env_bound, err)
        elif code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (
                argv, env_bound, out, err)
        else:
            assert out == "" and err.startswith("usage: lieram"), (argv, env_bound, out, err)
        codes.append(code)
    # the draws reach answers, domain errors and usage errors alike
    assert {codes.count(c) > 10 for c in (0, 1, 2)} == {True}


def _refuse(*_args, **_kwargs):
    raise AssertionError("argparse was asked to parse an argv of the exact form")


def test_the_exact_form_parses_as_argparse_does(monkeypatch):
    rng = random.Random(1)
    draws = [_draw(rng)[0] for _ in range(2000)]
    # the golden and TSV argv, and every CLI cell of the golden manifest
    exact = [*TSV_ARGV.values()]  # the golden argv among them
    exact += [key.split(" ") for key, _run in cases() if not key.startswith("api ")]
    parser = cli._parser()
    for argv in draws + exact:
        got = cli._match(argv)
        assert got is None or got == parser.parse_args(argv), argv
    # the draws reach both paths, and the exact argv never reach argparse
    assert 500 < sum(cli._match(a) is not None for a in draws) < len(draws) - 500
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", _refuse)
    assert [a for a in exact if cli._match(a) is None] == []
    for name, argv in GOLDEN.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue() == (GOLDEN_DIR / name).read_text(), name


@pytest.mark.parametrize("argv", [
    ["quantum", "exceptional", "--ty", "G2"],
    ["quantum", "exceptional", "--type=G2"],
    ["--bound", "5", "quantum", "exceptional", "--type", "G2"],
    ["quantum", "exceptional", "--type", "A2", "--type", "G2"],
    ["modular", "poincare", "--type", "A1", "--p", "-5", "--weight", "0"],
    ["quantum", "exceptional", "--type", "G2", "--help"],
    ["quantum", "exceptional", "--type", "G2", "--format", "xml"],
    ["quantum", "exceptional", "--type", "G2", "--bound", "x"],
    ["quantum", "exceptional", "--type", "G2", "extra"],
    ["quantum", "exceptional"],
    ["quantum"],
    [],
])
def test_every_other_form_is_left_to_argparse(argv):
    assert cli._match(argv) is None
