"""A seeded grammar fuzz of the CLI, in process: a few hundred random argv
over ranks <= 9, most of them malformed somewhere (Cartan types, primes,
ell and eps, field literals, torus exponents, supports, bounds, flags).
main must answer each with exit status 0, 1 or 2: no exception other than
SystemExit escapes it, and it returns no other status.  Every draw runs
under a bound of at most 2000, from --bound or LIERAM_BOUND, so no answer
walks more points than that."""

import contextlib
import io
import random

from lieram.cli import main

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
        argv = [side, "--suite", rng.choice(["nosuch", "ALL"])]
    if rng.random() < 0.7:
        argv += ["--bound", _pick(rng, BOUNDS, BAD_BOUNDS)]
    if rng.random() < 0.2:
        argv = ["--format", _pick(rng, ["json", "tsv"], ["xml"])] + argv
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
        assert code in (0, 1, 2), (argv, env_bound, code, err.getvalue())
        codes.append(code)
    # the draws reach answers, domain errors and usage errors alike
    assert {codes.count(c) > 10 for c in (0, 1, 2)} == {True}
