"""tools/probes.py with its runner stubbed: each row carries the command,
its cost and whether the digest of its stdout and exit status is the pinned
one, and any digest off its pin makes the exit status 1.  Every probe is an
argv the CLI reads, and one cold refusal runs for real: the A120 trace-form
refusal, whose digest is the pinned empty-stdout exit-1 digest."""

import importlib.util
import json
import os
import shlex

import pytest

from lieram import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location(
        "probes", os.path.join(ROOT, "tools", "probes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub(outputs):
    # a runner answering each argv from `outputs`, and the argvs it was given
    calls = []

    def runner(argv):
        calls.append(argv)
        out, code = outputs[" ".join(argv)]
        return 0.25, 17.0, out, code
    return runner, calls


def test_each_row_checks_its_digest_against_the_pin(probes, capsys):
    runner, calls = stub({"a --x 1": (b"{}\n", 0), "b": (b"", 1)})
    pins = [("a --x 1", probes.digest(b"{}\n", 0)), ("b", probes.REFUSED)]
    assert probes.main(pins, runner) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert calls == [["a", "--x", "1"], ["b"]]
    assert rows == [{"command": command, "seconds": 0.25, "peak_rss_mb": 17.0,
                     "exit": code, "sha256": pin, "pinned": True}
                    for (command, pin), code in zip(pins, (0, 1))]


def test_a_digest_off_its_pin_fails_the_run(probes, capsys):
    # the same stdout with another exit status is another digest
    runner, _calls = stub({"a": (b"{}\n", 0), "b": (b"{}\n", 1)})
    pins = [("a", probes.digest(b"{}\n", 0)), ("b", probes.digest(b"{}\n", 0))]
    assert probes.main(pins, runner) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["pinned"] for row in rows] == [True, False]


def test_every_probe_is_a_cli_command(probes):
    assert all(cli._match(shlex.split(command)) for command, _pin in probes.PROBES)
    assert probes.digest(b"", 1) == probes.REFUSED


def test_a_cold_refusal_runs_in_a_child(probes):
    argv = shlex.split("modular poincare --type A120 --p 11 --weight 0")
    seconds, rss, out, code = probes.run(argv)
    assert (out, code) == (b"", 1)
    assert seconds > 0 and rss > 0
