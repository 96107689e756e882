"""tools/probes.py with its runner stubbed: each row carries the command,
its cost and whether the digest of its stdout and exit status is the pinned
one, and any digest off its pin makes the exit status 1.  Every probe is an
argv the CLI reads, and one cold refusal runs for real: the A120 trace-form
refusal, whose digest is the pinned empty-stdout exit-1 digest.  With --work
each row also carries the bytecodes and calls tools/work.py counts for the
command's answer (the child stubbed)."""

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import tracemalloc

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
    # a runner answering each argv with the digest of its (stdout, exit
    # status) in `outputs`, and the argvs it was given
    calls = []

    def runner(argv):
        calls.append(argv)
        out, code = outputs[" ".join(argv)]
        return 0.25, 17.0, digest(out, code), code
    return runner, calls


def digest(out, code):
    return hashlib.sha256(out + b"exit %d\n" % code).hexdigest()


def test_each_row_checks_its_digest_against_the_pin(probes, capsys):
    runner, calls = stub({"a --x 1": (b"{}\n", 0), "b": (b"", 1)})
    pins = [("a --x 1", digest(b"{}\n", 0)), ("b", probes.REFUSED)]
    assert probes.main(pins, runner) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert calls == [["a", "--x", "1"], ["b"]]
    assert rows == [{"command": command, "seconds": 0.25, "peak_rss_mb": 17.0,
                     "exit": code, "sha256": pin, "pinned": True}
                    for (command, pin), code in zip(pins, (0, 1))]


def test_a_digest_off_its_pin_fails_the_run(probes, capsys):
    # the same stdout with another exit status is another digest
    runner, _calls = stub({"a": (b"{}\n", 0), "b": (b"{}\n", 1)})
    pins = [("a", digest(b"{}\n", 0)), ("b", digest(b"{}\n", 0))]
    assert probes.main(pins, runner) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["pinned"] for row in rows] == [True, False]


def test_every_probe_is_a_cli_command(probes):
    assert all(cli._match(shlex.split(command)) for command, _pin in probes.PROBES)
    assert digest(b"", 1) == probes.REFUSED


def test_a_cold_refusal_runs_in_a_child(probes):
    argv = shlex.split("modular poincare --type A120 --p 11 --weight 0")
    seconds, rss, sha, code = probes.run(argv)
    assert (sha, code) == (probes.REFUSED, 1)
    assert seconds > 0 and rss > 0


def test_a_long_stdout_is_hashed_as_it_is_read(probes):
    # a child writing 6 MB: the digest of its whole stdout and exit status,
    # while this process never holds as much as 1 MB more
    script = "import sys; sys.stdout.buffer.write(bytes(range(256)) * 24576); sys.exit(3)"
    tracemalloc.start()
    try:
        sha, code, _usage = probes.hashed_child([sys.executable, "-c", script], dict(os.environ))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sha, code) == (digest(bytes(range(256)) * 24576, 3), 3)
    assert peak < 2**20


def test_work_adds_each_probes_counts(probes, capsys):
    # --work: one count per command, in order, after its timed run; without
    # it, no count is made and the rows carry none
    runner, calls = stub({"a --x 1": (b"{}\n", 0), "b": (b"", 1)})
    counted = []

    def counter(argv):
        counted.append(argv)
        return {"a": 1200.5, "b": 30}[argv[0]], {"a": 40, "b": 2}[argv[0]]
    pins = [("a --x 1", digest(b"{}\n", 0)), ("b", probes.REFUSED)]
    assert probes.main(pins, runner, ["--work"], counter) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert counted == calls == [["a", "--x", "1"], ["b"]]
    assert [(row["bytecodes"], row["calls"], row["pinned"]) for row in rows] == [
        (1200.5, 40, True), (30, 2, True)]
    counted.clear()
    assert probes.main(pins, runner, [], counter) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert counted == [] and not any("bytecodes" in row for row in rows)


def test_work_reads_the_counts_of_tools_work(probes, monkeypatch):
    # the child is tools/work.py with --top 0 and the probe's argv, without
    # LIERAM_BOUND; its first line gives the counts
    seen = []

    def run(cmd, **kwargs):
        seen.append((cmd, kwargs))
        line = json.dumps({"command": " ".join(cmd[4:]), "bytecodes": 5321, "calls": 77})
        return subprocess.CompletedProcess(cmd, 0, line + "\n12 lieram.cli:1(main)\n", "")
    monkeypatch.setattr(probes.subprocess, "run", run)
    monkeypatch.setenv("LIERAM_BOUND", "10")
    assert probes.work(["modular", "poincare", "--type", "A2"]) == (5321, 77)
    ((cmd, kwargs),) = seen
    assert cmd[1:] == [os.path.join(ROOT, "tools", "work.py"), "--top", "0",
                       "modular", "poincare", "--type", "A2"]
    assert "LIERAM_BOUND" not in kwargs["env"] and kwargs["check"]
