"""The benchmark's tracer, perfbench/tracer.py loaded from its file and left
as it is, still fits the engine: install() wraps the public functions of
every layer, the counted WeylElement methods and the constructors
PChar.__init__ and QChar.__init__, each read from its class's own __dict__;
a modular and a quantum answer under it are byte for byte the untraced
ones, its spans see both, and restore() puts every original back.  The walk
memo is emptied before each answer, so the traced one walks too."""

import importlib.util
import os

import pytest

from lieram import cli, modular, quantum, weyl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

QUERIES = [
    ["modular", "blocks", "--type", "B2", "--p", "5", "--chi-s", "1,0", "--support", "1"],
    ["quantum", "structure", "--type", "B2", "--ell", "5", "--chi-s", "0,1/3", "--support", "1"],
]


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _answer(argv, capsys, monkeypatch):
    # the stdout of argv from an empty walk memo
    monkeypatch.setattr(weyl._walks, "entries", {})
    monkeypatch.setattr(weyl._walks, "total", 0)
    capsys.readouterr()
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_traced_answers_are_the_untraced_ones(tracer_module, capsys, monkeypatch):
    monkeypatch.delenv("LIERAM_BOUND", raising=False)
    untraced = [_answer(argv, capsys, monkeypatch) for argv in QUERIES]
    originals = (modular.PChar.__dict__["__init__"], quantum.QChar.__dict__["__init__"],
                 weyl.WeylElement.__dict__["act_values"], modular.mod_blocks)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert modular.PChar.__dict__["__init__"] is not originals[0]
        traced = []
        for qid, argv in enumerate(QUERIES):
            with tracer.root(qid):
                traced.append(_answer(argv, capsys, monkeypatch))
    finally:
        tracer.restore()
    assert tracer.restored()
    assert (modular.PChar.__dict__["__init__"], quantum.QChar.__dict__["__init__"],
            weyl.WeylElement.__dict__["act_values"], modular.mod_blocks) == originals
    assert traced == untraced
    spans = {(name, qid) for name, _start, _end, _parent, qid in tracer.spans}
    assert {("modular.PChar", 0), ("modular.mod_blocks", 0), ("weyl.block_list", 0),
            ("quantum.QChar", 1), ("quantum.q_blocks", 1)} <= spans
