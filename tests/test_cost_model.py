"""The cost model behind --bound lives in one module: errors.BOUNDS holds
each check's default, errors.charge is the one place BoundExceeded is
raised, and the README's table of the checks is the one the command line's
--bound help names."""

import ast
import pathlib
import re

import pytest

from lieram import cli
from lieram.errors import BOUNDS, BoundExceeded
from lieram.rootdata import build_root_system
from lieram.weyl import enumerate_group

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lieram"


def _modules():
    files = sorted(SRC.glob("*.py"))
    assert any(path.name == "selftest.py" for path in files)
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in files]


def _functions_calling(tree, name):
    # the qualified name of each function (or "<module>") holding a call of
    # `name`, once per call
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                         getattr(child.func, "attr", None))):
                found.append(where)
            visit(child, where)
    visit(tree, "<module>")
    return found


def test_bound_exceeded_is_raised_by_charge_alone():
    found = [(module, where) for module, tree in _modules()
             for where in _functions_calling(tree, "BoundExceeded")]
    assert found == [("errors.py", "charge")]


def test_the_group_check_refuses_before_the_closure():
    # only the oracles enumerate W; |W(E7)| is past the group default
    with pytest.raises(BoundExceeded) as exc:
        enumerate_group(build_root_system("E7"))
    assert str(exc.value) == "|W(E7)| = 2903040 exceeds bound 1000000"


def _int_constant(node):
    # the value of an integer literal or of a power of two of them, else None
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and None not in (base := _int_constant(node.left), exp := _int_constant(node.right))
            and 0 <= exp < 64):
        return base ** exp
    return None


def test_no_other_module_holds_a_default_bound():
    # a default bound elsewhere would be a `bound` parameter with a default
    # other than None, or a constant as large as the least default
    least = min(default for default, _what in BOUNDS.values())
    found = []
    for module, tree in _modules():
        if module == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args
                pairs = [*zip(params[len(params) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                found += [f"{module}:{node.lineno} {arg.arg}={ast.unparse(default)}"
                          for arg, default in pairs
                          if arg.arg == "bound" and default is not None
                          and not (isinstance(default, ast.Constant) and default.value is None)]
            value = _int_constant(node)
            if value is not None and value >= least:
                found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def _readme_table():
    # (check, default) of each row of the README's table of the checks
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\s*\| (\w+) \| [^\n]*? \| (10\^\d+) \| ", text, re.M)
    return [(check, default) for check, default in rows if check in BOUNDS]


def test_the_readme_table_is_the_table_of_the_checks():
    assert {check: 10 ** int(default[3:]) for check, default in _readme_table()} == {
        check: default for check, (default, _what) in BOUNDS.items()}


def test_the_bound_help_names_each_default(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["modular", "blocks", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    table = _readme_table()
    assert len(table) == len(BOUNDS)
    assert [check for check, default in table if f"{check} {default}" not in text] == []
