"""The brute-force oracles live only in lieram.selftest, which neither
`import lieram` nor the CLI module loads, and the production modules call
none of the single-root or closure oracles.  The block walks generate their
integer points directly, through neither the ell-fiber of torus elements nor
the list of weights of Lambda_chi."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieram"

ORACLES = {
    "root_reflection", "subgroup_elements", "is_reduced", "stabilizer_bruteforce",
    "burnside_count", "min_coset_reps", "act_modular", "pair", "close_up",
    "root_value", "steinberg_fiber_point", "ell_fiber",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _called_names(tree):
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_import_lieram_and_cli_does_not_load_selftest():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = ("import sys, lieram, lieram.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('lieram')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "'lieram.cli'" in out
    assert "lieram.selftest" not in out


def test_oracles_are_defined_only_in_selftest():
    trees = _trees()
    where = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ORACLES:
                where.setdefault(node.name, []).append(name)
    assert where == {oracle: ["selftest.py"] for oracle in ORACLES}
    assert not [cls.name for cls in ast.walk(trees["weyl.py"])
                if isinstance(cls, ast.ClassDef)
                and "elements" in {node.name for node in cls.body
                                   if isinstance(node, ast.FunctionDef)}]


def test_production_modules_call_no_single_root_or_closure_oracle():
    trees = _trees()
    (exceptional,) = [node for node in trees["quantum.py"].body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "exceptional_elements"]
    assert not _called_names(exceptional) & {"close_up", "pair", "root_value", "solve_linear"}
    for name, tree in trees.items():
        if name != "selftest.py":
            assert not _called_names(tree) & {"close_up", "pair", "root_value"}, name


def test_block_walks_build_no_point_objects():
    trees = _trees()
    for module, name in (("modular.py", "mod_blocks"), ("quantum.py", "q_blocks")):
        (walk,) = [node for node in trees[module].body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
        assert not _called_names(walk) & {"ell_fiber", "enumerate_lambda_chi"}, name
