"""The brute-force oracles live only in lieram.selftest, which neither
`import lieram` nor the CLI module loads, and the production modules call
none of the single-root or closure oracles.  The block walks generate their
integer points directly, through neither the ell-fiber of torus elements nor
the list of weights of Lambda_chi, and both sides walk through the one shared
weyl.block_orbits, which walks the points in key order and so sorts
nothing; the CLI reads no block report's integer layout.  Each matrix is
reduced once: no production module calls the solver from a loop.  A Weyl
element is its word in production: no production module builds or applies
a matrix element."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieram"

ORACLES = {
    "root_reflection", "subgroup_elements", "is_reduced", "stabilizer_bruteforce",
    "burnside_count", "min_coset_reps", "act_modular", "pair", "close_up",
    "root_value", "steinberg_fiber_point", "ell_fiber", "orbit_partition_by_key",
    "word_element", "matrix_inversions", "dot_act_torus",
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


def test_both_sides_share_one_block_walk():
    trees = _trees()
    for module in ("modular.py", "quantum.py"):
        assert not _called_names(trees[module]) & {"orbit_partition", "integer_actions"}, module


def test_cli_reads_no_report_encoding():
    read = {node.attr for node in ast.walk(_trees()["cli.py"])
            if isinstance(node, ast.Attribute)}
    assert not read & {"eta_code", "lam_code", "numerators"}


def test_block_walks_sort_nothing_and_take_no_key():
    # the points are walked in key order, so each orbit's first point is
    # its least: no key callback and no sort in the walk
    defs = {node.name: node for node in _trees()["weyl.py"].body
            if isinstance(node, ast.FunctionDef)}
    for name in ("orbit_partition", "block_orbits"):
        params = {a.arg for a in ast.walk(defs[name].args) if isinstance(a, ast.arg)}
        assert "key" not in params, name
        assert not _called_names(defs[name]) & {"sorted", "sort", "list"}, name


def test_each_matrix_is_reduced_outside_loops():
    # solve_linear reduces its matrix once and returns the solver for every
    # right-hand side, so no production module calls it per iteration
    loops = (ast.For, ast.While, ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
    trees = _trees()
    assert "solve_linear" in _called_names(trees["rootdata.py"])
    for name, tree in trees.items():
        if name != "selftest.py":
            for node in ast.walk(tree):
                if isinstance(node, loops):
                    assert "solve_linear" not in _called_names(node), (name, node.lineno)


# the matrix elements weyl.py keeps for perfbench/tracer.py and
# perfbench/selfcheck.py, which bind them by name
MATRIX_KEPT = {"WeylElement", "_matmul", "_identity_matrix", "identity",
               "simple_reflection", "generated_group", "enumerate_group"}
MATRIX_NAMES = {"WeylElement", "word_element", "identity", "simple_reflection",
                "apply_root", "act_torus_exponents", "_matmul"}


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_production_builds_no_matrix_weyl_element():
    # a Weyl element acts through its word: on roots by rs.reflect, on torus
    # exponents by the rank-one maps of integer_actions
    trees = _trees()
    for module in ("cli.py", "modular.py", "quantum.py"):
        assert not _referenced_names(trees[module]) & MATRIX_NAMES, module
    weyl = [node for node in trees["weyl.py"].body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name in MATRIX_KEPT)]
    assert {node.name for node in trees["weyl.py"].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))} >= MATRIX_KEPT
    for node in weyl:
        assert not _referenced_names(node) & MATRIX_NAMES, getattr(node, "name", node.lineno)
