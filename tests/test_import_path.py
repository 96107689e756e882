"""`import lieram` loads only the root-data core (errors and rootdata); the
finite fields (scalars) and the Weyl, modular and quantum layers load when
one of their public names is first read, and a CLI command loads only its
own group's layer: a modular command never loads quantum, nor a quantum or
verify command modular or the finite fields.  The brute-force oracles live only in lieram.selftest,
which neither `import lieram` nor the CLI module loads, and the production
modules call none of the single-root or closure oracles.  The block walks generate their
integer points directly, through neither the ell-fiber of torus elements nor
the list of weights of Lambda_chi, and both sides walk through the one shared
weyl.block_list, which walks the points in key order and so sorts
nothing, nor does the memo that keeps its walks; the CLI reads no block report's integer layout.  Each matrix is
reduced once: no production module calls the solver from a loop.  A Weyl
element is its word in production: no production module builds or applies
a matrix element.  Stab_W(chi) = W(Phi') is checked by a selftest oracle,
not walked per query: orbit_of serves only the block partition and the
group closure.  The quantum side runs on integer numerators: epsilon enters
once, in quantum.hc_shift, and the epsilon form of the Delta-tilde test is
an oracle.  The CLI resolves and checks every subcommand's inputs in one
front end, before the command runs: check_cartan_type once, and the root
system built from the components it returns.  A type's Cartan matrix is built in one
place: rootdata.cartan_matrix builds the Dynkin edges, which the per-type
table of weyl_invariants does not hold, and the root systems, the dominant
ascent of rootdata.highest_root and the classifier's check take their
matrices from it.  The Weyl kernels take one
coefficient per coordinate: no function takes a slot width, and the
modular side builds no flat full-width code of its values.  A subsystem's
components are decided once, by the classifier, in one pass over its basis:
the finite-type verdict reads the two classified component lists and
classifies nothing, and a Subsystem keeps no per-component root sets.
What a root system, a subsystem or a field derives once is a cached
property of that object, with no None sentinel: no production function
writes another object's private attribute, and the block walk keeps no
classification cache beside the subsystem memo.  A modular weight is the
tuple of its field values: no module defines a weight class, rho as a
weight or a by-name or eta-side twin of a probe, and the modular
unramified, finite-type and poincare commands reach their answers through
the slot probes unramified_on_slots, finite_type_on_slots and
poincare_on_slots alone, on the slot vectors the CLI parses its literals
into; block_unramified, block_finite_type and poincare_series are those
probes behind modular._slots, so each verdict has one body."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import lieram
from lieram import rootdata

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lieram"

ORACLES = {
    "root_reflection", "subgroup_elements", "is_reduced", "stabilizer_bruteforce",
    "burnside_count", "min_coset_reps", "act_modular", "pair", "close_up",
    "root_value", "steinberg_fiber_point", "ell_fiber", "orbit_partition_by_key",
    "matrix_inversions", "dot_act_torus", "_delta_tilde_test",
    "enumerate_lambda_chi", "irreducible_by_rabin", "finite_type_by_closure",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _called_names(tree):
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def _fresh(probe):
    # the stdout of `probe` run in a fresh interpreter on this checkout's src/
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_lieram_and_cli_does_not_load_selftest():
    out = _fresh("import sys, lieram, lieram.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('lieram')))")
    assert "'lieram.cli'" in out
    assert "lieram.selftest" not in out


# the public names of the package, by the module that defines each
PUBLIC = {
    "errors": {"BoundExceeded", "HypothesisFailure", "InvalidSupport", "InvalidType",
               "InvariantViolation", "LieramError", "NoParabolicConjugate",
               "NonInvertibleDenominator", "NonPrime", "NotClosed", "NotNilpotentContext",
               "NotParabolic", "UnknownRow"},
    "scalars": {"FFElem", "FieldDescriptor", "artin_schreier_solve", "make_field"},
    "rootdata": {"RootSystem", "Subsystem", "build_root_system", "hypothesis_check",
                 "subsystem_classify", "two_rho_dot"},
    "weyl": {"UnityExp", "alcove_descent", "inversion_set", "orbit_partition",
             "reflection_stabilizer"},
    "modular": {"BlockReport", "PChar", "dim_C", "mod_blocks", "poincare_series",
                "regularity_and_structure", "unramified_count"},
    "quantum": {"QBlockReport", "QChar", "TorusElement", "eps_pow", "exceptional_elements",
                "hc_shift",
                "q_blocks", "q_regularity_and_counts", "q_unramified", "simplicity_necessary",
                "verify_appendix_row", "w_t"},
}


# the 33 Cartan types of the benchmark's quantum workload, A1 up to E8
QUANTUM_TYPES = [f"{letter}{n}" for letter, ranks in (
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(3, 9)),
    ("E", range(6, 9)), ("F", (4,)), ("G", (2,))) for n in ranks]


def test_import_lieram_and_set_up_load_only_the_root_data_core():
    # a module-level import of a later layer in rootdata would put its
    # compile cost back on every set-up; the quantum set-up (its root
    # systems up to E8) compiles no finite-field code
    out = _fresh(f"import sys, lieram; [lieram.build_root_system(t) for t in {QUANTUM_TYPES!r}]; "
                 "print(sorted(m for m in sys.modules if m.startswith('lieram')))")
    assert out == "['lieram', 'lieram.errors', 'lieram.rootdata']\n"
    # the modular set-up builds its fields, which loads them alone
    out = _fresh("import sys, lieram; lieram.make_field(5, 2); "
                 "print(sorted(m for m in sys.modules if m.startswith('lieram')))")
    assert out == "['lieram', 'lieram.errors', 'lieram.rootdata', 'lieram.scalars']\n"
    out = _fresh("import sys, lieram; print(lieram.quantum is sys.modules['lieram.quantum'])")
    assert out == "True\n"
    # the core's public names are bound when the package loads, not on first
    # read; dir() lists the layers and their names before they load
    bound, listed = _fresh("import lieram; print(*vars(lieram)); print(*dir(lieram))").splitlines()
    assert set(bound.split()) >= PUBLIC["errors"] | PUBLIC["rootdata"]
    assert not set(bound.split()) & {"scalars", "weyl", "modular", "quantum", *PUBLIC["scalars"]}
    assert set(listed.split()) >= set().union(PUBLIC, *PUBLIC.values())


MODULAR, QUANTUM = ["modular", "scalars", "weyl"], ["quantum", "weyl"]

# an argv of each leaf of cli.GRAMMAR but selftest, which loads every layer,
# with the layers it loads
LEAF_ARGVS = [
    (["modular", "poincare", "--type", "A2", "--p", "5", "--weight", "0,0"], MODULAR),
    (["modular", "blocks", "--type", "A2", "--p", "5"], MODULAR),
    (["quantum", "unramified", "--type", "A2", "--ell", "5", "--torus", "0,0"], QUANTUM),
    (["quantum", "exceptional", "--type", "G2"], QUANTUM),
    (["verify", "appendix", "--type", "G2"], QUANTUM),
    (["modular", "unramified", "--type", "A2", "--p", "5", "--weight", "0,0"], MODULAR),
    (["modular", "finite-type", "--type", "A2", "--p", "5", "--weight", "0,0"], MODULAR),
    (["modular", "structure", "--type", "A2", "--p", "5"], MODULAR),
    (["quantum", "blocks", "--type", "A2", "--ell", "5", "--chi-s", "0,1/2"], QUANTUM),
    (["quantum", "simplicity", "--type", "A2", "--ell", "5", "--torus", "0,0"], QUANTUM),
    (["quantum", "structure", "--type", "A2", "--ell", "5"], QUANTUM),
]


def test_every_leaf_but_selftest_has_an_argv():
    from lieram import cli
    assert sorted(tuple(argv[:2]) for argv, _ in LEAF_ARGVS) == sorted(
        set(cli.GRAMMAR) - {("selftest",)})


@pytest.mark.parametrize("argv, layers", LEAF_ARGVS)
def test_a_cli_command_loads_only_its_own_layer(argv, layers):
    # a modular command never compiles quantum.py, nor a quantum or verify
    # one modular.py or the finite fields of scalars.py
    out = _fresh("import sys; from lieram import cli; "
                 f"rc = cli.main({argv!r}); sys.stdout.flush(); "
                 "print(rc, sorted(m[7:] for m in sys.modules if m.startswith('lieram.')))")
    assert out.splitlines()[-1] == f"0 {sorted(['cli', 'errors', 'rootdata', *layers])}"


def test_every_public_name_is_its_modules_own():
    assert sum(map(len, PUBLIC.values())) == 47
    assert sorted(lieram.__all__) == sorted(set().union(*PUBLIC.values()))
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"lieram.{module}")
        assert getattr(lieram, module) is owner
        for name in names:
            assert getattr(lieram, name) is getattr(owner, name), name
    assert set(dir(lieram)) >= set(lieram.__all__)
    star = {}
    exec("from lieram import *", star)
    assert set(star) - {"__builtins__"} == set(lieram.__all__)
    with pytest.raises(AttributeError):
        lieram.no_such_name


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
    # the public entry points, with the lists they make on their walks
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
    # its least: no key callback and no sort in the walk, nor in the memo
    # that keeps the walks (with their block lists) in order of use
    body = _trees()["weyl.py"].body
    defs = {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    (memo,) = [node for node in body
               if isinstance(node, ast.ClassDef) and node.name == "_LRU"]
    defs.update((f"_LRU.{node.name}", node) for node in memo.body
                if isinstance(node, ast.FunctionDef))
    for name in ("orbit_partition", "block_list", "_walk_skeleton", "_LRU.get",
                 "_LRU.clear"):
        params = {a.arg for a in ast.walk(defs[name].args) if isinstance(a, ast.arg)}
        assert "key" not in params, name
        assert not _called_names(defs[name]) & {"sorted", "sort", "list"}, name


def test_weyl_kernels_take_one_coefficient_per_coordinate():
    # the reflections are F_p-linear, so no kernel takes a slot count: the
    # CLI parses literals into slot vectors, modular._slots splits the
    # F_{p^e} values of the API into their e coefficient slots, both for
    # modular._pairings, and no flat full-width code of the values is built
    trees = _trees()
    widths = [(name, node.name) for name, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.AsyncFunctionDef))
              for a in ast.walk(node.args) if isinstance(a, ast.arg) and a.arg == "width"]
    assert widths == []
    assert "_code" not in {node.name for node in ast.walk(trees["modular.py"])
                           if isinstance(node, ast.FunctionDef)}


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
# perfbench/selfcheck.py, which bind them by name, with word_element, the
# one builder of an element, which the oracles in selftest.py call
MATRIX_KEPT = {"WeylElement", "_matmul", "word_element", "identity",
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


def _calls_of(node, name):
    return sum(isinstance(sub, ast.Call)
               and (sub.func.id if isinstance(sub.func, ast.Name)
                    else getattr(sub.func, "attr", None)) == name
               for sub in ast.walk(node))


def test_no_query_walks_the_orbit_of_chi():
    # the identity |W.chi| |W(Phi')| = |W| is the selftest oracle
    # walked_orbit_times_levi_is_w; production neither defines nor calls the
    # per-query check_stabilizer, and every production call of orbit_of lies
    # in orbit_partition or generated_group
    callers = set()
    for name, tree in _trees().items():
        if name == "selftest.py":
            continue
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert "check_stabilizer" not in {node.name for node in defs}, name
        assert "check_stabilizer" not in _called_names(tree), name
        allowed = [node for node in defs
                   if name == "weyl.py" and node.name in ("orbit_partition", "generated_group")]
        assert _calls_of(tree, "orbit_of") == sum(_calls_of(node, "orbit_of") for node in allowed), name
        callers |= {node.name for node in allowed if _calls_of(node, "orbit_of")}
    assert callers == {"orbit_partition", "generated_group"}


def _callers(tree, name):
    # the names of the top-level functions and classes whose bodies call `name`
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _calls_of(node, name)}


def test_epsilon_enters_the_quantum_side_once():
    # alpha(u) = alpha(t) eps^{(rho, alpha)} at u = hc_shift(t), so every
    # epsilon condition is an integer test at u; rationals and roots of
    # unity are built only where a point is parsed or viewed, in the matrix
    # WeylElement kept for perfbench and the UnityExp beside it, in eps_pow
    # (hc_shift adds the numerators of the Fractions eps_pow returns, which
    # _shifts keeps for it alone), and where the one exact solver returns
    # its solutions over Q
    trees = _trees()
    production = {name: tree for name, tree in trees.items() if name != "selftest.py"}
    for name, tree in production.items():
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"act_torus", "hc_shift_vector"}, name
        assert _callers(tree, "eps_pow") == ({"_shifts"} if name == "quantum.py" else set()), name
        assert _callers(tree, "_shifts") == ({"hc_shift"} if name == "quantum.py" else set()), name
        if name != "rootdata.py":
            assert _calls_of(tree, "two_rho_dot") == 0, name
    built = {name: _callers(tree, "Fraction") | _callers(tree, "UnityExp")
             for name, tree in production.items()}
    assert built == {**{name: set() for name in built},
                     "quantum.py": {"TorusElement", "eps_pow"},
                     "rootdata.py": {"solve_linear"},
                     "weyl.py": {"WeylElement", "UnityExp"}}
    (torus,) = [node for node in trees["quantum.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "TorusElement"]
    assert {node.name for node in torus.body if isinstance(node, ast.FunctionDef)
            and (_calls_of(node, "Fraction") or _calls_of(node, "UnityExp"))} == {"__init__", "exps"}


# what resolves or checks a subcommand's inputs in the CLI
FRONT_END = {"check_cartan_type", "root_system", "_bounds", "parse_field_slots",
             "parse_torus", "parse_support", "check_hypotheses", "check_root_of_unity",
             "PChar", "QChar"}


def test_the_cli_resolves_inputs_in_one_front_end():
    # main calls cli._resolve once, before it dispatches; no command rebuilds
    # an input, a weight or a torus element; the literals are parsed once,
    # into slot vectors, and parse_field_values, the same parse as field
    # values for the API, is called by no CLI function
    tree = _trees()["cli.py"]
    for name in FRONT_END - {"parse_field_slots"}:
        assert _callers(tree, name) == {"_resolve"}, name
    assert _callers(tree, "parse_field_slots") == {"_resolve", "parse_field_values"}
    assert _callers(tree, "parse_field_values") == set()
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _calls_of(defs["main"], "_resolve") == 1
    commands = [node for name, node in defs.items() if name.startswith("cmd_")]
    assert len(commands) == 12
    for node in commands:
        assert not _called_names(node) & (FRONT_END | {"ModWeight", "TorusElement",
                                                        "parse_cartan_type",
                                                        "parse_field_values"}), node.name


def test_one_function_builds_a_types_cartan_matrix():
    # the Dynkin edges are built in cartan_matrix, their one reader; the
    # per-type table holds none
    trees = _trees()
    assert not [sub for tree in trees.values() for sub in ast.walk(tree)
                if isinstance(sub, ast.Attribute) and sub.attr == "edges"]
    assert rootdata.WeylInvariants._fields == ("d", "degrees", "index")
    assert _callers(trees["rootdata.py"], "cartan_matrix") == {"RootSystem", "highest_root",
                                                               "_classify_component"}


def test_subsystem_components_are_decided_once_in_the_classifier():
    trees = _trees()
    rd = {node.name: node for node in trees["rootdata.py"].body
          if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {node.name for node in rd["Subsystem"].body if isinstance(node, ast.FunctionDef)}
    assert not methods & {"component_roots", "coxeter_components"}
    assert not [node for node in ast.walk(rd["_classify"]) if isinstance(node, ast.While)]
    (verdict,) = [node for node in trees["modular.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_finite_type"]
    assert [a.arg for a in verdict.args.args] == ["small", "big", "assume_unique_simple"]
    assert not _called_names(verdict) & {"subsystem_classify", "reflection_stabilizer",
                                         "close_up"}


# the data each class derives once, as a functools.cached_property of its own
CACHED_BY_OWNER = {
    ("rootdata.py", "RootSystem"): {"fundamental_weights", "rho_weight_pairs", "sum_triples"},
    ("rootdata.py", "Subsystem"): {"is_parabolic", "height_steps", "coset_poincare"},
    ("scalars.py", "FieldDescriptor"): {"frobenius_rows", "trace_form", "generator",
                                        "as_solver"},
    ("weyl.py", "WeylElement"): {"length", "_value_rows", "_torus_rows"},
}


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _is_private_of_self(node):
    return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_derived_data_is_cached_by_its_owner():
    # no None sentinel: an owner neither tests `self._x is None` nor sets an
    # attribute to None at construction; each derived value is a
    # cached_property of the class it comes from
    trees = _trees()
    for (module, name), cached in CACHED_BY_OWNER.items():
        (cls,) = [node for node in trees[module].body
                  if isinstance(node, ast.ClassDef) and node.name == name]
        methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        assert {m.name for m in methods if any(
            "cached_property" in _referenced_names(d) for d in m.decorator_list)} == cached, name
        for method in methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Compare) and any(
                        isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                    operands = [node.left, *node.comparators]
                    assert not (any(map(_is_private_of_self, operands))
                                and any(map(_is_none, operands))), (name, method.name)
                if method.name == "__init__" and isinstance(node, ast.Assign):
                    assert not (_is_none(node.value) and any(
                        isinstance(t, ast.Attribute) for t in node.targets)), name


def test_no_production_function_writes_anothers_private_attribute():
    # a derived value is stored by its owner (artin_schreier_solve reads the
    # field's as_solver); a store into a memo by subscript is not such a write
    for module, tree in _trees().items():
        if module != "selftest.py":
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and node.attr.startswith("_")):
                    assert isinstance(node.value, ast.Name) and node.value.id == "self", (
                        module, node.lineno, ast.unparse(node))


def test_the_block_walk_keeps_no_cache_of_its_own():
    # the subsystem memo of the root system classifies each stabiliser once
    (walk,) = [node for node in _trees()["weyl.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "_walk_skeleton"]
    assert not any("cache" in name for name in _referenced_names(walk))
    assert "subsystem_classify" in _called_names(walk)


# the weight class, rho as a weight, the by-name unramified test and the
# eta-side finite-type verdict that the tuple-valued probes replaced
RETIRED = {"ModWeight", "rho_weight", "is_unramified", "finite_type_verdict"}


def test_a_modular_weight_is_its_tuple_of_values():
    trees = _trees()
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & RETIRED
    assert not set(vars(lieram)) & RETIRED
    modular = {node.name: node for node in trees["modular.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    commands = {node.name: node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef)}
    for command, api, probe in (
            ("cmd_modular_unramified", "block_unramified", "unramified_on_slots"),
            ("cmd_modular_finite_type", "block_finite_type", "finite_type_on_slots"),
            ("cmd_modular_poincare", "poincare_series", "poincare_on_slots")):
        assert _called_names(commands[command]) & set(modular) == {probe}, command
        # the probe on field values is the slot probe behind _slots
        assert _called_names(modular[api]) == {"_slots", probe}, api
