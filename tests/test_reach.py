"""tools/reach.py on a module of its own with a stubbed run list: the
functions the runs call are entered and the others listed, a decorated
function matched at its first decorator and a nested one by its own code.
The full run over the golden manifest, the selftest suites, the demos and
the benchmark rounds is not made here."""

import functools
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULE = '''\
import functools


def reached():
    return 1


def unreached():
    return 2


class Box:
    @functools.cache
    def cached(self):
        def inner():
            return 3
        return inner

    def never(self):
        return 4
'''


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reach():
    return _load(os.path.join(ROOT, "tools", "reach.py"), "reach")


def test_functions_are_named_at_the_first_line_of_their_code(reach, tmp_path):
    path = tmp_path / "probe_module.py"
    path.write_text(MODULE)
    assert reach.functions(path) == {4: "reached", 8: "unreached", 13: "Box.cached",
                                     15: "Box.cached.<locals>.inner", 19: "Box.never"}


def test_only_the_functions_no_run_enters_are_listed(reach, tmp_path):
    path = tmp_path / "probe_module.py"
    path.write_text(MODULE)
    module = _load(path, "probe_module")
    runs = [module.reached, functools.partial(module.Box.cached, module.Box())]
    assert reach.unreached([path], runs) == {
        path: [(8, "unreached"), (15, "Box.cached.<locals>.inner"), (19, "Box.never")]}
    assert reach.unreached([path], []) == {path: sorted(reach.functions(path).items())}
