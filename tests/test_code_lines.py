"""tools/code_lines.py counts a module's lines and its code lines: not
blank, not only a comment, not part of a docstring.  Every line of a
statement that spans lines is code, and so is every line of a string that
is not a docstring."""

import importlib.util
import os
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURE = textwrap.dedent('''\
    """A module docstring
    on two lines."""

    # a comment line

    import os  # code with a trailing comment


    def f(x):
        """A function docstring."""
        return os.path.join(
            x,
            "y",
        )


    TEXT = """not a docstring,
    but a string on two lines"""
    ''')


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(code_lines):
    # code: the import, def, the four lines of the call, the two of TEXT
    assert code_lines.count(FIXTURE) == (18, 8)


def test_the_totals_leave_selftest_out_once(code_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "selftest.py").write_text("x = 1\n\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "    18      8  a.py",
        "     2      1  selftest.py",
        "    20      9  total",
        "    18      8  total without selftest.py",
    ]


@pytest.mark.parametrize("args", [["--help"], ["no-such-dir"], ["a.py"], [".", "."]])
def test_anything_but_one_directory_prints_the_usage_and_exits_2(
        code_lines, tmp_path, monkeypatch, capsys, args):
    # a mistyped path is an error, not an empty package of 0 lines
    (tmp_path / "a.py").write_text(FIXTURE)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        code_lines.main(args)
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", "usage: python3 tools/code_lines.py [DIR]\n")
