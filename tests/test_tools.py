"""The checked-in tools under tools/, loaded by path."""

import importlib.util
import pathlib

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

_SNIPPET = '''"""A module docstring
on two lines."""

# a comment line
def f(a, b):
    """A function docstring."""
    return max(a,
               b)   # a two-line call with a trailing comment


text = """a string that is
not a docstring"""
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path,
                                                                 capsys):
    # def, both lines of the call and both lines of the assigned string.
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)
    tool = _load("code_lines")
    assert tool.code_lines(_SNIPPET) == 5
    assert tool.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == f"     5 {path}\n     5 {path}\n    10 total\n"
