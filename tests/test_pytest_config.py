"""The suite's own pytest settings.

`pyproject.toml` turns every warning into an error.  A failing `@given` test
makes hypothesis import its patch writer, whose libcst import warns that
`mypy_extensions.TypedDict` is deprecated; as an error, raised inside a
pytest hook, that warning used to end the whole run in INTERNALERROR.
"""

import pathlib
import subprocess
import sys

_PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

_FILE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 5


def test_a_warning_is_still_an_error():
    warnings.warn("any other warning", UserWarning)


def test_a_later_test():
    assert True
'''


def test_a_failing_property_test_is_one_failure_and_later_tests_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "FAILED test_probe.py::test_a_failing_property" in proc.stdout
    assert "FAILED test_probe.py::test_a_warning_is_still_an_error" in proc.stdout
    assert "2 failed, 1 passed" in proc.stdout
