"""The package's public export list, its `python -m` entry point and the
test suite's own warning filters."""

import os
import subprocess
import sys

import semiheat


def test_every_exported_name_resolves():
    missing = [n for n in semiheat.__all__ if not hasattr(semiheat, n)]
    assert missing == []


def test_python_m_semiheat_runs_the_cli():
    src = os.path.dirname(os.path.dirname(semiheat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "semiheat",
                           "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: semiheat" in proc.stdout
    assert proc.stderr == ""


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_session_goes_on(
        tmp_path):
    # under the project's pytest configuration, where warnings are
    # errors, a failing @given example has hypothesis's report hook
    # import libcst, whose DeprecationWarning must not abort the session
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    test = tmp_path / "test_failing_property.py"
    test.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(root, "pyproject.toml"), str(test)],
        cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
