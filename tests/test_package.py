"""The package's public export list and its `python -m` entry point."""

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
    proc = subprocess.run([sys.executable, "-m", "semiheat", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: semiheat" in proc.stdout
