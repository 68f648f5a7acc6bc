"""The test suite's own set-up: a failing property test shows its example."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    # the project's pytest settings, warnings as errors included, and this conftest
    (tmp_path / "test_generated.py").write_text(FAILING_PROPERTY)
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
