"""The project's pytest settings survive a failing property test.

``pyproject.toml`` turns every DeprecationWarning into an error. When a
hypothesis test fails, hypothesis's failure report imports libcst, which
imports ``mypy_extensions.TypedDict`` and so warns; unfiltered, that warning
aborts the whole session with INTERNALERROR and every later result is lost.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_two.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
