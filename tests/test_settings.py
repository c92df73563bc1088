"""The repository's pytest settings turn every warning into an error, yet a
failing hypothesis test fails alone and the tests after it still run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # reporting the failing example imports libcst, whose use of
    # mypy_extensions.TypedDict warns; turned into an error, that warning
    # stopped the run with an INTERNALERROR (exit 3) and left test_passes unrun
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "INTERNALERROR" not in out
