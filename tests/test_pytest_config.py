import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_example_is_reported_as_a_failure(tmp_path):
    # under this project's warning filters, the hook that reports a failing
    # example must not end the session before the next test runs
    (tmp_path / "test_given.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
