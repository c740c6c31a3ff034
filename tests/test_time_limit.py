"""The per-test time limit of tests/conftest.py: an endless loop fails, fast."""
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path
from time import monotonic

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_TIME_LIMIT_S, TimeLimitExceeded, time_limit

TESTS = Path(__file__).resolve().parent


def test_an_endless_loop_fails_within_its_limit_and_the_outer_limit_is_restored():
    handler = signal.getsignal(signal.SIGALRM)
    started = monotonic()
    with pytest.raises(TimeLimitExceeded, match="time limit of 0.2 s"):
        with time_limit(0.2):
            while True:
                pass
    assert monotonic() - started < 3.0
    # This test's own limit, armed by the autouse fixture, runs on.
    assert signal.getsignal(signal.SIGALRM) is handler
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= TEST_TIME_LIMIT_S


def test_hypothesis_does_not_replay_an_endless_example():
    @settings(max_examples=50, deadline=None, database=None)
    @given(st.integers(0, 100))
    def spin(x):
        while x > 5:
            pass

    started = monotonic()
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            spin()
    assert monotonic() - started < 3.0


def test_an_overrunning_test_fails_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_spin.py").write_text(textwrap.dedent("""\
        import pytest

        from conftest import time_limit


        @pytest.fixture(autouse=True)
        def limit():
            with time_limit(0.3):
                yield


        def test_spins():
            while True:
                pass


        def test_runs_after():
            pass
        """))
    started = monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path / "test_spin.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])},
    )
    assert monotonic() - started < 20.0
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "TimeLimitExceeded" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
