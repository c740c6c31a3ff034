import signal
from contextlib import contextmanager
from time import monotonic

import pytest

from kquadric import QuadricGraph

# Every test fails once it has run this long, so a computation that never ends
# (say, a division whose fill is never capped) fails the suite instead of
# hanging it.  The slowest test takes about 9 s; the limit leaves room for a
# machine several times slower.
TEST_TIME_LIMIT_S = 60.0


class TimeLimitExceeded(BaseException):
    """Raised by `time_limit`.  Not an `Exception`, so that no `except
    Exception` in the code under test swallows it and hypothesis does not
    replay the example to shrink it with no timer armed."""


@contextmanager
def time_limit(seconds: float):
    """Raise `TimeLimitExceeded` in the block once it has run `seconds`.

    Uses SIGALRM and the real-time interval timer, so it starts no thread or
    process; the previous handler and the remainder of any previous timer are
    restored on exit, so limits nest."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after the time limit of {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    started = monotonic()
    outer_delay, outer_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (monotonic() - started)
            # An outer limit that ran out meanwhile fires at once, not never.
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-3), outer_interval)


@pytest.fixture(autouse=True)
def _test_time_limit():
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def q1():
    return QuadricGraph(1)


@pytest.fixture(scope="session")
def q2():
    return QuadricGraph(2)


@pytest.fixture(scope="session")
def q3():
    return QuadricGraph(3)
