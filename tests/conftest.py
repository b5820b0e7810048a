"""One wall-clock bound for every test in this directory.

An autouse fixture arms a one-shot SIGALRM timer of BOUND_S seconds around
each test and disarms it afterwards, restoring the previous handler.  A test
still running when it fires fails with BoundExpired, which names the test and
the bound, and the run goes on to the next test.  The slowest test takes
about 2 s on a 2-vCPU VM, so the bound is generous; it turns a hang (say, a
row operation that never advances a pivot column) into a failure.

BoundExpired derives from BaseException, not Exception, so the tests'
`except Exception` helpers and the library's `except OSError` (TimeoutError
is an OSError) cannot swallow it.
"""

import signal

import pytest

BOUND_S = 30


class BoundExpired(BaseException):
    """A test ran past BOUND_S seconds of wall-clock time."""


@pytest.fixture(autouse=True)
def wall_clock_bound(request):
    def expire(signum, frame):
        raise BoundExpired(f"{request.node.nodeid} ran past its {BOUND_S}-s bound")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
