"""The wall-clock bound of tests/conftest.py is armed inside a running test.

The timer has at most 30 s left, and the SIGALRM handler raises something
that no `except Exception` can catch, naming the test that ran too long.
"""

import signal

import pytest


def test_a_running_test_is_under_the_30_s_bound(request):
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= 30
    assert interval == 0  # one shot per test
    with pytest.raises(BaseException) as info:
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
    assert not isinstance(info.value, Exception)
    assert request.node.nodeid in str(info.value)
