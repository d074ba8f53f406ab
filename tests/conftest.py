import faulthandler
import os
import sys
from pathlib import Path

import pytest

# Make tests/helpers.py importable regardless of how pytest is invoked.
sys.path.insert(0, str(Path(__file__).parent))

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # stderr outside any test's output capture: a hung test's stacks go
    # there, since the run exits without printing what a capture holds
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """End the run, with every thread's stack, when a test not marked `slow`
    runs for 300 s, far above the slowest tier-1 test (about 7 s): a test
    that hangs, on a stopping rule that never fires say, fails the run
    instead of holding it."""
    if request.node.get_closest_marker("slow"):
        yield
        return
    faulthandler.dump_traceback_later(300, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
