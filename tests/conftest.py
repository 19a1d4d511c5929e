import os

import pytest


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or exited."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:  # not reaped here: later tests fail too until it exits
        pytest.fail("a child process is still running after the test")
    pytest.fail(f"child process {pid} exited unreaped (wait status {status})")
