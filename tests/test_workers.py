"""workers.in_worker: one function run in a forked worker when fork and a
second CPU are available, else inline at job.result().

Every test of the `path` fixture runs on both paths (the CPU check is
patched), and each test ends with no child process left behind.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from xlembed import workers
from xlembed.workers import in_worker

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "inline"])
def path(request, monkeypatch):
    if request.param == "forked" and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(workers, "_two_cpus", lambda: request.param == "forked")
    yield request.param
    _no_child_left()


@pytest.fixture
def forked(monkeypatch):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(workers, "_two_cpus", lambda: True)
    yield
    _no_child_left()


class Flagged(UserWarning):
    pass


def _warn_twice(value):
    warnings.warn("first", UserWarning)
    warnings.warn("second", Flagged)
    return value


def _fail(message):
    raise ValueError(message)


def test_value_and_where_it_ran(path):
    calls = []

    def pid_and_calls(tag):
        calls.append(tag)
        return os.getpid(), tag

    with in_worker(pid_and_calls, "x", what="probe") as job:
        assert calls == []  # inline, fn runs at result()
        pid, tag = job.result()
    assert tag == "x"
    if path == "forked":
        assert pid != os.getpid() and calls == []
    else:
        assert pid == os.getpid() and calls == ["x"]


def test_ndarray_result_is_writeable_contiguous_and_equal(path):
    a = np.random.default_rng(0).standard_normal((300, 7))
    empty = np.zeros((0, 5))
    with in_worker(lambda: (a, np.asfortranarray(a), empty), what="arrays") as job:
        got, fortran, got_empty = job.result()
    assert got.flags.writeable and got.flags.c_contiguous
    assert got.dtype == a.dtype and got.shape == a.shape
    assert got.tobytes() == a.tobytes()
    assert fortran.flags.writeable and np.array_equal(fortran, a)
    assert got_empty.shape == (0, 5)
    got[0, 0] = 1.0  # the buffer is this process's own


def test_warnings_in_order(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with in_worker(_warn_twice, 3, what="warns") as job:
            warnings.warn("parent", UserWarning)
            assert job.result() == 3
    got = [(w.category, str(w.message)) for w in caught]
    assert got == [(UserWarning, "parent"), (UserWarning, "first"), (Flagged, "second")]
    assert all(w.filename == __file__ for w in caught)


def test_warnings_meet_the_filters_in_place(path):
    def shown(action):
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            warnings.simplefilter(action)
            warnings.filterwarnings("ignore", category=Flagged, module=__name__)
            with in_worker(_warn_twice, 0, what="warns") as job:
                _warn_twice(0)
                job.result()
        return [str(w.message) for w in caught]

    # once per place: the worker's warnings were already shown from here
    assert shown("default") == ["first"]
    assert shown("always") == ["first", "first"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", Flagged)
        with pytest.raises(Flagged, match="second"):
            with in_worker(_warn_twice, 0, what="warns") as job:
                job.result()


def test_exception_is_raised_after_its_warnings(path):
    def warn_then_fail():
        warnings.warn("before", UserWarning)
        _fail("boom")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^boom$"):
            with in_worker(warn_then_fail, what="fails") as job:
                job.result()
    assert [str(w.message) for w in caught] == ["before"]


def test_error_in_the_block_leaves_no_worker(path):
    start = time.monotonic()
    with pytest.raises(KeyError):
        with in_worker(time.sleep, 60, what="sleeps"):
            raise KeyError("parent")
    assert time.monotonic() - start < 30


@pytest.mark.parametrize(
    "end, how",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"killed by signal {signal.SIGKILL.value}"),
        (lambda: os._exit(3), "exit status 3"),
    ],
)
def test_worker_that_dies_names_what(forked, end, how):
    with pytest.raises(RuntimeError) as err:
        with in_worker(end, what="counting part two") as job:
            job.result()
    assert str(err.value) == (
        f"counting part two: the worker ended without a result ({how})"
    )


class _KilledWhilePickled:
    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_worker_killed_while_sending_names_what(forked):
    """The array goes into the pipe first, so the stream ends part way."""
    big = np.ones((1000, 300))
    with pytest.raises(RuntimeError) as err:
        with in_worker(lambda: (big, _KilledWhilePickled()), what="sending") as job:
            job.result()
    assert str(err.value) == (
        "sending: the worker ended without a result "
        f"(killed by signal {signal.SIGKILL.value})"
    )


def test_uncollected_worker_is_killed(forked):
    start = time.monotonic()
    with in_worker(time.sleep, 60, what="sleeps"):
        pass
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("threads", [False, True])
def test_fork_resets_the_warning_registries_only_behind_threads(
    forked, threads
):
    # The id is kept from when a fork behind threads on Python >= 3.12
    # entered catch_warnings and so reset the once-per-place registries. No
    # fork resets them now: a warning shown before a fork is not shown again
    # in either case. Python < 3.12 issues no fork warning, so there both
    # cases check only that a fork leaves the registries alone; from 3.12
    # the threads=True fork also warns and meets the filter that importing
    # workers installs (re-added here after resetwarnings). That this
    # warning is really issued is checked by
    # test_fork_behind_threads_warns_without_the_filter.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if threads:
        thread.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            warnings.simplefilter("default")
            warnings.filterwarnings("ignore", **workers._FORK_WARNING)
            _warn_twice(0)
            with in_worker(int, what="nothing") as job:
                _warn_twice(0)
                job.result()
    finally:
        stop.set()
        if threads:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(caught) == 2
    assert [str(w.message) for w in caught] == ["first", "second"]


def test_fork_warning_filter_is_narrow():
    message = (
        f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
        f"may lead to deadlocks in the child."
    )

    def shown(text, module):
        with warnings.catch_warnings(record=True) as caught:
            warnings.resetwarnings()
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", **workers._FORK_WARNING)
            warnings.warn_explicit(
                text, DeprecationWarning, workers.__file__, 1, module=module
            )
        return len(caught)

    assert shown(message, "xlembed.workers") == 0
    assert shown(message, "xlembed.workersx") == 1
    assert shown(message, "xlembed.pipeline") == 1
    assert shown("another deprecation", "xlembed.workers") == 1


def _fork_behind_threads(*setup):
    """A fresh process (pytest restores the filters it started with, so the
    filter of an import made during collection is gone here) imports
    workers, runs `setup`, and forks a worker while a thread runs, with
    `-W always::DeprecationWarning`: the finished process."""
    code = "\n".join([
        "import threading, warnings",
        "from xlembed import workers",
        *setup,
        "workers._two_cpus = lambda: True",
        "stop = threading.Event()",
        "thread = threading.Thread(target=stop.wait)",
        "thread.start()",
        "with workers.in_worker(int, '7', what='nothing') as job:",
        "    assert job.result() == 7",
        "stop.set()",
        "thread.join()",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_fork_behind_threads_shows_no_deprecation_warning():
    res = _fork_behind_threads()
    assert (res.returncode, res.stderr) == (0, "")


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="fork warns behind threads from 3.12"
)
def test_fork_behind_threads_warns_without_the_filter():
    # the warning the filter hides is really issued: with the filters reset
    # after the import, the same fork shows it
    res = _fork_behind_threads(
        "warnings.resetwarnings()",
        "warnings.simplefilter('always', DeprecationWarning)",
    )
    assert res.returncode == 0, res.stderr
    assert "DeprecationWarning: This process (pid=" in res.stderr
    assert "is multi-threaded, use of fork()" in res.stderr
