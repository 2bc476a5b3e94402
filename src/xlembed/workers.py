"""One function run in a forked worker while this process does other work.

    with in_worker(fn, *args, what="...") as job:
        ...                   # this process's share of the work
        value = job.result()  # fn(*args), as if called here

When the process can fork and may use at least 2 CPUs, entering the block
forks a worker that calls fn(*args); otherwise job.result() calls fn(*args)
in this process. Either way result() returns what fn returned, issues the
warnings fn issued, in order and at their original place (so the filters
decide as for a call made here), and raises what fn raised. A worker that
ends without a result makes result() raise a RuntimeError naming `what`.
Leaving the block kills a worker whose result was never collected, and
always reaps it.

The worker sends its result through a pipe: a protocol-5 pickle whose
out-of-band buffers (e.g. ndarray data) follow it raw and are read straight
into preallocated memory, so a returned array is not copied again.
Nothing here imports numpy.
"""

import gc
import os
import pickle
import signal
import sys
import warnings
from contextlib import suppress


# Python >= 3.12 warns that forking a process with threads (e.g. BLAS's)
# may deadlock the child. A worker runs only `fn` and ends in os._exit, so
# one process-wide filter, installed once at import, ignores that warning
# for this module's forks only; a filter entered around each fork would
# reset every module's once-per-place warning registry.
_FORK_WARNING = dict(
    message=r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
    category=DeprecationWarning,
    module=r"xlembed\.workers\Z",
)
if sys.version_info >= (3, 12):
    warnings.filterwarnings("ignore", **_FORK_WARNING)


def _two_cpus() -> bool:
    """Whether this process may run on at least 2 CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def in_worker(fn, *args, what: str) -> "_Job":
    """A context manager running fn(*args) in a forked worker when it can;
    see the module docstring."""
    return _Job(fn, args, what)


class _Job:
    def __init__(self, fn, args, what):
        self._fn, self._args, self._what = fn, args, what
        self._pid = None  # the worker's, until it is reaped
        self._pipe = None

    def __enter__(self):
        if hasattr(os, "fork") and _two_cpus():
            self._start()
        return self

    def __exit__(self, *exc):
        if self._pipe is not None:
            self._pipe.close()
        if self._pid is not None:  # its result was never collected
            with suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _start(self):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _work(self._fn, self._args, write_fd)  # never returns
        os.close(write_fd)
        self._pid = pid
        self._pipe = open(read_fd, "rb")

    def result(self):
        """fn(*args): its value, warnings and exception, as described in the
        module docstring."""
        if self._pipe is None:
            return self._fn(*self._args)
        received = _receive(self._pipe)
        status = self._reap()
        if received is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(
                f"{self._what}: the worker ended without a result ({how})"
            )
        value, warned, error = received
        for message, filename, lineno in warned:
            _rewarn(message, filename, lineno)
        if error is not None:
            raise error
        return value

    def _reap(self):
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        return status


def _work(fn, args, write_fd):
    """Forked worker: call fn(*args) and send (value, warnings, error)
    through `write_fd`. Always ends the process with os._exit."""
    code = 1
    try:
        gc.disable()  # never finalize objects the parent still owns
        value = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = fn(*args)
            except Exception as exc:
                error = exc
        warned = [(w.message, w.filename, w.lineno) for w in caught]
        buffers = []
        header = pickle.dumps(
            (value, warned, error), protocol=5, buffer_callback=buffers.append
        )
        raw = [b.raw() for b in buffers]
        with open(write_fd, "wb") as pipe:
            pickle.dump((len(header), [r.nbytes for r in raw]), pipe, protocol=5)
            pipe.write(header)
            for r in raw:
                pipe.write(r)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe):
    """The worker's (value, warnings, error), or None if it ended early."""
    try:
        size, sizes = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None
    header = pipe.read(size)
    buffers = [bytearray(n) for n in sizes]
    if len(header) != size or any(pipe.readinto(b) != len(b) for b in buffers):
        return None
    return pickle.loads(header, buffers=buffers)


def _rewarn(message, filename, lineno):
    """Issue a warning the worker recorded as raised at its original place,
    in its original module and with that module's once-per-place registry,
    so the filters treat it as they would a warning raised here."""
    name, module = next(
        ((name, m) for name, m in list(sys.modules.items())
         if getattr(m, "__file__", None) == filename),
        (None, None),
    )
    registry = None
    if module is not None:
        registry = vars(module).setdefault("__warningregistry__", {})
    warnings.warn_explicit(
        message, type(message), filename, lineno, module=name, registry=registry
    )
