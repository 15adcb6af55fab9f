"""One helper thread that shares a map with its caller.

The fleet path (:meth:`repro.core.multi.MultiVehicleAligner.align`)
turns a frame into independent work items — one stage-1 extraction per
vehicle, one pairwise recovery per candidate edge — whose kernels
(pocketfft, BLAS, numpy ufuncs) run mostly with the GIL released.
:func:`shared_map` runs such a map on the calling thread plus exactly
one long-lived helper thread: both pull item indices from one shared
queue, and the results come back in input order, so the caller sees
what ``[fn(item) for item in items]`` returns.

**One helper, not a pool.**  Every thread that allocates gets its own
glibc malloc arena, and an arena keeps the memory it freed, so each
extra thread raises peak RSS.  A two-thread executor beside an idle
caller adds two arenas; letting the caller take a share adds one.

**Where it runs.**  Only where there is a core to use: the process must
have more than one usable CPU (``os.sched_getaffinity``) and must not
be a pool worker (:func:`repro.runtime.pool.in_pool_worker`) — the
engine's and the service's pools already keep every core busy.
Everywhere else the map runs serially on the caller.  Nothing
configures this; it is what the process observes about itself.

**Telemetry.**  The helper runs each map inside a copy of the caller's
context with child telemetry (:class:`~repro.runtime.timings.\
ChildTelemetry`): its spans nest under the caller's current span, and
its metrics and stage seconds reach the caller's registry exactly once,
merged after the join.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Any, Callable, Sequence, TypeVar

from repro.runtime.pool import in_pool_worker
from repro.runtime.timings import ChildTelemetry

__all__ = ["HELPER_THREAD_NAME", "helper_available", "shared_map",
           "usable_cpus"]

HELPER_THREAD_NAME = "repro-helper"

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity masks (macOS)
        return os.cpu_count() or 1


def helper_available() -> bool:
    """Whether :func:`shared_map` may use the helper in this process."""
    return usable_cpus() > 1 and not in_pool_worker()


class _Helper:
    """The helper thread and its inbox of jobs, run one at a time."""

    def __init__(self) -> None:
        self._jobs: queue.SimpleQueue[Callable[[], None]] = \
            queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve,
                                       name=HELPER_THREAD_NAME, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self._jobs.get()()

    def submit(self, job: Callable[[], None]) -> None:
        self._jobs.put(job)


_HELPER: _Helper | None = None
_HELPER_LOCK = threading.Lock()


def _helper() -> _Helper:
    global _HELPER
    with _HELPER_LOCK:
        if _HELPER is None:
            _HELPER = _Helper()
        return _HELPER


def _forget_helper() -> None:
    """A forked child inherits the handle but not the thread."""
    global _HELPER, _HELPER_LOCK
    _HELPER = None
    _HELPER_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def shared_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``[fn(item) for item in items]``, shared with the helper thread.

    Results are in input order.  If items raise, the exception of the
    first one in input order propagates, after every item has run (they
    must not depend on one another).  Runs serially when the helper is
    unavailable, when there are fewer than two items, and when called
    from the helper itself (a nested map would wait on its own thread).
    Concurrent callers share the one helper: a caller whose job queues
    behind another's runs its items itself, then waits for the helper
    to reach its job.
    """
    items = list(items)
    helper = _HELPER
    on_helper = (helper is not None
                 and threading.current_thread() is helper.thread)
    if len(items) < 2 or on_helper or not helper_available():
        return [fn(item) for item in items]

    pending: queue.SimpleQueue[int] = queue.SimpleQueue()
    for index in range(len(items)):
        pending.put(index)
    results: list[Any] = [None] * len(items)
    errors: dict[int, BaseException] = {}

    def drain(catch: type[BaseException]) -> None:
        while True:
            try:
                index = pending.get_nowait()
            except queue.Empty:
                return
            try:
                results[index] = fn(items[index])
            except catch as error:
                errors[index] = error

    telemetry = ChildTelemetry()
    context = contextvars.copy_context()
    finished = threading.Event()

    def job() -> None:
        try:
            # The helper must outlive anything an item raises.
            context.run(telemetry.run, drain, BaseException)
        finally:
            finished.set()

    _helper().submit(job)
    try:
        drain(Exception)
    finally:
        # After an interrupt, hand out no more items; either way the
        # helper's current item finishes before its telemetry merges.
        while True:
            try:
                pending.get_nowait()
            except queue.Empty:
                break
        finished.wait()
        telemetry.merge()
    if errors:
        raise errors[min(errors)]
    return results
