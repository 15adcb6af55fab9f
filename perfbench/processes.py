"""Stopping every process a benchmark run started.

A run starts pool workers (the sweep engine's pool, each pose service's
pool) and, through ``multiprocessing.shared_memory``, the
multiprocessing resource tracker.  Left to themselves, the pools'
interpreter-exit hooks do not wait for their workers, and the resource
tracker only notices that its parent has gone after the parent has
exited, so both can outlive the run.  :func:`stop_children` ends them
all and waits for each before the run returns.
"""

from __future__ import annotations

import os
import signal
import sys
import time

__all__ = ["stop_children"]

#: Seconds a child gets to end on its own before it is killed.
GRACE_S = 10.0


def _child_pids() -> list[int]:
    """Pids of this process's children, from ``/proc``."""
    me = os.getpid()
    children = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; the parent
        # pid is the second field after its closing parenthesis.
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            children.append(int(entry))
    return children


def _reap(pid: int, grace_s: float) -> None:
    """Wait for child ``pid`` to end; kill it after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            return
        time.sleep(0.02)


def _stop_resource_tracker() -> None:
    """Close the resource tracker's pipe and wait for it to exit.

    The tracker exits once every holder of its pipe has closed it, so
    this runs after the pool workers, which inherit the pipe, have
    ended.
    """
    resource_tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    pid = getattr(tracker, "_pid", None)
    if fd is None:
        return
    tracker._fd = None
    tracker._pid = None
    os.close(fd)
    if pid is not None:
        _reap(pid, GRACE_S)


def stop_children() -> None:
    """End every child process of this run and wait for each."""
    engine = sys.modules.get("repro.runtime.engine")
    if engine is not None:
        engine.shutdown_pool(wait=True, cancel_futures=True)
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.join(GRACE_S)
            if child.is_alive():
                child.kill()
                child.join()
    resource_tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker_pid = getattr(getattr(resource_tracker, "_resource_tracker",
                                  None), "_pid", None)
    for pid in _child_pids():
        if pid != tracker_pid:
            _reap(pid, GRACE_S)
    _stop_resource_tracker()
    for pid in _child_pids():
        _reap(pid, GRACE_S)
