"""The forked workers of ``verify --jobs``, shared by the per-graph checks and
the connected-graph generator.

A worker inherits the function and its items, so neither is pickled; only
its results are, on their way back.  tdmsd starts no thread, so forking is
safe.
"""

from __future__ import annotations

import os
from typing import Callable, NoReturn, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_workers(jobs: int, items: int) -> int:
    """How many workers to start for `items` items at --jobs `jobs`.

    Every worker is a process of its own, so never more than there are
    usable cores or items.  Only Linux can tell the cores this process may
    run on; elsewhere every core counts.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return min(jobs, cores, items)


def fork_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """[fn(x) for x in items], computed by `workers` forked children.

    Worker w maps items[w::workers], over its own pipe.  An exception raised
    by fn comes back instead and is raised here with its own type.
    """
    import pickle
    import signal

    pids: list[int] = []
    pipes: list[int] = []
    replies: list[bytes] = []
    statuses: list[int] = []
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(fn, items[w::workers], pipes, wr)
            finally:
                os.close(wr)
            pids.append(pid)
        for r in pipes:
            with open(r, "rb", closefd=False) as pipe:
                replies.append(pipe.read())
    finally:
        for r in pipes:
            os.close(r)
        for w, pid in enumerate(pids):
            if w >= len(replies):
                # the parent stopped before this worker's reply was in
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    out: list = [None] * len(items)
    for w, (reply, status) in enumerate(zip(replies, statuses)):
        if status:
            # a worker exits 0 exactly when its whole reply was written
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"verify worker {w} of {workers} ended without a result "
                               f"({how}, wait status {status})")
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        out[w::workers] = value
    return out


def _worker(fn: Callable[[T], R], items: Sequence[T], inherited: list[int], wr: int) -> NoReturn:
    # in a forked child, which must never return into the caller's stack:
    # os._exit also skips the parent's atexit handlers and stdio buffers,
    # which the parent flushes itself
    import pickle

    status = 1
    try:
        # read ends held only by the parent, so that a worker whose parent
        # died gets EPIPE instead of blocking on a full pipe
        for fd in inherited:
            os.close(fd)
        try:
            reply = pickle.dumps((True, [fn(x) for x in items]))
        except BaseException as exc:  # sent to the parent, which raises it
            reply = pickle.dumps((False, exc))
        with open(wr, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)
