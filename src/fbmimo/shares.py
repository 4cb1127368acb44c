"""Indexed jobs run in shares, one process per share.

The package's one way to use several CPUs: a figure's curves and the runs
of a brute stack's trials (simulate._trials) both run here.  A child gets
its jobs by os.fork, which copies them as they are, so a job may be any
callable; only results and exceptions are pickled, back to the process
that forked.  A fork copies only the calling thread, and a lock another
thread held at the fork stays held in the child, so where os.fork is
missing or another thread runs, every job runs on the calling process
instead.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading


def _run_share(work, indices: list[int]) -> tuple[dict, tuple | None]:
    """{i: work(i)} for i in order until one raises, and (i, its exception)."""
    results = {}
    for i in indices:
        try:
            results[i] = work(i)
        except BaseException as err:  # re-raised by run_in_shares
            return results, (i, err)
    return results, None


def _share_payload(work, indices: list[int]) -> bytes:
    """A forked share's pickled _run_share outcome.  An exception that does
    not survive pickling travels as a RuntimeError that names it."""
    results, failure = _run_share(work, indices)
    if failure is not None:
        i, err = failure
        try:
            pickle.loads(pickle.dumps(err))
        except Exception:
            failure = i, RuntimeError(f"{type(err).__name__}: {err} "
                                      "(raised in a forked share; it cannot be pickled)")
    return pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL)


def _fork_share(work, indices: list[int]) -> tuple:
    """(pid, read end of its pipe) of a child that runs the share and ends."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns, so it never flushes the parent's stdio
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(_share_payload(work, indices))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def run_in_shares(work, shares: list[list[int]]) -> list:
    """[work(i) for every i in the shares], in order of i, each share on its
    own process: the first on the calling one, each other in a forked child
    that pickles its results back through a pipe.  work(i) must not depend
    on which process runs it.  Without os.fork, or while another thread
    runs, every job runs on the calling process, in order of i.

    Every child is reaped, and if jobs fail, the exception of the lowest
    index is raised, the one a serial loop would have raised.  A child that
    dies without reporting raises ChildProcessError.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        shares = [sorted(i for share in shares for i in share)]
    children = []
    try:
        for indices in shares[1:]:
            children.append(_fork_share(work, indices))
        outcomes = [_run_share(work, shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            children.pop(0)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0 or not data:
                raise ChildProcessError(f"a forked share exited with code {code}")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {i: result for found, _ in outcomes for i, result in found.items()}
    return [results[i] for i in sorted(results)]
