"""Independent jobs on the CPUs the process may use.

``run_jobs(jobs)`` calls each job, a callable of no arguments, and returns
their results in job order.  It forks one worker per further CPU the process
may use (at most one per job; none where fork is missing or another thread
runs).  Process k, this one being 0, runs job k first; then every process
claims the next job index from a shared pipe until the pipe is empty, so jobs
of unequal cost balance with no cost model.  Claims are handed out in index
order, and a job that raised empties the pipe: every job before it has been
claimed and runs, no job after it starts unless already claimed, and the
error raised is the one the lowest-index failed job raised, as in a serial
run.  A worker shares nothing with this process after the fork: what a job
memoizes, counts or traces stays in the process that ran it.
"""

from __future__ import annotations

import functools
import os
import pickle
import select
import signal
import struct
import threading

# a claim is one job index, written and read whole
_INDEX = struct.Struct("<i")


def _worker_count(jobs: int) -> int:
    """Processes to run ``jobs`` independent jobs on: one per CPU this
    process may use, at most one per job; 1 where fork is missing or unsafe
    (another thread is running)."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), jobs))


def _attempt(job) -> tuple:
    """("ok", job()), or ("error", the exception it raised)."""
    try:
        return "ok", job()
    except Exception as exc:
        return "error", exc


def _run_claimed(jobs: list, first: int, claims: int) -> dict:
    """{index: _attempt(jobs[index])} of the jobs this process runs: ``first``,
    then each index claimed from the pipe ``claims`` until it is empty.  A job
    that raised empties the pipe: no job after it starts unless already
    claimed."""
    done = {}
    i = first
    while True:
        done[i] = _attempt(jobs[i])
        if done[i][0] == "error":
            while os.read(claims, 1 << 16):
                pass
            return done
        data = os.read(claims, _INDEX.size)
        if not data:
            return done
        (i,) = _INDEX.unpack(data)


def _outcome(kind: str, value) -> bytes:
    """The pickled (kind, value).  An error that cannot be pickled and rebuilt,
    or a result that cannot be pickled, travels as a RuntimeError naming it."""
    try:
        data = pickle.dumps((kind, value))
        if kind == "error":
            pickle.loads(data)                      # the caller must be able to rebuild it
        return data
    except Exception as exc:
        why = value if kind == "error" else exc
        return pickle.dumps(("error", RuntimeError(f"{type(why).__name__}: {why}")))


def _fork(work) -> tuple[int, int]:
    """Run work() in a forked child, which sends the bytes it returns; returns
    the child's pid and the read end of the pipe that carries them.  The child
    leaves by os._exit, with status 0 only after it sent them all, so it runs
    no atexit handler and flushes no stdio buffer."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = work()
            with open(w, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _child_work(jobs: list, first: int, claims: int) -> bytes:
    done = _run_claimed(jobs, first, claims)
    return pickle.dumps({i: _outcome(*r) for i, r in done.items()})


def run_jobs(jobs) -> list:
    """job() of each job, in job order, run on the CPUs this process may use
    (``taskset`` limits them); the first exception in job order is raised.

    The job indices past the first one per process fill the claim pipe before
    the first fork: at most ``select.PIPE_BUF`` bytes, written whole.  A
    worker's result pipe is read to EOF before the worker is reaped, as its
    results can pass the pipe buffer; every worker is reaped before this
    returns or raises, and killed first if a fork failed or this process's own
    jobs raised past ``Exception``."""
    jobs = list(jobs)
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    pending = b"".join(_INDEX.pack(i) for i in range(workers, len(jobs)))
    if len(pending) > select.PIPE_BUF:
        raise ValueError(f"{len(jobs)} jobs are more than the claim pipe holds")
    claims, w = os.pipe()
    children = []                                   # (pid, result read end) per worker
    finished = False
    try:
        try:
            os.write(w, pending)
        finally:
            os.close(w)                             # an empty pipe now reads EOF
        for k in range(1, workers):
            children.append(_fork(functools.partial(_child_work, jobs, k, claims)))
        done = _run_claimed(jobs, 0, claims)
        received = [_read_to_eof(fd) for _, fd in children]
        finished = True
    finally:
        if not finished:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for _, fd in children:
            os.close(fd)
        os.close(claims)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (pid, _), data, status in zip(children, received, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:                   # exit 0 only after the whole outcome was sent
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"worker {pid} ended with no result ({how})")
        done.update((i, pickle.loads(r)) for i, r in pickle.loads(data).items())
    results = []
    for i in range(len(jobs)):                      # every job before a failed one ran
        kind, value = done[i]
        if kind == "error":
            raise value
        results.append(value)
    return results
