"""The degree-order half of a long palette round, followed by first fit.

_Search.feasible runs first fit's half of a round itself and launches
the degree order's at the cutoff.  Each half is one generator, a search
(_Search._half) that runs its own turns on the round's schedule and
counts the other's as run in full, so feasible's loop needs from the
other half only the turns it has passed and its end.  The half first
runs in this process a turn at a time behind first fit's, and the two
take turns.  Once the round has passed FORK_TURN without an end, and
where can_race() holds, the rest of the half runs in a forked child on
a second CPU while first fit goes on here (Half.fork).  Both give the
same rounds, and the tests compare them.

A fork costs about as much as a turn: the fork itself, the parent's
copy-on-write faults after it (each page the parent writes faults once)
and the reap, 2-5 ms on a 20-30 MB process.  So a round forks only once
it has outlasted the degree order's first two turns past the cutoff.

This module loads when a round first reaches the cutoff, so no solve that
ends its rounds earlier, and no start-up, pays for it.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import sys
import time
from typing import Sequence

from .coloring import EdgeColoring

# the turn after which a round that goes on hands its degree-order half to
# a forked child: turns 0 and 2 are the degree order's first two past the
# cutoff, turn 1 first fit's first
FORK_TURN = 2


def can_race() -> bool:
    """Whether the degree-order half may run in a forked child: os.fork
    exists, this process may use two CPUs or more, it runs no other
    thread, which a child could find holding a lock, and it is no worker
    of a process pool, whose siblings keep the other CPUs busy."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing and multiprocessing.parent_process() is not None:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class Half:
    """The degree-order half of a round as feasible's loop follows it:
    each ``ended`` runs it on to the turn asked about.  ``search`` is the
    round's _Search and ``half`` its generator.

    It runs in this process until fork() hands the rest of it to a child,
    which writes to a pipe the turn it passed after each turn, then its
    end, one line each.  The child ignores SIGINT, collects no garbage
    cycles and leaves only through os._exit, so no finalizer, buffer flush
    or atexit hook of the parent's runs in it; a failed write, once the
    parent is gone, ends it.  close() kills and reaps it.  A child that
    ends without its end leaves the rest of the half to this process,
    which goes on from the turn where it forked.
    """

    def __init__(self, search, half):
        self.search, self.half = search, half
        self.passed = -1  # the last turn it passed
        self.end: tuple | None = None
        self.pid: int | None = None  # the child's, while one runs the half
        self.fd: int | None = None
        self.buffer = b""

    def ended(self, turn: int, timeout: float = 0.0) -> tuple | None:
        """Its end, if it came at ``turn`` or before, else None, once it
        has passed ``turn`` or ended.  A forked half waits at most
        ``timeout`` seconds for that, and says None if it is not there."""
        deadline = time.monotonic() + timeout
        while self.end is None and self.passed < turn:
            record = self._next(deadline) if self.pid else self._step()
            if record is None:
                break
            if isinstance(record, tuple):
                self.end = record
            else:
                self.passed = record
        return self.end if self.end is not None and self.end[0] <= turn else None

    def _step(self) -> int | tuple:
        """Run the half here to its next record: a turn it passed or its end."""
        try:
            return next(self.half)[0]
        except StopIteration as stop:
            return stop.value

    def fork(self) -> None:
        """Run the rest of the half in a forked child, where can_race()
        holds and a pipe and a process are to be had."""
        if self.fd is not None or not can_race():
            return
        try:
            read, write = os.pipe()
        except OSError:
            return
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if not pid:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                gc.disable()
                os.close(read)
                while True:
                    try:
                        _write(write, next(self.half)[:1])
                    except StopIteration as stop:
                        *head, hit, coloring = stop.value
                        _write(write, (*head, hit, *(() if coloring is None else coloring.colors)))
                        break
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pid, self.fd = pid, read

    def _next(self, deadline: float) -> int | tuple | None:
        """The child's next record, or None if it is not there by the
        ``time.monotonic()`` reading ``deadline``."""
        while b"\n" not in self.buffer:
            # select refuses waits past about 1e10 s; 1e9 s is as long
            wait = min(max(deadline - time.monotonic(), 0.0), 1e9)
            if not select.select([self.fd], [], [], wait)[0]:
                return None
            data = os.read(self.fd, 1 << 16)
            if not data:  # the child died: go on here from where it forked
                self._reap()
                return self._step()
            self.buffer += data
        line, self.buffer = self.buffer.split(b"\n", 1)
        fields = [int(x) for x in line.split()]
        if len(fields) == 1:
            return fields[0]
        turn, nodes, second, dive, hit, *colors = fields
        return (turn, nodes, second, dive, bool(hit),
                EdgeColoring(self.search.g, tuple(colors)) if colors else None)

    def _reap(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        finally:
            self.pid = None

    def close(self) -> None:
        try:
            if self.pid:
                self._reap()
        finally:
            if self.fd is not None:
                os.close(self.fd)
            self.half.close()


def _write(fd: int, fields: Sequence[int]) -> None:
    """Write the integers as one line, whole: a signal can cut a write short."""
    data = " ".join(str(int(x)) for x in fields).encode() + b"\n"
    while data:
        data = data[os.write(fd, data):]
