"""A fixed piece of work that rates how fast the machine runs right now.

On a shared host the same Python code runs up to a third slower for tens
of seconds at a time, in user time as much as in wall time, so raw pass
times of one commit spread more than a change worth measuring.  The
benchmark therefore runs this work between operations, divides each
operation's time by the work's duration around it, and reports the
quotient times the work's fixed nominal duration: seconds at the
reference speed.  It mixes the kinds of work the package
does: integer arithmetic in an interpreter loop, sparse dict rows modulo
a prime, and dense elimination over Fraction.  It is the benchmark's own
code and does not touch the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import atexit
import os
import time
from fractions import Fraction

import checks
import inputs

EVERY = 0.1  # seconds of operations between two samples
# Nominal duration of work(), about its median on the 2-vCPU machine the
# benchmark was written on.  A time of k reference units is reported as
# k * SECONDS: seconds at the reference speed.
SECONDS = 0.005

_ROWS = checks.cocycle_rows(inputs.alexander_tables(5, 2, 3))
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5) for j in range(10)] for i in range(10)]


def work() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    s += checks.mod_rank(_ROWS, 101)
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return s


_partner: tuple[int, int, int] | None = None  # (pid, write end, read end)


def _start_partner() -> tuple[int, int, int]:
    """Fork a process that runs work() each time it is sent b"w"."""
    to_child, from_parent = os.pipe()[::-1]
    to_parent, from_child = os.pipe()[::-1]
    pid = os.fork()
    if pid == 0:
        os.close(to_child)
        os.close(from_child)
        try:
            while os.read(from_parent, 1) == b"w":
                work()
                os.write(to_parent, b"d")
        finally:
            os._exit(0)
    os.close(from_parent)
    os.close(to_parent)
    atexit.register(_stop_partner)
    return pid, to_child, from_child


def _stop_partner() -> None:
    pid, to_child, from_child = _partner
    os.close(to_child)  # the partner reads end of file and exits
    os.close(from_child)
    os.waitpid(pid, 0)


def sample(processes: int = 1) -> float:
    """Seconds until `processes` (1 or 2) copies of work(), run at once,
    have all finished.  An operation that runs a pool of two workers is
    rated against two copies: it needs both CPUs, and a second CPU taken by
    other tenants slows it while a single copy runs on at full speed."""
    global _partner
    if processes not in (1, 2):
        raise ValueError(f"no reference for {processes} processes")
    if processes == 2 and _partner is None:
        _partner = _start_partner()
    t0 = time.perf_counter()
    if processes == 2:
        os.write(_partner[1], b"w")
    work()
    if processes == 2:
        os.read(_partner[2], 1)
    return time.perf_counter() - t0
