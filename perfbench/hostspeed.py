"""Reference slice: a fixed piece of pure-Python work that measures how fast
the host runs at this moment.

A shared VM changes speed within seconds as its neighbours load the machine.
The change slows every instruction, so CPU time tracks wall time, and runs
of minutes do not average it away.  The worker therefore runs a reference
slice about every SLICE_EVERY_S of op time and scales each op's latency by
NOMINAL_MS over the median of the slices around it (stats.local_scale).  The
timings it reports are those of a host on which one slice takes NOMINAL_MS.

A slice times two kernels and returns the geometric mean of their times:

- a compute kernel, backtracking search for proper 4-colorings of a fixed
  14-vertex graph, whose calls, small dicts, sets and ints stay in the core's
  own caches;
- a memory kernel, lookups in a fixed order through a dict of 2**17 tuples
  that holds about 31 MB, so that nearly every lookup misses the caches.

When the host slows down, the compute kernel slows more than the package
does and the memory kernel less or more, depending on what the neighbours
load.  Over 12 cold processes per workload on a shared 2-vCPU VM, the log of
each op's time rose with the log of the local slice time with a slope of
0.60-0.70 for the compute kernel alone, 1.6-2.4 for the memory kernel
alone, and 0.99-1.21 for their geometric mean, which is therefore the
reference.

Both kernels run once untimed first, to bring their code back into the
caches the last op evicted it from.  They run with the cyclic collector
paused, so a collection of the package's garbage is never charged to a
slice, and the compute kernel frees all it allocates.  The slice never
changes: a different slice would be a different unit of time.
"""

from __future__ import annotations

import gc
import math
import resource
from time import perf_counter

NOMINAL_MS = 0.3  # a slice's typical time on a shared 2-vCPU x86-64 VM, Python 3.11
SLICE_EVERY_S = 0.004  # op time between two slices
HALF_WINDOW = 4  # an op is scaled by the median of this many slices on each side
LEAD_SLICES = 40  # slices before the first op: the scale of set-up

_N = 14
_COLORS = 4
_SOLUTIONS = 300
_LOOKUPS = 400
_TABLE_BITS = 17


def _lcg(x: int) -> int:
    return (1103515245 * x + 12345) % 2**31


def _graph() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """A fixed 14-vertex graph from a fixed linear congruential sequence:
    neighbour lists in search order, and that order."""
    adj: list[set[int]] = [set() for _ in range(_N)]
    x = 12345
    for _ in range(30):
        x = _lcg(x)
        a = (x >> 16) % _N
        x = _lcg(x)
        b = (x >> 16) % _N
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    order = sorted(range(_N), key=lambda v: (-len(adj[v]), v))
    return tuple(tuple(sorted(adj[v])) for v in order), tuple(order)


def _table() -> tuple[dict[int, tuple[int, str]], list[int]]:
    """The memory kernel's dict and the fixed order of keys it looks up."""
    n = 1 << _TABLE_BITS
    table = {(i * 2654435761) % (1 << 32): (i, str(i)) for i in range(n)}
    keys = list(table)
    order = []
    x = 7
    for _ in range(n):
        x = _lcg(x)
        order.append(keys[(x >> 8) % n])
    return table, order


_ADJ, _ORDER = _graph()


def _search(limit: int) -> int:
    color: dict[int, int] = {}
    found = 0

    def extend(i: int) -> bool:
        nonlocal found
        if i == _N:
            found += 1
            return found >= limit
        v = _ORDER[i]
        used = {color[u] for u in _ADJ[i] if u in color}
        for c in range(_COLORS):
            if c not in used:
                color[v] = c
                if extend(i + 1):
                    return True
                del color[v]
        return False

    extend(0)
    return found


class Reference:
    """The reference slice of one worker process.  Building it takes about
    0.2 s, for the memory kernel's table."""

    def __init__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._table, self._keys = _table()
        self._next = 0
        # what the table added to the process's peak RSS
        self.table_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0

    def _walk(self, lookups: int) -> int:
        table = self._table
        total = 0
        for key in self._keys[self._next : self._next + lookups]:
            i, s = table[key]
            total += i + len(s)
        self._next = (self._next + lookups) % (len(self._keys) - lookups)
        return total

    def slice_ms(self) -> float:
        """Run one reference slice; return the geometric mean of its two
        kernels' wall times in ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            _search(_SOLUTIONS // 3)
            started = perf_counter()
            found = _search(_SOLUTIONS)
            compute = perf_counter() - started
            self._walk(_LOOKUPS // 8)
            started = perf_counter()
            self._walk(_LOOKUPS)
            memory = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        if found != _SOLUTIONS:
            raise RuntimeError(f"reference slice found {found} colorings, not {_SOLUTIONS}")
        return 1000.0 * math.sqrt(compute * memory)
