"""A fixed CPU reference for scaling measured times to a nominal speed.

The speed of a shared 2-core host drifts by 15-25% over tens of seconds,
more than the regressions the benchmark's bounds must catch. A worker runs
this fixed computation before, between and after the stages it measures;
a time t measured while the reference took r seconds on average is
reported as t * NOMINAL_S / r, i.e. seconds on a host where the reference
takes NOMINAL_S.

The reference has two halves, as hnp's hot paths do: set-membership scans
over small integer sets, and building short-lived tuples, frozensets and
dict entries. The second half is what makes it track hnp: on a 2-core Xeon
VM, 13 windows of census k=4, k=5 and clustering_report on the hub_census
host had a quartile spread of 25% as measured, 12% scaled by the first
half alone and 8% scaled by both. It uses no hnp code and pauses the
garbage collector, so neither a change to hnp nor the size of hnp's live
heap can change its time.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.3
_N = 3000

_ADJ = [set() for _ in range(_N)]
for _v in range(_N):
    for _k in range(1, 9):
        _u = (_v * (2 * _k + 1) + _k * _k * 131) % _N
        if _u != _v:
            _ADJ[_v].add(_u)
            _ADJ[_u].add(_v)
_NEIGHBOURS = [tuple(sorted(a)) for a in _ADJ]


def _scan() -> int:
    hits = 0
    for v in range(_N):
        nb = _NEIGHBOURS[v]
        d = len(nb)
        for i in range(d):
            ax = _ADJ[nb[i]]
            for j in range(i + 1, d):
                if nb[j] in ax:
                    hits += 1
    return hits


def _build() -> int:
    seen = {}
    for v in range(_N):
        nb = _NEIGHBOURS[v]
        for x in nb:
            key = tuple(sorted((v, x) + nb[:3]))
            seen[key] = frozenset(key)
    return len(seen)


def reference() -> float:
    """Seconds taken by the fixed computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            _scan()
        for _ in range(2):
            _build()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
