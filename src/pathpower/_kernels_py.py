"""Pure-Python search kernel over bitmask adjacency.

This is the hot loop behind the induced-degree oracle: a lexicographic scan
over fixed-size vertex subsets minimizing the induced maximum degree.  Masks
are plain Python integers, so any graph size works; the scan has a compiled
twin in _scan.c for graphs of at most 256 vertices (see pathpower._kernels).

It returns a plain tuple, so the compiled scan can mirror the contract
exactly:

    scan_min_induced_degree -> (best, witness_mask, nodes, truncated, early)
"""

from __future__ import annotations

import threading
import time

_CHECK_MASK = 2047  # consult the clock and the shared best every 2048 nodes
_SHARED_LOCK = threading.Lock()  # makes each update of a shared state one atomic step


def scan_min_induced_degree(
    adj: list[int],
    target: int,
    stop_at: int = 1,
    max_nodes: int = -1,
    time_limit: float = 0.0,
    shared=None,
):
    """Minimum induced max degree over all target-subsets, by pruned scan.

    Subsets are visited in lexicographic order by member rank.  A partial
    subset is abandoned as soon as its induced maximum degree reaches the
    incumbent best, since supersets can only do worse.  A completed subset
    scoring at or below stop_at ends the search (early exit); stop_at <= -1
    disables that.  max_nodes < 0 means unbounded; time_limit <= 0 means no
    deadline.  shared, a `ctypes.c_longlong * 2` that threads scanning one
    search pass to each call, holds [next lead, best degree completed by any
    thread]; None is a fresh state that scans every lead.  The scan takes
    the next lead (smallest member) atomically at level 0 and stops when it
    passes n - target.  Every 2048 nodes it adopts a lower shared best,
    dropping its own witness, and stops (truncated) once that is at or
    below stop_at.  A completed subset lowers the shared best.

    Returns (best, witness_mask, nodes, truncated, early); best is None when
    this scan holds no witness.
    """
    n = len(adj)
    if not 0 < target <= n:
        raise ValueError(f"subset size {target} outside 1..{n}")
    if shared is None:
        shared = [0, target + 1]
    deadline = time.monotonic() + time_limit if time_limit > 0 else None

    best = target + 1  # exceeds any induced degree on target vertices
    best_mask = 0
    nodes = 0
    truncated = False
    early = False

    deg = [0] * n
    path = [0] * target
    maxes = [0] * target
    chosen = 0
    last_level = target - 1

    level = 0
    v = 0
    while True:
        hi = n - target + level
        placed = False
        while True:
            if level == 0:
                with _SHARED_LOCK:
                    v = shared[0]
                    shared[0] = v + 1
            if v > hi:
                break
            if max_nodes >= 0 and nodes >= max_nodes:
                truncated = True
                break
            if nodes & _CHECK_MASK == 0:
                if shared[1] < best:  # another thread completed a better subset
                    best, best_mask = shared[1], 0
                    truncated = best <= stop_at
                if truncated or (deadline is not None and time.monotonic() > deadline):
                    truncated = True
                    break
            nodes += 1
            nb = adj[v] & chosen
            cm = maxes[level - 1] if level else 0
            dv = nb.bit_count()
            if dv > cm:
                cm = dv
            mm = nb
            while mm:
                lsb = mm & -mm
                du = deg[lsb.bit_length() - 1] + 1
                if du > cm:
                    cm = du
                mm ^= lsb
            if cm >= best:
                v += 1
                continue
            if level == last_level:
                best = cm
                best_mask = chosen | (1 << v)
                with _SHARED_LOCK:
                    shared[1] = min(shared[1], best)
                if stop_at >= 0 and best <= stop_at:
                    early = True
                    break
                v += 1
                continue
            placed = True
            break
        if truncated or early:
            break
        if placed:
            deg[v] = dv
            mm = nb
            while mm:
                lsb = mm & -mm
                deg[lsb.bit_length() - 1] += 1
                mm ^= lsb
            path[level] = v
            maxes[level] = cm
            chosen |= 1 << v
            level += 1
            v += 1
            continue
        # level exhausted: backtrack
        if level == 0:
            break
        level -= 1
        w = path[level]
        chosen ^= 1 << w
        mm = adj[w] & chosen
        while mm:
            lsb = mm & -mm
            deg[lsb.bit_length() - 1] -= 1
            mm ^= lsb
        deg[w] = 0
        v = w + 1

    if not best_mask:
        return None, 0, nodes, truncated, early
    return best, best_mask, nodes, truncated, early
