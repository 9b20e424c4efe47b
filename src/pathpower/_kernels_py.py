"""Pure-Python search kernels over bitmask adjacency.

These are the hot loops behind the exact oracles: a lexicographic scan over
fixed-size vertex subsets minimizing the induced maximum degree, and a
branch-and-bound maximum-independent-set solver.  Masks are plain Python
integers, so any graph size works; the scan has a compiled twin in _scan.c
for graphs of at most 256 vertices (see pathpower._kernels).

Both kernels return plain tuples, so the compiled scan can mirror the
contract exactly:

    scan_min_induced_degree -> (best, witness_mask, nodes, truncated, early)
    solve_max_independent_set -> (best_size, witness_mask, nodes, truncated)
"""

from __future__ import annotations

import time

_CHECK_MASK = 2047  # consult the clock every 2048 nodes


def scan_min_induced_degree(
    adj: list[int],
    target: int,
    stop_at: int = 1,
    max_nodes: int = -1,
    time_limit: float = 0.0,
    lead: int = -1,
):
    """Minimum induced max degree over all target-subsets, by pruned scan.

    Subsets are visited in lexicographic order by member rank.  A partial
    subset is abandoned as soon as its induced maximum degree reaches the
    incumbent best, since supersets can only do worse.  A completed subset
    scoring at or below stop_at ends the search (early exit); stop_at <= -1
    disables that.  max_nodes < 0 means unbounded; time_limit <= 0 means no
    deadline.  lead >= 0 restricts the scan to subsets whose smallest member
    is exactly lead (the unit of multi-worker partitioning).

    Returns (best, witness_mask, nodes, truncated, early); best is None when
    the budget ran out before any subset was completed.
    """
    n = len(adj)
    if not 0 < target <= n:
        raise ValueError(f"subset size {target} outside 1..{n}")
    if lead >= 0 and lead > n - target:
        return None, 0, 0, False, False
    deadline = time.monotonic() + time_limit if time_limit > 0 else None

    sentinel = target + 1  # exceeds any induced degree on target vertices
    best = sentinel
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
    v = lead if lead >= 0 else 0
    while True:
        hi = lead if (lead >= 0 and level == 0) else n - target + level
        placed = False
        while v <= hi:
            if max_nodes >= 0 and nodes >= max_nodes:
                truncated = True
                break
            if deadline is not None and nodes & _CHECK_MASK == 0 and time.monotonic() > deadline:
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

    if best == sentinel:
        return None, 0, nodes, truncated, early
    return best, best_mask, nodes, truncated, early


def _greedy_matching_bound(adj: list[int], cand: int, count: int) -> int:
    """Upper bound on the independence number of the induced candidates:
    a greedy matching covers each independent vertex pair at most once, so
    alpha <= count - pairs."""
    matched = 0
    pairs = 0
    mm = cand
    while mm:
        lsb = mm & -mm
        mm ^= lsb
        if matched & lsb:
            continue
        v = lsb.bit_length() - 1
        free = adj[v] & cand & ~matched
        if free:
            w = free & -free
            matched |= lsb | w
            pairs += 1
            mm &= ~w
    return count - pairs


def solve_max_independent_set(
    adj: list[int],
    max_nodes: int = -1,
    time_limit: float = 0.0,
    seed_mask: int = 0,
):
    """Branch-and-bound maximum independent set over bitmask adjacency.

    seed_mask is a known independent set providing the initial incumbent
    (pass 0 for none).  Branching picks the candidate of maximum degree;
    include-branch is explored first.  Vertices isolated within the
    candidate set are taken greedily since nothing conflicts with them.

    Returns (best_size, witness_mask, nodes, truncated).
    """
    n = len(adj)
    full = (1 << n) - 1
    best_mask = seed_mask
    best = seed_mask.bit_count()
    nodes = 0
    truncated = False
    deadline = time.monotonic() + time_limit if time_limit > 0 else None

    stack = [(full, 0)]
    while stack:
        if max_nodes >= 0 and nodes >= max_nodes:
            truncated = True
            break
        if deadline is not None and nodes & _CHECK_MASK == 0 and time.monotonic() > deadline:
            truncated = True
            break
        nodes += 1
        cand, chosen = stack.pop()

        iso = 0
        mm = cand
        while mm:
            lsb = mm & -mm
            if adj[lsb.bit_length() - 1] & cand == 0:
                iso |= lsb
            mm ^= lsb
        if iso:
            chosen |= iso
            cand ^= iso
        if cand == 0:
            size = chosen.bit_count()
            if size > best:
                best = size
                best_mask = chosen
            continue

        count = cand.bit_count()
        size = chosen.bit_count()
        if size + _greedy_matching_bound(adj, cand, count) <= best:
            continue

        pivot = -1
        pivot_deg = -1
        mm = cand
        while mm:
            lsb = mm & -mm
            v = lsb.bit_length() - 1
            d = (adj[v] & cand).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = v
            mm ^= lsb
        bit = 1 << pivot
        stack.append((cand ^ bit, chosen))
        stack.append((cand & ~(adj[pivot] | bit), chosen | bit))

    return best, best_mask, nodes, truncated
