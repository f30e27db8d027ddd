"""Maximal independent set enumeration on undirected graphs given as bitmasks.

Vertices are 0..n-1 and adjacency is one bitmask per vertex, which keeps the
branch-and-bound inner loop to a handful of integer operations.
"""

from __future__ import annotations


def maximal_independent_sets(adj) -> list[int]:
    """Masks of all inclusion-maximal independent sets, in no fixed order.

    Pivoting branch and bound on the non-neighbour masks: at each node a pivot
    u maximizing |P & N(u)| is chosen and only vertices outside N(u) are
    branched on.
    """
    n = len(adj)
    full = (1 << n) - 1
    non = [full & ~m & ~(1 << i) for i, m in enumerate(adj)]
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot, best = -1, -1
        m = p | x
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            cnt = (p & non[u]).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        cand = p & ~non[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            stack.append((r | low, p & non[v], x & non[v]))
            p ^= low
            x |= low
    return out
