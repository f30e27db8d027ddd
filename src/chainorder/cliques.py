"""Maximal independent set enumeration on undirected graphs given as bitmasks.

Vertices are 0..n-1 and adjacency is one bitmask per vertex, which keeps the
branch-and-bound inner loop to a handful of integer operations.
"""

from __future__ import annotations

from .errors import BudgetError


def maximal_independent_sets(adj, max_subsets: int | None = None) -> list[int]:
    """Masks of all inclusion-maximal independent sets, in no fixed order.

    Pivoting branch and bound on the non-neighbour masks: at each node a pivot
    u maximizing |P & N(u)| is chosen and only vertices outside N(u) are
    branched on.  ``max_subsets`` bounds the subsets of the sets found, the
    sum of 2^|S|.  It is checked as each set is found and, at an inner node
    r, against 2^|r| alone, which stops the search once that passes twice
    the budget: r lies inside some maximal set, while the sets below r may
    all have been found before.
    """
    n = len(adj)
    full = (1 << n) - 1
    non = [full & ~m & ~(1 << i) for i, m in enumerate(adj)]
    depth = None if max_subsets is None else max_subsets.bit_length()
    out: list[int] = []
    spent = 0
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            spent += 1 << r.bit_count()
            if max_subsets is not None and spent > max_subsets:
                raise BudgetError(f"{spent} maximal-antichain subsets exceed the point budget {max_subsets}")
            continue
        if depth is not None and r.bit_count() > depth:
            raise BudgetError(
                f"at least {1 << r.bit_count()} maximal-antichain subsets exceed the point budget {max_subsets}"
            )
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
