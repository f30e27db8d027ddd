"""Maximal independent set enumeration on small undirected graphs.

Vertices are 0..n-1 and adjacency is stored as one bitmask per vertex, which
keeps the branch-and-bound inner loop to a handful of integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 128


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n > MAX_VERTICES:
            raise ValueError(f"graph has {self.n} vertices; at most {MAX_VERTICES} supported")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, m in enumerate(self.adj):
            if m & ~full:
                raise ValueError("adjacency mask references vertices out of range")
            if (m >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if ((self.adj[i] >> j) & 1) != ((self.adj[j] >> i) & 1):
                    raise ValueError("adjacency is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError("self-loop")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(n, tuple(adj))

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~m) & ~(1 << i) for i, m in enumerate(g.adj)))


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, sorted lexicographically.

    Pivoting branch and bound: at each node a pivot u maximizing |P & N(u)| is
    chosen and only vertices outside N(u) are branched on.
    """
    adj = g.adj
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        pivot, best = -1, -1
        m = pool
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            cnt = (p & adj[u]).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r | low, p & adj[v], x & adj[v])
            p ^= low
            x |= low

    if g.n:
        expand(0, (1 << g.n) - 1, 0)
    return sorted(mask_to_tuple(m) for m in out)


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal independent sets (= maximal cliques of the complement)."""
    return maximal_cliques(complement(g))
