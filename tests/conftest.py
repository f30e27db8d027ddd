"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from chainorder.polytopes import int_matrix_rank
from chainorder.posets import Poset


def compositions(total: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to total."""
    out: list[tuple[int, ...]] = []

    def rec(rem, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for part in range(1, rem + 1):
            rec(rem - part, acc + [part])

    rec(total, [])
    return out


def compositions_upto(total: int) -> list[tuple[int, ...]]:
    return [tau for m in range(1, total + 1) for tau in compositions(m)]


def set_partitions(items):
    """All set partitions of a sequence, as lists of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + (first,)] + smaller[i + 1 :]
        yield smaller + [(first,)]


def random_poset(rng: random.Random, n: int, p: float = 0.35) -> Poset:
    """Random poset on n elements via a random DAG, transitively reduced."""
    elements = tuple(f"e{i}" for i in range(n))
    less = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                less[i][j] = True
    for m in range(n):  # transitive closure
        for i in range(n):
            if less[i][m]:
                for j in range(n):
                    if less[m][j]:
                        less[i][j] = True
    covers = []
    for i in range(n):
        for j in range(n):
            if less[i][j] and not any(less[i][m] and less[m][j] for m in range(n)):
                covers.append((elements[i], elements[j]))
    return Poset(elements, tuple(covers))


def brute_force_antichain_subsets(n: int, edges) -> set[frozenset]:
    """All independent sets of a small graph, by direct subset enumeration."""
    adj = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    out = set()
    verts = list(range(n))
    for r in range(n + 1):
        for sub in combinations(verts, r):
            if all((a, b) not in adj for a in sub for b in sub):
                out.add(frozenset(sub))
    return out


def affine_rank(points) -> int:
    """Dimension of the affine span of a nonempty list of integer points."""
    if not points:
        raise ValueError("affine_rank needs at least one point")
    base = points[0]
    return int_matrix_rank([[x - b for x, b in zip(p, base)] for p in points[1:]])
