"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random
from itertools import combinations

from chainorder.facelattice import IncidenceMatrix, _facets
from chainorder.polytopes import int_matrix_rank
from chainorder.posets import Poset, element_name


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


def partitions(total: int, cap: int | None = None):
    """The partitions of total with parts at most cap, each non-increasing,
    largest first part first."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, total if cap is None else cap), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def table_taus(n: int) -> list[tuple[int, ...]]:
    """Reference lister of the f-vector table's rows, by a sort: partitions
    of n with at least three ranks and at least two ranks of size >= 2, in
    lexicographic order."""
    return sorted(t for t in partitions(n) if len(t) >= 3 and sum(1 for x in t if x >= 2) >= 2)


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


def poset_json(p: Poset) -> str:
    """The text of a poset file for ``p`` by the standard encoder: its element
    names and covers as ``json.dumps(..., indent=2, sort_keys=True)`` prints them."""
    data = {"elements": list(map(element_name, p.elements)), "covers": [[element_name(a), element_name(b)] for a, b in p.covers]}
    return json.dumps(data, indent=2, sort_keys=True)


def natural_posets(most: int):
    """Every naturally labelled poset on e0..e(n-1), for n = 0..most: each
    transitive set of pairs i < j, given by its covers, in a fixed order.
    There are 1, 1, 2, 7, 40 and 357 of them for n = 0..5."""
    for n in range(most + 1):
        elements = tuple(f"e{i}" for i in range(n))
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            less = {pair for i, pair in enumerate(pairs) if bits >> i & 1}
            if any((a, c) not in less for a, b in less for c in range(b + 1, n) if (b, c) in less):
                continue
            covers = [(a, b) for a, b in pairs if (a, b) in less and not any((a, m) in less and (m, b) in less for m in range(a + 1, b))]
            yield Poset(elements, tuple((elements[a], elements[b]) for a, b in covers))


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


def incidence(nv, facet_masks):
    """The incidences of facets given by their vertex masks."""
    return IncidenceMatrix(nv, len(facet_masks), tuple(facet_masks))


def pyramid(inc, j=1):
    """The j-fold pyramid: j times, a new vertex on every facet, and one more
    facet, the base."""
    for _ in range(j):
        apex = 1 << inc.n_vertices
        inc = incidence(inc.n_vertices + 1, [m | apex for m in inc.facet_vertices] + [apex - 1])
    return inc


def prism(inc, j=1):
    """The j-fold prism: j times, a copy of every vertex, each facet holding
    both copies of its vertices, and two more facets, the two copies."""
    for _ in range(j):
        n = inc.n_vertices
        base = (1 << n) - 1
        inc = incidence(2 * n, [m | m << n for m in inc.facet_vertices] + [base, base << n])
    return inc


def simplex(d):
    """Delta_d: d + 1 vertices, and one facet missing each of them."""
    top = (1 << d + 1) - 1
    return incidence(d + 1, [top ^ 1 << v for v in range(d + 1)] if d else [])


def cross_polytope(d):
    """The d-dimensional cross-polytope: vertices 2i and 2i + 1 are e_i and
    -e_i, and each facet takes one of them for every i."""
    return incidence(2 * d, [sum(1 << 2 * i + (s >> i & 1) for i in range(d)) for s in range(2**d)])


def glue(a, va, b, vb):
    """The incidences of the hull of A and B placed in complementary affine
    spaces that meet in A's vertex va and B's vertex vb; B's other vertices
    follow A's.  A facet is a facet of one through the glue vertex with all of
    the other, or the union of a facet of each that misses it."""

    def place(m):  # B's vertices as vertices of the glue
        return sum(1 << (va if v == vb else a.n_vertices + v - (v > vb)) for v in range(b.n_vertices) if m >> v & 1)

    fa = _facets(a)
    fb = [place(m) for m in _facets(b)]
    q, whole_a, whole_b = 1 << va, (1 << a.n_vertices) - 1, place((1 << b.n_vertices) - 1)
    facets = [g | whole_b for g in fa if g & q] + [h | whole_a for h in fb if h & q]
    facets += [g | h for g in fa if not g & q for h in fb if not h & q]
    return incidence(a.n_vertices + b.n_vertices - 1, facets)
