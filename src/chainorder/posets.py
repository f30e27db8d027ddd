"""Finite posets stored by their covering relations.

Elements are arbitrary hashable ids kept in a fixed order; every set-valued
result is reported in that order, so all outputs are deterministic.  Maximal
ranked posets use ids ``(rank, index)`` with both components 1-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from . import cliques
from .errors import ConfigError

Element = Any
Block = tuple[Element, ...]


class _Extreme:
    """Sentinel id for the adjoined bottom/top of an extended poset."""

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


BOTTOM = _Extreme("<bottom>")
TOP = _Extreme("<top>")


def check_tau(tau: Sequence[int]) -> tuple[int, ...]:
    """Validate a tuple of rank sizes: nonempty, all parts ints >= 1 (not bools)."""
    tau = tuple(tau)
    if not tau:
        raise ConfigError("tau must have at least one part")
    for t in tau:
        if isinstance(t, bool) or not isinstance(t, int) or t < 1:
            raise ConfigError(f"tau parts must be positive integers, got {tau}")
    return tau


def check_cut(tau: Sequence[int], k: int) -> tuple[int, ...]:
    """Validate an int cut k of P_tau (ranks 1..k are the chain part); returns the checked tau."""
    tau = check_tau(tau)
    if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k <= len(tau):
        raise ConfigError(f"k must be in [0, {len(tau)}], got {k}")
    return tau


def _topological_order(succ: Sequence[Iterable[int]]) -> list[int] | None:
    """Kahn's algorithm over successor lists; None when the graph has a cycle."""
    indeg = [0] * len(succ)
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    queue = [i for i, d in enumerate(indeg) if d == 0]
    order = []
    while queue:
        i = queue.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    return order if len(order) == len(succ) else None


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset given by a transitively reduced cover DAG."""

    elements: tuple
    covers: tuple[tuple[Element, Element], ...]

    def __post_init__(self):
        idx = self.index
        if len(idx) != len(self.elements):
            raise ValueError("duplicate elements")
        for p, q in self.covers:
            if p not in idx or q not in idx:
                raise ValueError(f"cover ({p!r}, {q!r}) uses unknown element")
            if p == q:
                raise ValueError(f"cover ({p!r}, {q!r}) is a self-cover")
        if len(set(self.covers)) != len(self.covers):
            raise ValueError("duplicate cover pairs")
        object.__setattr__(self, "covers", tuple(sorted(self.covers, key=lambda c: (idx[c[0]], idx[c[1]]))))
        above = self.above_masks  # raises on a directed cycle
        # p < q is implied when q lies above another up-cover of p; q is not above itself
        implied = [0] * self.n
        for i, ups in enumerate(self.up_covers):
            for w in ups:
                implied[i] |= above[w]
        for p, q in self.covers:
            if implied[idx[p]] >> idx[q] & 1:
                raise ValueError(f"cover ({p!r}, {q!r}) is implied; covers must be reduced")

    @property
    def n(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def up_covers(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for p, q in self.covers:
            adj[self.index[p]].append(self.index[q])
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def down_covers(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for p, q in self.covers:
            adj[self.index[q]].append(self.index[p])
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def linear_extension(self) -> tuple[int, ...]:
        """Positions in an order with every position after all below it."""
        order = _topological_order(self.up_covers)
        if order is None:
            raise ValueError("cover relation has a directed cycle")
        return tuple(order)

    @cached_property
    def above_masks(self) -> tuple[int, ...]:
        """Bitmask of positions strictly above each position."""
        above = [0] * self.n
        for i in reversed(self.linear_extension):
            m = 0
            for j in self.up_covers[i]:
                m |= (1 << j) | above[j]
            above[i] = m
        return tuple(above)

    @cached_property
    def below_masks(self) -> tuple[int, ...]:
        """Bitmask of positions strictly below each position."""
        below = [0] * self.n
        for i in self.linear_extension:
            m = 0
            for j in self.down_covers[i]:
                m |= (1 << j) | below[j]
            below[i] = m
        return tuple(below)

    def minimal_elements(self) -> tuple:
        return tuple(e for i, e in enumerate(self.elements) if not self.down_covers[i])

    def maximal_elements(self) -> tuple:
        return tuple(e for i, e in enumerate(self.elements) if not self.up_covers[i])


@dataclass(frozen=True)
class PartitionCheck:
    valid: bool
    reason: str | None = None


def make_maximal_ranked(tau: Sequence[int]) -> Poset:
    """Ranked poset with tau_i elements at rank i and all cross-rank pairs comparable."""
    tau = check_tau(tau)
    elements = tuple((i, t) for i in range(1, len(tau) + 1) for t in range(1, tau[i - 1] + 1))
    covers = tuple(
        ((i, t), (i + 1, s))
        for i in range(1, len(tau))
        for t in range(1, tau[i - 1] + 1)
        for s in range(1, tau[i] + 1)
    )
    return Poset(elements, covers)


def extend_poset(p: Poset) -> Poset:
    """Adjoin BOTTOM below all minima and TOP above all maxima (Stanley's P-hat)."""
    covers = (
        tuple((BOTTOM, m) for m in p.minimal_elements())
        + p.covers
        + tuple((m, TOP) for m in p.maximal_elements())
    )
    return Poset((BOTTOM,) + p.elements + (TOP,), covers or ((BOTTOM, TOP),))


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def maximal_antichains(p: Poset) -> list[tuple]:
    """Maximal antichains in lexicographic order of positions: the maximal
    independent sets of the comparability masks."""
    comparable = [a | b for a, b in zip(p.above_masks, p.below_masks)]
    sets = sorted(map(mask_to_tuple, cliques.maximal_independent_sets(comparable)))
    return [tuple(p.elements[i] for i in s) for s in sets]


def partition_masks(p: Poset, pi: Iterable[Iterable], index: dict | None = None) -> list[int]:
    """Position masks of the blocks of a partition of p's elements.

    ``index`` maps ids to positions (``p.index`` by default; it may name a
    position by another id).  Malformed input raises ValueError, naming the
    ids of ``index``.
    """
    index = p.index if index is None else index
    masks = []
    seen = 0
    for b in pi:
        m = 0
        for e in b:
            if e not in index:
                raise ValueError(f"block element {e!r} outside ground set")
            bit = 1 << index[e]
            if seen & bit:
                raise ValueError(f"element {e!r} in two blocks")
            seen |= bit
            m |= bit
        if not m:
            raise ValueError("empty block")
        masks.append(m)
    missing = ((1 << p.n) - 1) & ~seen
    if missing:
        names = sorted(repr(e) for e, i in index.items() if missing >> i & 1)
        raise ValueError(f"partition does not cover ground set (missing {names})")
    return masks


def check_partition_masks(p: Poset, masks: Sequence[int]) -> PartitionCheck:
    """The face-partition conditions of ``validate_face_partition``, on the
    position masks of a partition of an extended poset's elements.  Each member
    of a merged block is read once, by the search that tests its connectivity."""
    above, below = p.above_masks, p.below_masks
    ends = (1 << p.index[BOTTOM]) | (1 << p.index[TOP])
    split_ends = True
    merged = []  # (block, union of its members' up-sets, union of their down-sets)
    for m in masks:
        if not m & (m - 1):
            continue
        # comparable members are joined by a chain of induced covers, so a block
        # is connected in its induced Hasse diagram iff by comparabilities
        reached = frontier = m & -m
        up = down = 0
        while frontier:
            low = frontier & -frontier
            i = low.bit_length() - 1
            up |= above[i]
            down |= below[i]
            new = (above[i] | below[i]) & m & ~reached
            reached |= new
            frontier ^= low | new
        if reached != m:
            return PartitionCheck(False, "block not connected")
        split_ends = split_ends and m & ends != ends
        merged.append((m, up, down))
    # a block merging the extremes also breaks compatibility whenever anything
    # lies between them; report the more specific reason first
    if not split_ends:
        return PartitionCheck(False, "bottom and top share a block")
    # singletons alone follow p's order, so a cycle passes a merged block, and a
    # path between merged blocks through singletons implies a direct relation:
    # the block relation is acyclic iff no outside element lies between two
    # members of a merged block and the merged blocks alone are
    succ = [[j for j, (n, _, _) in enumerate(merged) if n != m and up & n] for m, up, _ in merged]
    if any(up & down & ~m for m, up, down in merged) or _topological_order(succ) is None:
        return PartitionCheck(False, "block relation has a cycle")
    return PartitionCheck(True)


def validate_face_partition(p: Poset, pi: Iterable[Iterable]) -> PartitionCheck:
    """Check the three face-partition conditions on a poset from ``extend_poset``.

    A partition encodes a face when (a) every block is connected as an induced
    subposet, (b) the relation between distinct blocks is acyclic, and (c) the
    adjoined bottom and top lie in different blocks.  The reason names the first
    of (a), (c) and (b) to fail.  A partition that fails to cover the ground set
    is a malformed input and raises ValueError instead.
    """
    return check_partition_masks(p, partition_masks(p, pi))


def has_hl_pattern(p: Poset) -> bool:
    """Whether P contains the X poset: an element c with two incomparable
    elements a, b below it and two incomparable elements d, e above it.

    The five elements then form an induced X, since a, b < c < d, e forces
    every other relation among them.  By Hibi and Li, "Unimodular
    equivalence of order and chain polytopes" (Math. Scand., 2016), O(P) and
    C(P) are unimodularly equivalent exactly when P contains no X.
    """
    above, below = p.above_masks, p.below_masks

    def has_incomparable_pair(s: int) -> bool:
        return any(s & ~(above[i] | below[i] | (1 << i)) for i in mask_to_tuple(s))

    return any(has_incomparable_pair(below[c]) and has_incomparable_pair(above[c]) for c in range(p.n))


def as_tau_shape(p: Poset) -> tuple[int, ...] | None:
    """Recognize a maximal ranked poset; return its rank sizes, else None."""
    if p.n == 0:
        return None
    # longest-path levels from the minima
    level = [0] * p.n
    for i in p.linear_extension:
        for j in p.down_covers[i]:
            level[i] = max(level[i], level[j] + 1)
    nlev = max(level) + 1
    sizes = [0] * nlev
    for lv in level:
        sizes[lv] += 1
    for x, y in p.covers:
        if level[p.index[y]] != level[p.index[x]] + 1:
            return None
    expected = sum(sizes[i] * sizes[i + 1] for i in range(nlev - 1))
    if len(p.covers) != expected:
        return None
    return tuple(sizes)


def element_name(e: Element) -> str:
    """Stable printable id; rank-indexed elements render as ``y<rank>_<index>``."""
    if isinstance(e, tuple) and len(e) == 2 and all(isinstance(x, int) for x in e):
        return f"y{e[0]}_{e[1]}"
    return str(e)


def poset_from_json(text: str) -> Poset:
    data = json.loads(text)
    elements, covers = data["elements"], data["covers"]
    if not isinstance(elements, list) or not isinstance(covers, list):
        raise ValueError("elements and covers must be JSON arrays")
    if not all(isinstance(c, list) and len(c) == 2 for c in covers):
        raise ValueError("each cover must be a two-item array")
    names = {}  # dd prints each element by its name, so no two may share one
    for e in elements:
        if (first := names.setdefault(element_name(e), e)) != e:
            raise ValueError(f"elements {first!r} and {e!r} print as one name {element_name(e)!r}")
    return Poset(tuple(elements), tuple(map(tuple, covers)))
