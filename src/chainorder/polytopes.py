"""Exact double descriptions of order, chain, and chain-order polytopes.

Inequality systems use integer coefficients only; vertex computations are done
with exact integer or rational arithmetic.  Rows are kept in a canonical sort
order so that structurally equal systems compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import BudgetError
from .linalg import int_matrix_rank
from .posets import Poset, check_tau, make_maximal_ranked, maximal_antichains, maximal_chains

Row = tuple[tuple[int, ...], int]

ZERO_ONE_MAX_VARS = 30
EXACT_ENUM_MAX_RAYS = 10**5
LATTICE_MAX_VARS = 12
LATTICE_MAX_DILATION = 4
LATTICE_MAX_POINTS = 10**8


@dataclass(frozen=True)
class HRep:
    """System ``coeffs . x <= rhs`` (ineqs) and ``coeffs . x = rhs`` (eqs)."""

    var_names: tuple
    ineqs: tuple[Row, ...]
    eqs: tuple[Row, ...] = ()

    def __post_init__(self):
        n = len(self.var_names)
        for coeffs, _ in self.ineqs + self.eqs:
            if len(coeffs) != n:
                raise ValueError("row length does not match variable count")
        if len(set(self.ineqs)) != len(self.ineqs) or len(set(self.eqs)) != len(self.eqs):
            raise ValueError("duplicate rows")
        object.__setattr__(self, "ineqs", tuple(sorted(self.ineqs)))
        object.__setattr__(self, "eqs", tuple(sorted(self.eqs)))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


@dataclass(frozen=True)
class VRep:
    """Deduplicated, canonically sorted vertex list."""

    vertices: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))

    @property
    def n(self) -> int:
        return len(self.vertices)


def _unit(n: int, i: int, sign: int = 1) -> tuple[int, ...]:
    row = [0] * n
    row[i] = sign
    return tuple(row)


def _antichain_vertices(p: Poset, spans: list[int]) -> tuple[tuple[int, ...], ...]:
    """Indicator vectors of the unions of ``spans[i]`` over the positions i of
    each subset of each maximal antichain, without repeats."""
    masks: set[int] = set()
    for ac in maximal_antichains(p) or [()]:
        pos = [p.index[e] for e in ac]
        for r in range(len(pos) + 1):
            for sub in combinations(pos, r):
                mask = 0
                for i in sub:
                    mask |= spans[i]
                masks.add(mask)
    return tuple(tuple((m >> i) & 1 for i in range(p.n)) for m in masks)


def order_polytope_dd(p: Poset) -> tuple[VRep, HRep]:
    """Double description of the order polytope.

    Vertices are indicator vectors of up-sets, generated from subsets of
    maximal antichains; inequalities are the arcs of the extended Hasse diagram
    with the adjoined bottom and top replaced by the constants 0 and 1.
    """
    n = p.n
    verts = _antichain_vertices(p, [(1 << i) | above for i, above in enumerate(p.above_masks)])  # up-sets
    rows: list[Row] = []
    for e in p.minimal_elements():
        rows.append((_unit(n, p.index[e], -1), 0))  # 0 <= x_e
    for a, b in p.covers:
        row = [0] * n
        row[p.index[a]] = 1
        row[p.index[b]] = -1
        rows.append((tuple(row), 0))  # x_a <= x_b
    for e in p.maximal_elements():
        rows.append((_unit(n, p.index[e]), 1))  # x_e <= 1
    return VRep(verts), HRep(p.elements, tuple(rows))


def chain_polytope_dd(p: Poset) -> tuple[VRep, HRep]:
    """Double description of the chain polytope.

    Vertices are indicator vectors of antichains; one sum inequality is added
    per maximal chain, on top of nonnegativity for every coordinate.
    """
    n = p.n
    verts = _antichain_vertices(p, [1 << i for i in range(n)])  # the antichains themselves
    rows: list[Row] = [(_unit(n, i, -1), 0) for i in range(n)]
    for chain in maximal_chains(p):
        row = [0] * n
        for e in chain:
            row[p.index[e]] = 1
        rows.append((tuple(row), 1))
    return VRep(verts), HRep(p.elements, tuple(rows))


def chain_order_hrep(tau, k: int) -> HRep:
    """Facet system of the chain-order polytope of a maximal ranked poset.

    Ranks up to the cut get nonnegativity rows; covers strictly above the cut
    keep their order rows (with unit upper bounds at the top rank); and every
    choice of one element per rank through the cut yields a chain row whose
    right side is the first element above the cut, or the constant 1 when the
    cut swallows the whole poset.
    """
    tau = check_tau(tau)
    ell = len(tau)
    if not 0 <= k <= ell:
        raise ValueError(f"k must be in [0, {ell}], got {k}")
    p = make_maximal_ranked(tau)
    n = p.n
    rows: list[Row] = []
    for e in p.elements:
        if e[0] <= k:
            rows.append((_unit(n, p.index[e], -1), 0))
    for a, b in p.covers:
        if a[0] >= k + 1:
            row = [0] * n
            row[p.index[a]] = 1
            row[p.index[b]] = -1
            rows.append((tuple(row), 0))
    if k < ell:
        for e in p.elements:
            if e[0] == ell:
                rows.append((_unit(n, p.index[e]), 1))
    # chain rows: one per choice of an element from each rank through the
    # cut, less one element just above it, or at most 1 when there is none
    ranks = [[(r, t) for t in range(1, tau[r - 1] + 1)] for r in range(1, k + 1)]
    for chain in product(*ranks):
        for top in [(k + 1, t) for t in range(1, tau[k] + 1)] if k < ell else [None]:
            row = [0] * n
            for e in chain:
                row[p.index[e]] = 1
            if top is not None:
                row[p.index[top]] = -1
            rows.append((tuple(row), 1 if top is None else 0))
    return HRep(p.elements, tuple(rows))


def _dilated_rows(h: HRep, t: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Rows of the t-th dilate as inequalities, equations also negated after
    all the original rows, each with the most its partial sum over coordinates
    < i may be for every depth i: t * rhs less the least the rest can add."""
    flipped = tuple((tuple(-c for c in coeffs), -rhs) for coeffs, rhs in h.eqs)
    rows = []
    for coeffs, rhs in h.ineqs + h.eqs + flipped:
        most = [t * rhs] * (len(coeffs) + 1)
        for i in reversed(range(len(coeffs))):
            most[i] = most[i + 1] - t * min(coeffs[i], 0)
        rows.append((coeffs, most))
    return rows


def zero_one_vertices(h: HRep, max_nodes: int | None = None) -> VRep:
    """All 0/1 points of the system whose tight rows have full rank.

    Bounded backtracking: the coordinates are fixed in order, each row's
    partial sum is kept, and a branch is cut once a row's partial sum leaves
    its bound from `_dilated_rows`; only the rows with a nonzero coefficient
    at the coordinate just fixed are checked.  This is the production vertex
    enumerator for the polytope families here, all of which have 0/1
    vertices; `vertex_enum_exact` is the independent check of that assumption.
    ``max_nodes`` bounds the nodes of the search tree visited, leaves included.
    """
    n = h.n_vars
    if n > ZERO_ONE_MAX_VARS:
        raise BudgetError(f"{n} variables exceeds the 0/1 enumeration limit {ZERO_ONE_MAX_VARS}")
    rows = _dilated_rows(h, 1)
    if any(most[0] < 0 for _, most in rows):
        return VRep(())
    # per coordinate, the rows it moves: (row, coefficient, bound after it)
    moved = [[(j, c[i], most[i + 1]) for j, (c, most) in enumerate(rows) if c[i]] for i in range(n)]
    sums = [0] * len(rows)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(i: int, point: tuple[int, ...]) -> None:
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetError(f"0/1 vertex search stopped after {max_nodes} nodes with {len(found)} vertices kept")
        if i == n:
            tight = [c for (c, r), s in zip(h.ineqs + h.eqs, sums) if s == r]
            if len(tight) >= n and int_matrix_rank(tight) == n:
                found.append(point)
            return
        for x in (0, 1):
            if x:
                for j, c, _ in moved[i]:
                    sums[j] += c
            if all(sums[j] <= most for j, _, most in moved[i]):
                extend(i + 1, point + (x,))
        for j, c, _ in moved[i]:
            sums[j] -= c

    extend(0, ())
    return VRep(tuple(found))


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _rays_held(held: int, done: int, total: int) -> None:
    if held > EXACT_ENUM_MAX_RAYS:
        raise BudgetError(f"{held} rays held after {done} of {total} rows exceed {EXACT_ENUM_MAX_RAYS}")


def vertex_enum_exact(h: HRep):
    """Exact vertex enumeration by the double-description method.

    Independent of any 0/1 structure (Motzkin et al.; Fukuda and Prodon,
    "Double description method revisited", 1996).  The system is homogenised
    to the cone ``{(t, x) : b t - A x >= 0, d t - E x = 0, t >= 0}``, which
    starts as all of Z^(n+1), held as lineality generators, and is cut by one
    row at a time.  A row that is nonzero on the lineality space uses up one
    generator.  Otherwise each ray on its positive side is combined with each
    adjacent ray on its negative side; adjacency is the combinatorial test on
    zero sets, int bitmasks over the rows processed so far.  Rays stay
    integral and gcd-reduced, so the cost grows with the rays held, not with
    C(m, n).  The vertices are the rays with t > 0, divided by t; an empty or
    non-pointed polyhedron has none.  Entries are ints where integral,
    Fractions otherwise.
    """
    n = h.n_vars
    if len(h.eqs) > n:
        raise ValueError("more equations than variables")
    rows = [((rhs, *(-c for c in coeffs)), True) for coeffs, rhs in h.eqs]
    rows.append((_unit(n + 1, 0), False))
    rows.extend(((rhs, *(-c for c in coeffs)), False) for coeffs, rhs in h.ineqs)
    lineality = [_unit(n + 1, i) for i in range(n + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, zero set as a row bitmask)
    for done, (row, is_eq) in enumerate(rows):
        bit = 1 << done
        vals = [sum(a * y for a, y in zip(row, l)) for l in lineality]
        signed = [(r, z, sum(a * y for a, y in zip(row, r))) for r, z in rays]
        piv = next((j for j, v in enumerate(vals) if v), None)
        if piv is not None:
            # the row cuts the lineality space: move the rays and the other
            # generators onto its hyperplane along the pivot generator
            l0, a0 = lineality.pop(piv), vals.pop(piv)
            if a0 < 0:
                l0, a0 = tuple(-y for y in l0), -a0
            lineality = [_primitive([a0 * y - v * y0 for y, y0 in zip(l, l0)]) for l, v in zip(lineality, vals)]
            rays = [(_primitive([a0 * y - v * y0 for y, y0 in zip(r, l0)]), z | bit) for r, z, v in signed]
            if not is_eq:
                rays.append((l0, bit - 1))  # a former generator is tight on every earlier row
            _rays_held(len(rays), done, len(rows))
            continue
        pos = [s for s in signed if s[2] > 0]
        neg = [s for s in signed if s[2] < 0]
        rays = [(r, z | bit) for r, z, v in signed if v == 0] + ([] if is_eq else [(r, z) for r, z, _ in pos])
        masks = [z for _, z, _ in signed]
        need = n - 1 - len(lineality)  # rank of the processed rows, less 2
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                if common.bit_count() >= need and sum(common & m == common for m in masks) == 2:
                    rays.append((_primitive([vp * b - vn * a for a, b in zip(rp, rn)]), common | bit))
                    _rays_held(len(rays), done, len(rows))
    if lineality:
        return ()
    vertices = [tuple(y // r[0] if y % r[0] == 0 else Fraction(y, r[0]) for y in r[1:]) for r, _ in rays if r[0] > 0]
    return tuple(sorted(vertices))  # ints and Fractions compare by value: the order of the Fraction key


def lattice_point_count(h: HRep, t: int) -> int:
    """Number of integer points of the t-th dilate, counted in {0..t}^n.

    Valid for polytopes inside the unit cube, which covers every family here.
    A frontier dynamic programme over the coordinates in order: its state is
    the tuple of partial sums of the rows started but not finished, each
    state counts the prefixes that reach it, and a row is checked against its
    bound from `_dilated_rows` at each coordinate it moves, so against t * rhs
    when it closes.
    """
    n = h.n_vars
    if t < 1:
        raise ValueError("dilation factor must be positive")
    if n > LATTICE_MAX_VARS or t > LATTICE_MAX_DILATION:
        raise BudgetError(f"lattice count budget exceeded (n={n}, t={t})")
    total = (t + 1) ** n
    if total > LATTICE_MAX_POINTS:
        raise BudgetError(f"(t+1)^n = {total} exceeds {LATTICE_MAX_POINTS}")
    rows = _dilated_rows(h, t)
    if any(most[0] < 0 for _, most in rows):
        return 0
    support = [[i for i, c in enumerate(coeffs) if c] for coeffs, _ in rows]
    states = {(): 1}  # partial sums of the open rows -> number of prefixes
    frontier: list[int] = []  # rows started but not finished, in state order
    for i in range(n):
        live = frontier + [j for j, s in enumerate(support) if s and s[0] == i]
        opened = (0,) * (len(live) - len(frontier))
        coeffs = [rows[j][0][i] for j in live]
        checked = [(p, rows[j][1][i + 1]) for p, j in enumerate(live) if coeffs[p]]
        keep = [p for p, j in enumerate(live) if support[j][-1] > i]
        frontier = [live[p] for p in keep]
        nxt: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            state += opened
            for x in range(t + 1):
                sums = [s + c * x for s, c in zip(state, coeffs)]
                if all(sums[p] <= most for p, most in checked):
                    key = tuple(sums[p] for p in keep)
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return sum(states.values())
