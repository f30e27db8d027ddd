"""Exact double descriptions of order, chain, and chain-order polytopes.

Inequality systems use integer coefficients only; vertex computations are done
with exact integer or rational arithmetic.  Rows are kept in a canonical sort
order so that structurally equal systems compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .errors import MAX_POINTS, BudgetError, ConfigError
from .posets import Poset, check_cut, make_maximal_ranked, mask_to_tuple
from .posets import maximal_antichains  # unused: a perfbench tracing target until ROADMAP item 1

Row = tuple[tuple[int, ...], int]

ZERO_ONE_MAX_VARS = 30
EXACT_ENUM_MAX_RAYS = 10**5
LATTICE_MAX_STATES = 10**5
LATTICE_MAX_STEPS = 10**6


@dataclass(frozen=True)
class HRep:
    """System ``coeffs . x <= rhs`` of int rows, with no equations: every
    polytope here is full-dimensional (Stanley, "Two poset polytopes", 1986).
    Its `lattice_point_count` plan is cached at first use, kept out of ==, hash and repr."""

    var_names: tuple
    ineqs: tuple[Row, ...]

    def __post_init__(self):
        n = len(self.var_names)
        for coeffs, rhs in self.ineqs:
            if len(coeffs) != n:
                raise ValueError("row length does not match variable count")
            if type(rhs) is not int or not set(map(type, coeffs)) <= {int}:
                raise ValueError(f"row {coeffs} <= {rhs} has an entry that is not an int")
        if len(set(self.ineqs)) != len(self.ineqs):
            raise ValueError("duplicate rows")
        object.__setattr__(self, "ineqs", tuple(sorted(self.ineqs)))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def eqs(self) -> tuple:  # always empty: perfbench reads it until ROADMAP item 1
        return ()

    @cached_property
    def _lattice_plan(self):
        """`lattice_point_count` at t = 1: None for no point, else the start and the step per coordinate."""
        least = dict(reversed(self.ineqs))  # class -> least rhs, its first row in sorted order
        if any(b < sum(c for c in s if c < 0) for s, b in least.items()):
            return None
        classes = [s for s in least if any(s)]
        start, steps = tuple(least[s] for s in classes), []
        for i in range(self.n_vars):
            sources: dict[tuple[int, ...], list[tuple[int, int]]] = {}  # class after i -> (class, coefficient at i)
            for p, s in enumerate(classes):
                sources.setdefault(s[1:], []).append((p, s[0]))
            # a lone class with coefficient 0 at i keeps its budget, already checked
            keep = [srcs[0][0] for srcs in sources.values() if len(srcs) == 1 and not srcs[0][1]]
            moved = [(s, srcs) for s, srcs in sources.items() if len(srcs) > 1 or srcs[0][1]]
            steps.append((keep, [(srcs, sum(c for c in s if c < 0), any(s)) for s, srcs in moved]))
            classes = [classes[p][1:] for p in keep] + [s for s, _ in moved if any(s)]
        return start, steps


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


def _check_row_count(p: Poset, chain_part: int, max_points: int) -> None:
    """Count the rows of `_build_rows` from the covers; more than ``max_points`` raise."""
    inside = [bool(chain_part >> i & 1) for i in range(p.n)]
    # chains from the bottom, or from v itself outside the chain part, to v
    ways = [1] * p.n
    rows = chain_part.bit_count()
    for v in p.linear_extension:
        ups, downs = p.up_covers[v], p.down_covers[v]
        if inside[v]:
            ways[v] = sum(ways[u] for u in downs) or 1
        elif not downs:
            rows += 1  # the bottom below v
        rows += ways[v] * (sum(not inside[u] for u in ups) if ups else 1)
    if rows > max_points:
        raise BudgetError(f"{rows} facet rows exceed the point budget {max_points}")


def _build_rows(p: Poset, chain_part: int) -> list[Row]:
    """Facet rows of the polytope whose chain part is the down-set
    ``chain_part`` (a position mask): O(P) when it is empty, C(P) when full.

    One row ``-x_i <= 0`` per i in the chain part, and one row
    ``x_s + x_c1 + ... + x_cr - x_q <= 0`` per saturated chain s < c_1 < ...
    < c_r < q of the extended poset with the c's inside the chain part and s,
    q outside, the adjoined bottom reading 0 and the top 1; s is the bottom
    when r > 0 (Stanley, "Two poset polytopes", 1986; Fang, Fourier, Litza and
    Pegel, "A continuous family of marked poset polytopes", 2020).  The empty
    poset's 0 <= 1 gives no row.  No budget is checked here: every caller
    counts the rows first by `_check_row_count`.
    """
    n = p.n
    inside = [bool(chain_part >> i & 1) for i in range(n)]
    out = [(_unit(n, i, -1), 0) for i in range(n) if inside[i]]
    top = (n,)  # the adjoined top, as a coordinate after the last
    minima = tuple(i for i in range(n) if not p.down_covers[i])
    # (positions summed so far, the positions covering the last of them)
    stack = [((), minima)] + [((s,), p.up_covers[s] or top) for s in range(n) if not inside[s]]
    while stack:
        path, ups = stack.pop()
        for q in ups:
            if q < n and inside[q]:
                stack.append((path + (q,), p.up_covers[q] or top))
                continue
            row = [0] * (n + 1)
            for i in path:
                row[i] = 1
            row[q] = -1
            out.append((tuple(row[:n]), -row[n]))  # the top reads 1
    return out


def chain_order_dd(p: Poset, chain_part: int, max_points: int = MAX_POINTS) -> tuple[VRep, HRep]:
    """Double description of the polytope whose chain part is the down-set
    ``chain_part`` (a position mask): O(P) when it is empty, C(P) when full.

    The rows are `_build_rows`; the vertices are the indicator vectors
    of A | F, F an up-set of P inside O = P \\ C and A an antichain of C with
    up(a) & O inside F for each a in A (Stanley, 1986; Fang, Fourier, Litza
    and Pegel, 2020).  A search over the antichains M of O takes F = up(M),
    then searches the antichains of the elements of C that F admits; each
    node is one vertex, and none repeats.  ``max_points`` (``MAX_POINTS`` by
    default) bounds the rows, counted before the search and built after it,
    and the vertices as they are found; the search also stops at an antichain
    of more than ``max_points.bit_length()`` elements, whose subsets alone are
    more vertices than that.  A chain part that is not a down-set of P's
    positions raises `ConfigError`.
    """
    if chain_part >> p.n or any(p.below_masks[i] & ~chain_part for i in mask_to_tuple(chain_part)):
        raise ConfigError(f"chain part {chain_part:#b} is not a down-set of the {p.n} positions")
    _check_row_count(p, chain_part, max_points)
    n, above = p.n, p.above_masks
    order_part = ((1 << n) - 1) & ~chain_part
    up = [(1 << i) | a for i, a in enumerate(above)]
    exclude = [u | b for u, b in zip(up, p.below_masks)]
    # per element a of C, the elements of O that F must hold to admit it
    needs = [(1 << i, above[i] & order_part) for i in range(n) if chain_part >> i & 1]
    depth = max_points.bit_length()
    vertices = []
    # (vertex mask, candidates below the element taken last, antichain size,
    # over O): the branch with the most candidates comes off the stack first
    stack = [(0, order_part, 0, True)]
    while stack:
        mask, cand, size, outer = stack.pop()
        if size > depth:
            raise BudgetError(f"at least {1 << size} vertices exceed the point budget {max_points}")
        vertices.append(tuple([mask >> i & 1 for i in range(n)]))
        if len(vertices) > max_points:
            raise BudgetError(f"{len(vertices)} vertices exceed the point budget {max_points}")
        searches = [(cand, size, outer)]
        if outer:  # A is empty here: start the search over the chain elements F admits
            searches.append((sum(bit for bit, need in needs if not need & ~mask), 0, False))
        for pool, taken, over_o in searches:
            for v in mask_to_tuple(pool):
                below_v = pool & ((1 << v) - 1) & ~exclude[v]
                stack.append((mask | (up[v] if over_o else 1 << v), below_v, taken + 1, over_o))
    return VRep(vertices), HRep(p.elements, tuple(_build_rows(p, chain_part)))


def order_polytope_dd(p: Poset) -> tuple[VRep, HRep]:
    """`chain_order_dd` with no chain part: the vertices are the up-sets."""
    return chain_order_dd(p, 0)


def chain_polytope_dd(p: Poset) -> tuple[VRep, HRep]:
    """`chain_order_dd` with all of P as chain part: the vertices are the antichains."""
    return chain_order_dd(p, (1 << p.n) - 1)


def chain_order_hrep(tau, k: int) -> HRep:
    """The rows of `chain_order_dd` on P_tau with the ranks up to the cut k as
    chain part: a bad cut raises, then the rows are counted against the
    default point budget by `_check_row_count` before `_build_rows` builds any."""
    tau = check_cut(tau, k)
    p = make_maximal_ranked(tau)  # positions run rank by rank
    part = (1 << sum(tau[:k])) - 1
    _check_row_count(p, part, MAX_POINTS)
    return HRep(p.elements, tuple(_build_rows(p, part)))


def _parity(row: Sequence[int]) -> int:
    return sum(1 << c for c, v in enumerate(row) if v & 1)


def _gf2_rank(masks, full: int) -> int:
    basis: dict[int, int] = {}  # leading bit -> row of an XOR basis over GF(2), of at most `full` rows
    for x in masks:
        while x and (lead := x.bit_length()) in basis:
            x ^= basis[lead]
        if x:
            basis[lead] = x
            if len(basis) == full:
                break
    return len(basis)


def int_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, by Bareiss fraction-free elimination.

    The 0/1 search calls this only where its own GF(2) rank of the same rows
    falls short, so a GF(2) shortcut here could never succeed there.  It is
    called through the module global that perfbench wraps (ROADMAP item 1).
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    full = min(nrows, ncols)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            f = m[r][col]
            for c in range(col, ncols):
                m[r][c] = (m[r][c] * p - f * m[rank][c]) // prev
        prev = p
        rank += 1
        if rank == full:
            break
    return rank


def _row_bounds(h: HRep) -> list[tuple[tuple[int, ...], list[int]]]:
    """The rows, each with the most its partial sum over coordinates < i may
    be for every depth i of a 0/1 point: rhs less the least the rest can add."""
    rows = []
    for coeffs, rhs in h.ineqs:
        most = [rhs] * (len(coeffs) + 1)
        for i in reversed(range(len(coeffs))):
            most[i] = most[i + 1] - min(coeffs[i], 0)
        rows.append((coeffs, most))
    return rows


def zero_one_vertices(h: HRep) -> VRep:
    """All 0/1 points of the system whose tight rows have full rank.

    Bounded backtracking: the coordinates are fixed in order, each row's
    partial sum is kept, and a branch is cut once a row's partial sum leaves
    its bound from `_row_bounds`; only the rows with a nonzero coefficient at
    the coordinate just fixed are checked, in order, up to the first one past
    its bound.  A leaf's tight rows and their parities are collected in one
    loop; their rank is the parities' over GF(2), or `int_matrix_rank`'s where
    that falls short.  A reference for `chain_order_dd`, which lists the
    vertices by their closed form: it finds them from the rows alone, by rank.
    `vertex_enum_exact` is the independent check that the polytopes here have
    0/1 vertices only.
    """
    n = h.n_vars
    if n > ZERO_ONE_MAX_VARS:
        raise BudgetError(f"{n} variables exceeds the 0/1 enumeration limit {ZERO_ONE_MAX_VARS}")
    rows = _row_bounds(h)
    if any(most[0] < 0 for _, most in rows):
        return VRep(())
    # per coordinate, the rows it moves: (row, coefficient, bound after it)
    moved = [[(j, c[i], most[i + 1]) for j, (c, most) in enumerate(rows) if c[i]] for i in range(n)]
    sums = [0] * len(rows)
    parities = [(_parity(c), c, r) for c, r in h.ineqs]
    found: list[tuple[int, ...]] = []

    def extend(i: int, point: tuple[int, ...]) -> None:
        if i == n:
            masks, tight = [], []
            for (m, c, r), s in zip(parities, sums):
                if s == r:
                    masks.append(m)
                    tight.append(c)
            if _gf2_rank(masks, n) == n or len(tight) >= n and int_matrix_rank(tight) == n:
                found.append(point)
            return
        for x in (0, 1):
            if x:
                for j, c, _ in moved[i]:
                    sums[j] += c
            for j, _, most in moved[i]:
                if sums[j] > most:
                    break
            else:
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
    to the cone ``{(t, x) : b t - A x >= 0, t >= 0}``, which starts as all of
    Z^(n+1), held as lineality generators, and is cut by one row at a time.  A
    row that is nonzero on the lineality space uses up one generator, kept as
    a ray on the row's positive side; the generators and rays it is 0 on stay
    as they are.  Otherwise each ray on its positive side is combined with
    each adjacent ray on its negative side; adjacency is the combinatorial
    test on zero sets, int bitmasks over the rows processed so far: the pair's
    common zero set has enough rows, and a count over the rays held finds
    exactly two zero on all of it, the pair itself.  Each value on the row is
    a loop over the row's nonzero entries.  Rays stay integral and
    gcd-reduced, so the cost grows with the rays held, not with C(m, n).  The
    vertices are the rays with t > 0, divided by t when t > 1; an empty or
    non-pointed polyhedron has none.  Entries are ints where integral,
    Fractions otherwise.
    """
    n = h.n_vars
    rows = [_unit(n + 1, 0), *((rhs, *(-c for c in coeffs)) for coeffs, rhs in h.ineqs)]
    lineality = [_unit(n + 1, i) for i in range(n + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, zero set as a row bitmask)
    for done, row in enumerate(rows):
        bit = 1 << done
        support = [(i, a) for i, a in enumerate(row) if a]
        vals, signed = [], []
        for l in lineality:
            v = 0
            for i, a in support:
                v += a * l[i]
            vals.append(v)
        for r, z in rays:
            v = 0
            for i, a in support:
                v += a * r[i]
            signed.append((r, z, v))
        piv = next((j for j, v in enumerate(vals) if v), None)
        if piv is not None:
            # the row cuts the lineality space: move the rays and the other generators
            # onto its hyperplane along the pivot; a0 * g reduces to g, so a g at 0 stays
            l0, a0 = lineality.pop(piv), vals.pop(piv)
            if a0 < 0:
                l0, a0 = tuple(-y for y in l0), -a0
            lineality = [
                _primitive([a0 * y - v * y0 for y, y0 in zip(l, l0)]) if v else l for l, v in zip(lineality, vals)
            ]
            rays = [(_primitive([a0 * y - v * y0 for y, y0 in zip(r, l0)]) if v else r, z | bit) for r, z, v in signed]
            rays.append((l0, bit - 1))  # a former generator is tight on every earlier row
            _rays_held(len(rays), done, len(rows))
            continue
        pos = [s for s in signed if s[2] > 0]
        neg = [s for s in signed if s[2] < 0]
        rays = [(r, z | bit) for r, z, v in signed if v == 0] + [(r, z) for r, z, _ in pos]
        masks = [z for _, z, _ in signed]
        need = n - 1 - len(lineality)  # rank of the processed rows, less 2
        for rp, zp, vp in pos:
            for rn, zn, vn in neg:
                common = zp & zn
                if common.bit_count() < need:
                    continue
                hits = 0
                for m in masks:
                    if common & m == common:
                        hits += 1
                if hits == 2:
                    rays.append((_primitive([vp * b - vn * a for a, b in zip(rp, rn)]), common | bit))
                    _rays_held(len(rays), done, len(rows))
    if lineality:
        return ()
    vertices = [r[1:] for r, _ in rays if r[0] == 1]
    vertices += [tuple(y // r[0] if y % r[0] == 0 else Fraction(y, r[0]) for y in r[1:]) for r, _ in rays if r[0] > 1]
    return tuple(sorted(vertices))  # ints and Fractions compare by value: the order of the Fraction key


def lattice_point_count(h: HRep, t: int) -> int:
    """Number of integer points of the t-th dilate, counted in {0..t}^n.

    Valid for polytopes inside the unit cube, which covers every family here.
    A dynamic programme over the coordinates in order.  The rows fall into
    classes by their coefficients on the coordinates still to fix; of the rows
    in a class, only the one with the least budget (t * rhs less its partial
    sum) can bind, so a state keeps that least budget per class, and counts
    the prefixes that reach it.  Fixing a coordinate drops it from every
    class, which merges the classes that then agree, each budget the running
    minimum of its sources' budgets less coefficient times value.  A prefix is
    cut at the first budget below t times the least the coordinates still to
    fix can add; a class with no coordinates left is checked and dropped.  All
    of this but t is `HRep._lattice_plan`, built once per H-rep.

    The work of each coordinate, its states times the t + 1 values it
    takes, is bounded by ``LATTICE_MAX_STEPS`` before the coordinate is
    fixed, and the states held after it by ``LATTICE_MAX_STATES``.
    """
    n = h.n_vars
    if t < 1:
        raise ValueError("dilation factor must be positive")
    if h._lattice_plan is None:
        return 0
    start, steps = h._lattice_plan
    states = {tuple([t * b for b in start]): 1}  # least budget per class -> number of prefixes
    for i, (keep, merges) in enumerate(steps):
        if len(states) * (t + 1) > LATTICE_MAX_STEPS:
            raise BudgetError(
                f"lattice count: {len(states)} states times {t + 1} values at coordinate {i + 1} of {n}"
                f" exceed {LATTICE_MAX_STEPS} steps"
            )
        checks = [(srcs[0], srcs[1:], t * lo, live) for srcs, lo, live in merges]
        nxt: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            kept = tuple([state[p] for p in keep])
            for x in range(t + 1):
                budgets = []
                for (p, c), rest, lo, live in checks:
                    b = state[p] - c * x
                    for p, c in rest:
                        if (v := state[p] - c * x) < b:
                            b = v
                    if b < lo:
                        break
                    if live:
                        budgets.append(b)
                else:
                    key = kept + tuple(budgets)
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
        if len(states) > LATTICE_MAX_STATES:
            raise BudgetError(
                f"lattice count: {len(states)} states after coordinate {i + 1} of {n} exceed {LATTICE_MAX_STATES}"
            )
    return sum(states.values())
