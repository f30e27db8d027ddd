"""Exact double descriptions of order, chain, and chain-order polytopes.

Inequality systems use integer coefficients only; vertex computations are done
with exact integer or rational arithmetic.  Rows are kept in a canonical sort
order so that structurally equal systems compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import BudgetError, InconsistentInputError
from .linalg import affine_rank, int_matrix_rank
from .posets import Poset, check_tau, make_maximal_ranked, maximal_antichains, maximal_chains

Row = tuple[tuple[int, ...], int]

ZERO_ONE_MAX_VARS = 30
EXACT_ENUM_MAX_RAYS = 10**5
LATTICE_MAX_VARS = 12
LATTICE_MAX_DILATION = 4
LATTICE_MAX_POINTS = 10**8
_CHUNK = 1 << 16


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


def satisfies(point, h: HRep) -> bool:
    """Exact membership test."""
    for coeffs, rhs in h.ineqs:
        if sum(c * x for c, x in zip(coeffs, point)) > rhs:
            return False
    for coeffs, rhs in h.eqs:
        if sum(c * x for c, x in zip(coeffs, point)) != rhs:
            return False
    return True


def _unit(n: int, i: int, sign: int = 1) -> tuple[int, ...]:
    row = [0] * n
    row[i] = sign
    return tuple(row)


def _filter_of(p: Poset, seed: tuple[int, ...]) -> int:
    """Bitmask of the up-set generated by the given positions."""
    mask = 0
    for i in seed:
        mask |= (1 << i) | p.above_masks[i]
    return mask


def order_polytope_dd(p: Poset) -> tuple[VRep, HRep]:
    """Double description of the order polytope.

    Vertices are indicator vectors of up-sets, generated from subsets of
    maximal antichains; inequalities are the arcs of the extended Hasse diagram
    with the adjoined bottom and top replaced by the constants 0 and 1.
    """
    n = p.n
    masks: set[int] = set()
    for ac in maximal_antichains(p) or [()]:
        pos = [p.index[e] for e in ac]
        for r in range(len(pos) + 1):
            for sub in combinations(pos, r):
                masks.add(_filter_of(p, sub))
    verts = tuple(tuple((m >> i) & 1 for i in range(n)) for m in masks)
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
    verts: set[tuple[int, ...]] = set()
    for ac in maximal_antichains(p) or [()]:
        pos = [p.index[e] for e in ac]
        for r in range(len(pos) + 1):
            for sub in combinations(pos, r):
                v = [0] * n
                for i in sub:
                    v[i] = 1
                verts.add(tuple(v))
    rows: list[Row] = [(_unit(n, i, -1), 0) for i in range(n)]
    for chain in maximal_chains(p):
        row = [0] * n
        for e in chain:
            row[p.index[e]] = 1
        rows.append((tuple(row), 1))
    return VRep(tuple(verts)), HRep(p.elements, tuple(rows))


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
    # chain rows: one per tuple of single elements from ranks 1..k+1
    def tuples_through(depth: int):
        if depth == 0:
            yield ()
            return
        for prefix in tuples_through(depth - 1):
            for t in range(1, tau[depth - 1] + 1):
                yield prefix + ((depth, t),)

    if k == ell:
        for chain in tuples_through(ell):
            row = [0] * n
            for e in chain:
                row[p.index[e]] = 1
            rows.append((tuple(row), 1))
    else:
        for chain in tuples_through(k):
            for t in range(1, tau[k] + 1):
                row = [0] * n
                for e in chain:
                    row[p.index[e]] = 1
                row[p.index[(k + 1, t)]] -= 1
                rows.append((tuple(row), 0))
    return HRep(p.elements, tuple(rows))


_NUMPY_COEFF_LIMIT = 10**9


def _as_int_arrays(h: HRep):
    big = max(
        (abs(x) for coeffs, rhs in h.ineqs + h.eqs for x in (*coeffs, rhs)), default=0
    )
    if big > _NUMPY_COEFF_LIMIT:
        raise ValueError("coefficients too large for the fixed-width enumeration path")
    a = np.array([c for c, _ in h.ineqs], dtype=np.int64).reshape(len(h.ineqs), h.n_vars)
    b = np.array([r for _, r in h.ineqs], dtype=np.int64)
    if h.eqs:
        ae = np.array([c for c, _ in h.eqs], dtype=np.int64).reshape(len(h.eqs), h.n_vars)
        be = np.array([r for _, r in h.eqs], dtype=np.int64)
    else:
        ae = np.zeros((0, h.n_vars), dtype=np.int64)
        be = np.zeros(0, dtype=np.int64)
    return a, b, ae, be


def zero_one_vertices(h: HRep) -> VRep:
    """All 0/1 points of the system whose tight rows have full rank.

    This is the production vertex enumerator for the polytope families here,
    all of which have 0/1 vertices; `vertex_enum_exact` is the independent
    check of that assumption.
    """
    n = h.n_vars
    if n > ZERO_ONE_MAX_VARS:
        raise BudgetError(f"{n} variables exceeds the 0/1 enumeration limit {ZERO_ONE_MAX_VARS}")
    a, b, ae, be = _as_int_arrays(h)
    shifts = np.arange(n, dtype=np.int64)
    found: list[tuple[int, ...]] = []
    for start in range(0, 1 << n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        pts = (idx[:, None] >> shifts) & 1
        ok = (pts @ a.T <= b).all(axis=1)
        if len(be):
            ok &= (pts @ ae.T == be).all(axis=1)
        for pt in pts[ok]:
            point = tuple(int(x) for x in pt)
            tight = [c for c, r in h.ineqs if sum(ci * xi for ci, xi in zip(c, point)) == r]
            tight.extend(c for c, _ in h.eqs)
            if len(tight) >= n and int_matrix_rank(tight) == n:
                found.append(point)
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
    """
    n = h.n_vars
    if t < 1:
        raise ValueError("dilation factor must be positive")
    if n > LATTICE_MAX_VARS or t > LATTICE_MAX_DILATION:
        raise BudgetError(f"lattice count budget exceeded (n={n}, t={t})")
    total = (t + 1) ** n
    if total > LATTICE_MAX_POINTS:
        raise BudgetError(f"(t+1)^n = {total} exceeds {LATTICE_MAX_POINTS}")
    a, b, ae, be = _as_int_arrays(h)
    b = b * t
    be = be * t
    base = t + 1
    weights = base ** np.arange(n, dtype=np.int64)
    count = 0
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        pts = (idx[:, None] // weights) % base
        ok = (pts @ a.T <= b).all(axis=1)
        if len(be):
            ok &= (pts @ ae.T == be).all(axis=1)
        count += int(ok.sum())
    return count


def verify_double_description(v: VRep, h: HRep) -> None:
    """Check consistency of a vertex/facet pair; raise on any defect.

    Every vertex must satisfy the system and every inequality row must be
    facet-defining: tight on a vertex subset of affine rank n-1.
    """
    n = h.n_vars
    for vert in v.vertices:
        if not satisfies(vert, h):
            raise InconsistentInputError(f"vertex {vert} violates the inequality system")
    for coeffs, rhs in h.ineqs:
        tight = [vert for vert in v.vertices if sum(c * x for c, x in zip(coeffs, vert)) == rhs]
        if not tight or affine_rank(tight) != n - 1:
            raise InconsistentInputError(f"row {coeffs} <= {rhs} is not facet-defining")
