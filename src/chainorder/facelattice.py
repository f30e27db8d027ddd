"""Faces and f-vectors from vertex-facet incidences, by two paths.

``count_faces`` is the face iterator of Kliem and Stump (arXiv:1905.01945): a
depth-first walk over coatoms that visits every nonempty face exactly once
using only AND and subset tests on vertex bitmasks, in O(dim * facets)
memory.  It yields the f-vector and nothing else.  Before the walk it peels
pyramids: a facet that misses exactly one vertex is the base of a pyramid
with that vertex as apex, and a pyramid's f-vector follows from its base's
by the pyramid formula.  The test reads incidences only, and it is exact,
since the faces of a pyramid are the faces of the base and the pyramids over
them, the apex being the one over the empty face.  Any one-element rank of
P_tau makes C(P_tau) a pyramid, and a one-element bottom or top rank makes
O(P_tau) one: on the n = 10 table, 42 of the 56 polytopes are pyramids, and
the walk visits 460,220 of their 821,320 faces.

``enumerate_faces`` builds the whole lattice from the same facet list, top
down one level at a time: the lower covers of a face are the
inclusion-maximal nonempty meets of it with the facets (Kaibel and Pfetsch,
2002).  The depth of a face below the polytope gives its dimension, which is
cross-checked against exact affine rank in the test suite.  It serves lattice
export and structural audits, and is the reference the iterator is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliques import mask_to_tuple
from .errors import BudgetError, InconsistentInputError
from .polytopes import HRep, VRep

__all__ = [
    "IncidenceMatrix",
    "FaceLattice",
    "incidence_matrix",
    "count_faces",
    "enumerate_faces",
    "f_vector",
]


@dataclass(frozen=True)
class IncidenceMatrix:
    """Tightness bits between vertices and facet inequalities (equations excluded)."""

    n_vertices: int
    n_facets: int
    vertex_facets: tuple[int, ...]  # per vertex: bitmask of tight facet rows
    facet_vertices: tuple[int, ...]  # per facet row: bitmask of tight vertices


def incidence_matrix(v: VRep, h: HRep) -> IncidenceMatrix:
    """Exact tightness bits; a vertex violating the system is a hard error."""
    nv = len(v.vertices)
    nf = len(h.ineqs)
    vmasks = [0] * nv
    fmasks = [0] * nf
    rows = [(coeffs, [(i, c) for i, c in enumerate(coeffs) if c], rhs) for coeffs, rhs in h.ineqs]
    for vi, vert in enumerate(v.vertices):
        for fi, (coeffs, support, rhs) in enumerate(rows):
            s = sum([c * vert[i] for i, c in support])
            if s > rhs:
                raise InconsistentInputError(f"vertex {vert} violates row {coeffs} <= {rhs}")
            if s == rhs:
                vmasks[vi] |= 1 << fi
                fmasks[fi] |= 1 << vi
        for coeffs, rhs in h.eqs:
            if sum(c * x for c, x in zip(coeffs, vert)) != rhs:
                raise InconsistentInputError(f"vertex {vert} violates equation {coeffs} = {rhs}")
    if len(set(fmasks)) != nf:
        raise InconsistentInputError("two facet rows are tight on the same vertex set")
    return IncidenceMatrix(nv, nf, tuple(vmasks), tuple(fmasks))


@dataclass(frozen=True)
class FaceLattice:
    """All faces (as vertex-index bitmasks), cover edges, and dimensions.

    Includes the bottom (empty) face and the top face; those two are excluded
    from the f-vector.
    """

    n_vertices: int
    face_masks: tuple[int, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]  # (lower face id, upper face id)
    bottom: int
    top: int

    @property
    def n_faces(self) -> int:
        return len(self.face_masks)

    @property
    def dim(self) -> int:
        return self.dims[self.top]

    def face_vertices(self, fid: int) -> tuple[int, ...]:
        return mask_to_tuple(self.face_masks[fid])


def _maximal(masks, top: int) -> list[int]:
    """The inclusion-maximal masks other than 0 and ``top``, without repeats."""
    rows = [m for m in dict.fromkeys(masks) if m and m != top]
    return [m for m in rows if not any(m != g and m & g == m for g in rows)]


def _facets(inc: IncidenceMatrix) -> list[int]:
    """Vertex masks of the facets: the inclusion-maximal nonempty proper tight
    sets.  A row tight on every vertex is an implicit equation, and a row tight
    on no vertex or on a smaller face is redundant."""
    return _maximal(inc.facet_vertices, (1 << inc.n_vertices) - 1)


def count_faces(inc: IncidenceMatrix, max_faces: int | None = None) -> tuple[int, ...]:
    """The f-vector, equal to ``f_vector(enumerate_faces(inc))``, without the lattice.

    First the pyramids are peeled.  A facet F that misses exactly one vertex v
    makes the polytope the pyramid over F with apex v.  Every other facet G
    holds v, since G is not inside F, so G is the pyramid over the facet F & G
    of F; the facets of F are these masks, kept by the rule of ``_facets``.  F
    replaces the polytope, once per apex.

    The base that is left is walked by the Kliem-Stump face iterator.  The
    coatoms of the base are its facets.  Popping a coatom H of the current
    face visits H; the coatoms of H are the inclusion-maximal nonempty masks
    H & G over the coatoms G still in the list, less those contained in an
    already visited face, whose subfaces were counted there.  A face at depth
    d below the base has dimension dim - 1 - d.  Each apex then folds the
    base's extended f-vector (1, f_0, ..., f_{d-1}, 1) by g'_i = g_i + g_{i-1}:
    a face of a pyramid is a face of its base, or the pyramid over one, or the
    apex (Ziegler, *Lectures on Polytopes*, 1995).

    ``max_faces`` bounds the nonempty faces of the polytope, itself included,
    as in ``enumerate_faces``.  With j apexes and a base of b nonempty faces
    there are (b + 1) * 2^j - 1, so the walk bounds b by what that leaves.
    Incidences that are not those of a polytope raise: vertices of the base at
    different depths, a face of several vertices at or below the vertex
    depth, or a vertex of the base that is not a face of its own.
    """
    top = (1 << inc.n_vertices) - 1
    facets = _facets(inc)
    apexes = 0
    while f := next((g for g in facets if (top ^ g).bit_count() == 1), 0):  # the base of a pyramid
        top, facets = f, _maximal([g & f for g in facets if g != f], f)
        apexes += 1
    nv = top.bit_count()
    budget = None if max_faces is None else ((max_faces + 1) >> apexes) - 1  # on the base's faces
    counts: list[int] = []  # faces per depth
    vertex_depths: set[int] = set()
    visited: list[int] = []
    found = 1  # the base
    n_vertex_faces = 0

    def walk(coatoms: list[int], depth: int) -> None:
        nonlocal found, n_vertex_faces
        found += len(coatoms)
        if budget is not None and found > budget:
            raise BudgetError(f"face budget {max_faces} exceeded")
        if depth == len(counts):
            counts.append(0)
        counts[depth] += len(coatoms)
        while coatoms:
            h = coatoms.pop()
            if h & (h - 1) == 0:
                vertex_depths.add(depth)
                n_vertex_faces += 1
                visited.append(h)
                continue
            if not coatoms:  # no meets, so no children
                visited.append(h)
                continue
            children: list[int] = []
            if len(coatoms) == 1:  # the one meet needs no set and no sort
                c = h & coatoms[0]
                if c:
                    for b in visited:
                        if c & b == c:
                            break
                    else:
                        children.append(c)
            else:
                meets = {h & g for g in coatoms}
                meets.discard(0)
                for c in sorted(meets, key=int.bit_count, reverse=True):
                    for b in children:
                        if c & b == c:
                            break
                    else:
                        for b in visited:
                            if c & b == c:
                                break
                        else:
                            children.append(c)
            if children:
                mark = len(visited)
                walk(children, depth + 1)
                del visited[mark:]  # subfaces of h, covered once h is visited
            visited.append(h)

    if budget is not None and found > budget:
        raise BudgetError(f"face budget {max_faces} exceeded")
    if facets or nv != 1:  # a point has no proper face to walk
        walk(facets, 0)
        if len(vertex_depths) != 1:
            raise InconsistentInputError("vertices not all at one depth; inconsistent incidences")
        (depth,) = vertex_depths
        if len(counts) != depth + 1 or counts[depth] != n_vertex_faces:
            raise InconsistentInputError("a face of several vertices at or below the vertex depth")
        if n_vertex_faces != nv:
            raise InconsistentInputError(f"{n_vertex_faces} of {nv} vertices are faces")
    ext = [1, *reversed(counts), 1]  # the base's faces per dimension, from -1 to its own
    for _ in range(apexes):
        ext = [a + b for a, b in zip([*ext, 0], [0, *ext])]
    return tuple(ext[1:-1]) or (1,)  # a point is reported as (1,), as in f_vector


def enumerate_faces(inc: IncidenceMatrix, max_faces: int | None = None) -> FaceLattice:
    """The whole face lattice, built top-down one level at a time from coatoms.

    Level 0 is the polytope and level 1 its facets.  The faces at level d + 1
    are the inclusion-maximal nonempty masks F & G over the faces F at level d
    and the facets G, and each is recorded as a lower cover of F (Kaibel and
    Pfetsch, 2002).  The vertices cover the empty face.  A face at depth d has
    dimension (vertex depth) - d.  Ids are canonical: the empty face is 0, and
    the other faces follow by dimension, then by vertex mask, so the polytope
    comes last.  Covers are sorted: listing each face's upper covers in id
    order, for the faces in id order, gives them so.

    ``max_faces`` bounds the nonempty faces, the polytope included, and is
    checked once per level.  Incidences that are not those of a polytope raise
    as in ``count_faces``, and so does a face reached at two depths.
    """
    nv = inc.n_vertices
    facets = _facets(inc)
    level = [(1 << nv) - 1]
    depth = {level[0]: 0}  # face mask -> depth below the polytope
    lower: dict[int, list[int]] = {}  # face mask -> masks of its lower covers
    levels: list[list[int]] = []
    d = 0
    while level:
        if max_faces is not None and len(depth) > max_faces:
            raise BudgetError(f"face budget {max_faces} exceeded")
        levels.append(level)
        d += 1
        below: list[int] = []
        for f in level:
            meets = {f & g for g in facets}
            meets -= {0, f}
            kept: list[int] = []
            for c in sorted(meets, key=int.bit_count, reverse=True):
                for b in kept:
                    if c & b == c:
                        break
                else:
                    kept.append(c)
                    if c not in depth:
                        depth[c] = d
                        below.append(c)
                    elif depth[c] != d:
                        raise InconsistentInputError("a face at two depths; inconsistent incidences")
            lower[f] = kept
        level = below
    vertex_depths = {dep for m, dep in depth.items() if m.bit_count() == 1}
    if len(vertex_depths) != 1:
        raise InconsistentInputError("vertices not all at one depth; inconsistent incidences")
    (top_dim,) = vertex_depths
    if any(dep >= top_dim and m.bit_count() > 1 for m, dep in depth.items()):
        raise InconsistentInputError("a face of several vertices at or below the vertex depth")
    if any((1 << v) not in depth for v in range(nv)):
        raise InconsistentInputError(f"{sum(m.bit_count() == 1 for m in depth)} of {nv} vertices are faces")
    masks = [m for faces in reversed(levels) for m in sorted(faces)]
    fid = {m: i for i, m in enumerate(masks, 1)}
    upper = [list(range(1, nv + 1))] + [[] for _ in masks]  # per face id: ids of its upper covers
    for u, f in enumerate(masks, 1):
        for c in lower[f]:
            upper[fid[c]].append(u)
    covers = tuple((fi, u) for fi, ups in enumerate(upper) for u in ups)
    dims = (-1, *(top_dim - depth[m] for m in masks))
    return FaceLattice(nv, (0, *masks), dims, covers, 0, len(masks))


def f_vector(fl: FaceLattice) -> tuple[int, ...]:
    """Face counts per dimension, bottom and top excluded.

    A 0-dimensional polytope is reported as (1,): its single point is its only
    face worth counting.
    """
    n = fl.dim
    if n == 0:
        return (1,)
    counts = [0] * n
    for fid, d in enumerate(fl.dims):
        if fid == fl.bottom or fid == fl.top:
            continue
        if not 0 <= d < n:
            raise InconsistentInputError("proper face with out-of-range dimension")
        counts[d] += 1
    return tuple(counts)
