"""Faces and f-vectors from vertex-facet incidences, by two paths.

``count_faces`` is the face iterator of Kliem and Stump (arXiv:1905.01945): a
depth-first walk over coatoms that visits every nonempty face exactly once
using only AND and subset tests on vertex bitmasks, in O(dim * facets)
memory.  It yields the f-vector and nothing else.

``enumerate_faces`` builds the whole lattice.  Faces are fixed points of the
closure operator that maps a vertex set to the common vertex set of all
facets containing it.  Starting from the vertices and repeatedly closing one
added vertex at a time reaches every face; the covers of a face are the
inclusion-minimal faces obtained this way.  Grading the cover relation from
the bottom yields the dimensions, which is cross-checked against exact affine
rank in the test suite.  It serves lattice export and structural audits, and
is the reference the iterator is tested against.
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
    for vi, vert in enumerate(v.vertices):
        for fi, (coeffs, rhs) in enumerate(h.ineqs):
            s = sum(c * x for c, x in zip(coeffs, vert))
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


def count_faces(inc: IncidenceMatrix, max_faces: int | None = None) -> tuple[int, ...]:
    """The f-vector, equal to ``f_vector(enumerate_faces(inc))``, without the lattice.

    Kliem-Stump face iterator.  The coatoms of the polytope are its facets.  Popping a coatom H of the
    current face visits H; the coatoms of H are the inclusion-maximal nonempty
    masks H & G over the coatoms G still in the list, less those contained in
    an already visited face, whose subfaces were counted there.  A face at
    depth d below the polytope has dimension dim - 1 - d.

    ``max_faces`` bounds the nonempty faces counted, the polytope included, as
    in ``enumerate_faces``.  Incidences that are not those of a polytope
    raise: vertices at different depths, a face of several vertices at or
    below the vertex depth, or a vertex that is not a face of its own.
    """
    nv = inc.n_vertices
    all_v = (1 << nv) - 1
    # The coatoms are the inclusion-maximal proper tight sets, as in the closure
    # lattice: a row tight on every vertex is an implicit equation, and a row
    # tight on a smaller face is redundant.
    rows = [m for m in dict.fromkeys(inc.facet_vertices) if m != all_v]
    facets = [m for m in rows if not any(m != g and m & g == m for g in rows)]
    counts: list[int] = []  # faces per depth
    vertex_depths: set[int] = set()
    visited: list[int] = []
    found = 1  # the polytope
    n_vertex_faces = 0

    def walk(coatoms: list[int], depth: int) -> None:
        nonlocal found, n_vertex_faces
        found += len(coatoms)
        if max_faces is not None and found > max_faces:
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
            meets = {h & g for g in coatoms}
            meets.discard(0)
            children: list[int] = []
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

    if max_faces is not None and found > max_faces:
        raise BudgetError(f"face budget {max_faces} exceeded")
    if not facets and nv == 1:
        return (1,)  # a point
    walk(facets, 0)
    if len(vertex_depths) != 1:
        raise InconsistentInputError("vertices not all at one depth; inconsistent incidences")
    (depth,) = vertex_depths
    if len(counts) != depth + 1 or counts[depth] != n_vertex_faces:
        raise InconsistentInputError("a face of several vertices at or below the vertex depth")
    if n_vertex_faces != nv:
        raise InconsistentInputError(f"{n_vertex_faces} of {nv} vertices are faces")
    return tuple(reversed(counts))


def enumerate_faces(inc: IncidenceMatrix, max_faces: int | None = None) -> FaceLattice:
    """Breadth-first closure enumeration of the whole face lattice.

    Faces are keyed by their tight-facet mask, which the closure updates with a
    single AND per added vertex; the vertex set is computed once per distinct
    face.  A non-graded cover relation signals inconsistent input and raises.
    """
    nv, nf = inc.n_vertices, inc.n_facets
    vmasks = inc.vertex_facets
    fverts = inc.facet_vertices
    all_v = (1 << nv) - 1

    def vertices_of(tmask: int) -> int:
        m = all_v
        while tmask:
            low = tmask & -tmask
            m &= fverts[low.bit_length() - 1]
            tmask ^= low
        return m

    face_masks: list[int] = [0]  # id 0 = bottom (empty face)
    tmasks: list[int] = [-1]
    by_tight: dict[int, int] = {}
    in_edges: list[list[int]] = [[]]
    cover_edges: list[tuple[int, int]] = []

    def face_id(tmask: int) -> int:
        fid = by_tight.get(tmask)
        if fid is None:
            fid = len(face_masks)
            if max_faces is not None and fid > max_faces:
                raise BudgetError(f"face budget {max_faces} exceeded")
            by_tight[tmask] = fid
            face_masks.append(vertices_of(tmask))
            tmasks.append(tmask)
            in_edges.append([])
            queue.append(fid)
        return fid

    queue: list[int] = []
    atoms = sorted({face_id(vmasks[v]) for v in range(nv)})
    for a in atoms:
        in_edges[a].append(0)
        cover_edges.append((0, a))

    qi = 0
    while qi < len(queue):
        fid = queue[qi]
        qi += 1
        fmask = face_masks[fid]
        tmask = tmasks[fid]
        if fmask == all_v:
            continue
        cand: dict[int, int] = {}
        rest = all_v & ~fmask
        while rest:
            low = rest & -rest
            rest ^= low
            t2 = tmask & vmasks[low.bit_length() - 1]
            if t2 not in cand:
                cand[t2] = face_id(t2)
        # covers of this face = candidates with inclusion-maximal tight sets
        ordered = sorted(cand, key=lambda t: -t.bit_count())
        kept: list[int] = []
        for t2 in ordered:
            if not any(tk & t2 == t2 for tk in kept):
                kept.append(t2)
                gid = cand[t2]
                in_edges[gid].append(fid)
                cover_edges.append((fid, gid))

    # grade from the bottom; every in-edge must agree on the rank
    order = sorted(range(len(face_masks)), key=lambda f: face_masks[f].bit_count())
    rank = [-1] * len(face_masks)
    rank[0] = 0
    for fid in order:
        if fid == 0:
            continue
        parents = in_edges[fid]
        if not parents:
            raise InconsistentInputError("face unreachable from the bottom")
        ranks = {rank[pf] for pf in parents}
        if len(ranks) != 1 or -1 in ranks:
            raise InconsistentInputError("face lattice is not graded; inconsistent incidences")
        rank[fid] = ranks.pop() + 1
    dims = tuple(r - 1 for r in rank)
    top = face_masks.index(all_v)
    return FaceLattice(nv, tuple(face_masks), dims, tuple(cover_edges), 0, top)


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
