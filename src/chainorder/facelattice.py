"""Faces and f-vectors from vertex-facet incidences, by two paths.

``count_faces`` yields the f-vector and nothing else.  It splits a polytope
glued at a vertex q, the hull of pieces in complementary affine spaces that
meet only at q, and multiplies the pieces' face counts.  Ordinal sums glue
so (Stanley, "Two poset polytopes", 1986): C(P_tau) is the ranks' cubes
glued at the origin, O(P_tau) consecutive ranks' cubes glued in a path, and
a pyramid is a segment glued at a vertex of its base.  The split reads
incidences only, and is kept only if the facets are exactly those of the
glue.  A piece that does not glue but is a prism over one of its facets g
splits off a segment: each face F of g gives the faces F x 0, F x 1 and
F x I.  That split too reads incidences only, and is kept only if the
facets are exactly those of the prism.  Pieces that split neither way are
walked by the face iterator of Kliem and Stump (arXiv:1905.01945): a
depth-first walk over coatoms that visits every nonempty face once using
only AND and subset tests on vertex bitmasks, in O(dim * facets) memory.  On
the n = 10 table every piece that does not glue is a cube: 560 segment
splits take them down to 258 points, and no face of the 821,320 is walked.

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
from functools import reduce
from itertools import combinations

from .errors import BudgetError, InconsistentInputError
from .polytopes import HRep, VRep
from .posets import mask_to_tuple

__all__ = [
    "IncidenceMatrix",
    "FaceLattice",
    "incidence_matrix",
    "count_faces",
    "enumerate_faces",
    "f_vector",
]

MAX_FACES = 5_000_000  # the default face budget, shared with the CLI


def face_budget_error(budget: int, faces: int, exact: bool = True) -> BudgetError:
    """The error for a polytope past the face budget, with its ``faces``
    nonempty faces: all of them, or, not ``exact``, those found so far."""
    least = "" if exact else "at least "
    return BudgetError(f"face budget {budget} exceeded: the polytope has {least}{faces} nonempty faces")


@dataclass(frozen=True)
class IncidenceMatrix:
    """Tightness bits between vertices and inequality rows."""

    n_vertices: int
    n_facets: int
    facet_vertices: tuple[int, ...]  # per facet row: bitmask of tight vertices


def incidence_matrix(v: VRep, h: HRep) -> IncidenceMatrix:
    """Exact tightness bits; a vertex of the wrong length or violating a row
    is a hard error, named for the first such vertex and the first row it
    violates.  Rows need not be facets: `_facets` keeps each maximal tight
    set once.  Each coordinate keeps one mask of the vertices per nonzero
    value, and each row folds over its support from {0: every vertex} to
    {partial sum: mask of the vertices with that sum}, so the whole row costs
    a few mask operations per coordinate, not one dot product per vertex."""
    nv = len(v.vertices)
    for x in v.vertices:
        if len(x) != h.n_vars:
            raise InconsistentInputError(f"vertex {x} has length {len(x)}, but the rows have {h.n_vars} variables")
    columns = []  # per coordinate: (value, mask of the vertices holding it) per nonzero value
    for col in zip(*v.vertices):
        values = set(col)
        values.discard(0)
        columns.append([(x, int("".join(["1" if y == x else "0" for y in reversed(col)]), 2)) for x in values])
    fmasks, over = [], []
    for coeffs, rhs in h.ineqs:
        sums = {0: (1 << nv) - 1}
        for c, column in zip(coeffs, columns):
            if c and column:
                nxt: dict = {}
                for s, m in sums.items():
                    for x, vm in column:
                        if hit := m & vm:
                            nxt[s + c * x] = nxt.get(s + c * x, 0) | hit
                            m ^= hit
                    if m:
                        nxt[s] = nxt.get(s, 0) | m
                sums = nxt
        fmasks.append(sums.get(rhs, 0))
        over.append(sum(m for s, m in sums.items() if s > rhs))  # the masks are disjoint
    if bad := reduce(int.__or__, over, 0):
        vi = (bad & -bad).bit_length() - 1
        coeffs, rhs = next(row for row, m in zip(h.ineqs, over) if m >> vi & 1)
        raise InconsistentInputError(f"vertex {v.vertices[vi]} violates row {coeffs} <= {rhs}")
    return IncidenceMatrix(nv, len(fmasks), tuple(fmasks))


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
    """The inclusion-maximal masks other than 0 and ``top``, without repeats,
    the larger first."""
    kept: list[int] = []
    for m in sorted(dict.fromkeys(masks), key=int.bit_count, reverse=True):
        if m and m != top:
            for g in kept:  # a mask inside another is inside a kept one, seen before it
                if m & g == m:
                    break
            else:
                kept.append(m)
    return kept


def _facets(inc: IncidenceMatrix) -> list[int]:
    """Vertex masks of the facets: the inclusion-maximal nonempty proper tight
    sets.  A row tight on every vertex is an implicit equation, and a row tight
    on no vertex or on a smaller face is redundant."""
    return _maximal(inc.facet_vertices, (1 << inc.n_vertices) - 1)


def count_faces(inc: IncidenceMatrix, max_faces: int = MAX_FACES) -> tuple[int, ...]:
    """The f-vector, equal to ``f_vector(enumerate_faces(inc))``, without the lattice.

    The glue rule.  Merging the vertex sets that the facets through a vertex
    q miss, where they meet, gives components C_1, ..., C_k.  If k >= 2 and
    they hold every vertex but q, the pieces are V_i = C_i | q, each a face
    (the meet of the facets through q that miss no vertex of C_i), with the
    facets of the rule of ``_facets``: the maximal masks g & V_i.  The split
    is kept only if every restriction g & V_i is V_i or a facet of the piece,
    which matches the facets through q one to one with the pieces', and the
    facets missing q are as many as the product of the pieces' facets
    missing q, which makes them the unions of one per piece.  Then each face
    of Q is the join of faces missing q, one per piece, the empty face
    allowed, or the hull of faces holding q, one per piece: with N(t)
    counting the faces missing q by dim + 1, the empty one included, and Y(t)
    those holding q by dim, N_Q = prod N_i and Y_Q = prod Y_i.  A pyramid is
    the case of a segment, whose far end is the apex.  On a polytope the
    checks after the components always pass, its vertex figure at q being
    the join of the pieces'; they send incidences that are no polytope's to
    the walk and its checks.  A piece may split again at
    another vertex, so it carries the glue vertices above it as marks, and
    its faces are counted per pattern of marks held.

    The segment split.  A piece that does not glue is a prism over its facet
    g when the complement h = top ^ g is a facet too and the vertices of g
    and of h have distinct patterns over the other facets, the same on both
    sides (see ``_prism_base``).  Each other facet is then f & g with the
    partners of its vertices, so the incidences are those of g x I, g's
    facets being the restrictions f & g.  The marks of h go to their
    partners in g, and each face F of g, counted by pattern, gives F x 0
    and F x 1 at its rank and F x I one rank up.  On the n = 10 table every
    piece that does not glue is a cube, and so splits down to points.

    A piece that splits neither way is walked.  Its coatoms are its facets.
    Popping a coatom H of the current face visits H; the coatoms of H are the
    inclusion-maximal nonempty masks H & G over the coatoms G still in the
    list, less those contained in an already visited face, whose subfaces
    were counted there.  A face at depth d below the piece has dimension
    dim - 1 - d.  The walk tallies marked faces only when there are marks.

    ``max_faces`` (``MAX_FACES`` by default) bounds the nonempty faces of the
    polytope, itself included, as in ``enumerate_faces``.  A piece or a
    prism's base, being a face, is walked under the same bound, and one that
    runs out reports the faces found so far; the exact total, known from the
    parts, is checked once at the end.  Incidences that are not those of a
    polytope raise: vertices of a piece at different depths, a face of
    several vertices at or below the vertex depth, or a vertex of a piece
    that is not a face of its own.
    """
    ranks = _glued((1 << inc.n_vertices) - 1, _facets(inc), 0, max_faces)[0]
    total = sum(ranks) - 1  # nonempty faces
    if total > max_faces:
        raise face_budget_error(max_faces, total)
    return tuple(ranks[1:-1]) or (1,)  # a point is reported as (1,), as in f_vector


def _glued(top: int, facets: list[int], marks: int, max_faces: int) -> dict[int, list[int]]:
    """The faces of the polytope on the vertices ``top``, the empty face and
    the polytope included: for each pattern ``face & marks``, the faces per
    rank (dim + 1).  All the lists have length dim + 2."""
    glue = _glue_vertex(top, facets)
    if glue is None:
        prism = _prism_base(top, facets)
        if prism is None:
            return _walk(top, facets, marks, max_faces)
        return _prism_table(*prism, marks, max_faces)
    q, pieces = glue
    parts = [_glued(v, fs, marks & v | q, max_faces) for v, fs in pieces]
    # faces missing q, by pattern and dim + 1, and faces holding q, by pattern less q and dim
    missing = reduce(_join, [{p: c[:-1] for p, c in t.items() if not p & q} for t in parts])
    holding = reduce(_join, [{p ^ q: c[1:] for p, c in t.items() if p & q} for t in parts])
    table = {p: [*c, 0] for p, c in missing.items()}
    for p, c in holding.items():
        row = table.setdefault(p | marks & q, [0] * (len(c) + 1))
        for r, x in enumerate(c, 1):
            row[r] += x
    return table


def _join(a: dict[int, list[int]], b: dict[int, list[int]]) -> dict[int, list[int]]:
    """Pairs of faces from two pieces: their patterns, disjoint, are joined,
    and their counts convolved."""
    out: dict[int, list[int]] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            row = out.setdefault(pa | pb, [0] * (len(ca) + len(cb) - 1))
            for i, x in enumerate(ca):
                for j, y in enumerate(cb):
                    row[i + j] += x * y
    return out


def _glue_vertex(top: int, facets: list[int]) -> tuple[int, list[tuple[int, list[int]]]] | None:
    """A glue vertex (as a mask) and the pieces with their facets, or None.

    A glue vertex lies on a facet of each of two pieces, two facets that
    cover every vertex, and on no facet that misses vertices of both.  So
    only such vertices of covering pairs are tried, the first that splits
    being taken."""
    tried = 0
    for g, h in combinations(facets, 2):
        if g | h == top and (new := g & h & ~tried):
            for f in facets:
                if g | f != top and h | f != top:  # f misses vertices that g and h miss
                    new &= ~f
                    if not new:
                        break
            tried |= new
            while new:
                q = new & -new
                new ^= q
                pieces = _pieces(top, facets, q)
                if pieces:
                    return q, pieces
    return None


def _pieces(top: int, facets: list[int], q: int) -> list[tuple[int, list[int]]] | None:
    """The pieces glued at the vertex q, with their facets, if the facets of
    the polytope are exactly those of the glue; else None."""
    comps: list[int] = []  # the vertex sets missed by facets through q, merged where they meet
    n_missing = len(facets)  # facets missing q
    for g in facets:
        if g & q:
            n_missing -= 1
            miss, rest = top ^ g, []
            for c in comps:
                if c & miss:
                    miss |= c
                else:
                    rest.append(c)
            comps = [*rest, miss]
    if len(comps) < 2 or sum(map(int.bit_count, comps)) != top.bit_count() - 1:
        return None
    pieces, product = [], 1
    for c in comps:
        v = c | q
        rows = {g & v for g in facets}
        rows.discard(v)
        piece_facets = _maximal(rows, v)
        # every facet restricts to the piece or to one of its facets, so the
        # facets through q match theirs one to one
        if len(piece_facets) != len(rows):
            return None
        product *= len([f for f in piece_facets if not f & q])
        pieces.append((v, piece_facets))
    # the facets missing q are the unions of one such facet per piece
    return pieces if product == n_missing else None


def _prism_base(top: int, facets: list[int]) -> tuple[int, list[int], list[tuple[int, int]]] | None:
    """A facet g with the polytope a prism over it, g's facets, and the pairs
    (vertex of g, vertex of h) with h = top ^ g; or None.

    The complement h must be a facet, and each vertex of g must have a
    partner in h with the same pattern over the other facets, the patterns
    distinct on each side.  Then every other facet f is f & g with the
    partners of its vertices, so it meets both g and h, and the restrictions
    f & g are as distinct and maximal as the facets: they are g's facets."""
    present = set(facets)
    for g in facets:
        h = top ^ g
        if h in present:
            others = [f for f in facets if f != g and f != h]
            pairs = _partners(g, h, others)
            if pairs is not None:
                return g, [f & g for f in others], pairs
    return None


def _prism_table(
    g: int, base_facets: list[int], pairs: list[tuple[int, int]], marks: int, max_faces: int
) -> dict[int, list[int]]:
    """The table of ``_glued`` for the prism over its facet g: the empty
    face, and for each face F of g, F x 0 and F x 1 at its rank and F x I
    one rank up.  The marks of h count as their partners in g."""
    to_h = {a: b for a, b in pairs if b & marks}
    own = marks & g
    base = _glued(g, base_facets, own | sum(to_h), max_faces)
    n = len(base[0]) + 1
    table = {0: [1] + [0] * (n - 1)}
    for p, c in base.items():
        p0 = p & own
        p1 = sum(b for a, b in to_h.items() if p & a)
        for pattern, shift in ((p0, 0), (p1, 0), (p0 | p1, 1)):
            row = table.setdefault(pattern, [0] * n)
            for r in range(1, len(c)):
                row[r + shift] += c[r]
    return table


def _partners(g: int, h: int, others: list[int]) -> list[tuple[int, int]] | None:
    """The pairs of one vertex of g and one of h with the same pattern over
    ``others``, if the patterns are distinct on each side and the same on
    both; else None.  The pair (g, h) is refined by each facet in turn, and
    every part must keep both sides empty or both nonempty."""
    pairs = [(g, h)]
    for f in others:
        split = []
        for a, b in pairs:
            x, y = a & f, b & f
            for x, y in ((x, y), (a ^ x, b ^ y)):
                if bool(x) != bool(y):
                    return None
                if x:
                    split.append((x, y))
        pairs = split
    return pairs if len(pairs) == g.bit_count() == h.bit_count() else None


def _walk(top: int, facets: list[int], marks: int, max_faces: int) -> dict[int, list[int]]:
    """The table of ``_glued`` by the Kliem-Stump walk over the facets."""
    nv = top.bit_count()
    counts: list[int] = []  # faces per depth
    marked: dict[tuple[int, int], int] = {}  # (depth, pattern) -> faces holding a mark
    vertex_depths: set[int] = set()
    visited: list[int] = []
    found = 1  # the polytope
    n_vertex_faces = 0

    def walk(coatoms: list[int], depth: int) -> None:
        nonlocal found, n_vertex_faces
        found += len(coatoms)
        if found > max_faces:
            raise face_budget_error(max_faces, found, exact=False)
        if depth == len(counts):
            counts.append(0)
        counts[depth] += len(coatoms)
        if marks:
            for h in coatoms:
                if p := h & marks:
                    marked[depth, p] = marked.get((depth, p), 0) + 1
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
                start = len(visited)
                walk(children, depth + 1)
                del visited[start:]  # subfaces of h, covered once h is visited
            visited.append(h)

    if found > max_faces:
        raise face_budget_error(max_faces, found, exact=False)
    if facets or nv != 1:  # a point has no proper face to walk
        walk(facets, 0)
        if len(vertex_depths) != 1:
            raise InconsistentInputError("vertices not all at one depth; inconsistent incidences")
        (depth,) = vertex_depths
        if len(counts) != depth + 1 or counts[depth] != n_vertex_faces:
            raise InconsistentInputError("a face of several vertices at or below the vertex depth")
        if n_vertex_faces != nv:
            raise InconsistentInputError(f"{n_vertex_faces} of {nv} vertices are faces")
    ranks = [1, *reversed(counts), 0]  # from the empty face to the polytope
    table = {0: ranks}
    for (depth, p), c in marked.items():
        r = len(counts) - depth
        ranks[r] -= c
        table.setdefault(p, [0] * len(ranks))[r] += c
    table.setdefault(marks, [0] * len(ranks))[-1] += 1
    return table


def enumerate_faces(inc: IncidenceMatrix, max_faces: int = MAX_FACES) -> FaceLattice:
    """The whole face lattice, built top-down one level at a time from coatoms.

    Level 0 is the polytope and level 1 its facets.  The faces at level d + 1
    are the inclusion-maximal nonempty masks F & G over the faces F at level d
    and the facets G, and each is recorded as a lower cover of F (Kaibel and
    Pfetsch, 2002).  The vertices cover the empty face.  A face at depth d has
    dimension (vertex depth) - d.  Ids are canonical: the empty face is 0, and
    the other faces follow by dimension, then by vertex mask, so the polytope
    comes last.  Covers are sorted: listing each face's upper covers in id
    order, for the faces in id order, gives them so.

    ``max_faces`` (``MAX_FACES`` by default) bounds the nonempty faces, the
    polytope included, and is checked as each face is recorded: running out
    reports the budget + 1 faces found.  Incidences that are not those of a
    polytope raise as in ``count_faces``, and so does a face at two depths.
    """
    nv = inc.n_vertices
    facets = _facets(inc)
    level = [(1 << nv) - 1]
    depth = {level[0]: 0}  # face mask -> depth below the polytope
    lower: dict[int, list[int]] = {}  # face mask -> masks of its lower covers
    levels: list[list[int]] = []
    d = 0

    if len(depth) > max_faces:
        raise face_budget_error(max_faces, len(depth), exact=False)
    while level:
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
                        if len(depth) > max_faces:
                            raise face_budget_error(max_faces, len(depth), exact=False)
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
