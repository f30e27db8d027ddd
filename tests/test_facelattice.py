import math
import os
import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from conftest import affine_rank, compositions_upto, random_poset
from hypothesis import given, settings
from hypothesis import strategies as st

from chainorder.errors import BudgetError, InconsistentInputError
from chainorder.facelattice import (
    FaceLattice,
    IncidenceMatrix,
    _facets,
    _glue_vertex,
    _pieces,
    _prism_base,
    count_faces,
    enumerate_faces,
    f_vector,
    incidence_matrix,
)
from chainorder.normalform import f_vector_normal_form
from chainorder.polytopes import (
    HRep,
    VRep,
    chain_order_dd,
    chain_order_hrep,
    chain_polytope_dd,
    order_polytope_dd,
    zero_one_vertices,
)
from chainorder.posets import Poset, make_maximal_ranked, mask_to_tuple


def antichain(n):
    return Poset(tuple(f"a{i}" for i in range(n)), ())


def square_dd():
    h = HRep(("x", "y"), (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1)))
    v = VRep(((0, 0), (0, 1), (1, 0), (1, 1)))
    return v, h


def _facets_per_vertex(inc):
    return [sum(m >> v & 1 for m in inc.facet_vertices) for v in range(inc.n_vertices)]


def test_incidence_square_two_facets_per_vertex():
    v, h = square_dd()
    inc = incidence_matrix(v, h)
    assert _facets_per_vertex(inc) == [2] * 4


def test_incidence_simplex():
    v, h = order_polytope_dd(Poset(("a", "b"), (("a", "b"),)))
    inc = incidence_matrix(v, h)
    assert _facets_per_vertex(inc) == [2] * 3
    assert all(m.bit_count() == 2 for m in inc.facet_vertices)


def test_incidence_order_2_2():
    v, h = order_polytope_dd(make_maximal_ranked((2, 2)))
    inc = incidence_matrix(v, h)
    assert (inc.n_vertices, inc.n_facets) == (7, 8)
    assert all(m.bit_count() >= 4 for m in inc.facet_vertices)


def test_incidence_rejects_outside_vertex():
    _, h = square_dd()
    with pytest.raises(InconsistentInputError):
        incidence_matrix(VRep(((2, 0),)), h)


@pytest.mark.parametrize(
    "vertices, first",
    [
        pytest.param(((0, 0, 7), (1, 0, 7), (0, 1, 7), (1, 1, 7)), (0, 0, 7), id="long"),
        pytest.param(((0,), (1, 0), (0, 1), (1, 1)), (0,), id="short"),
    ],
)
def test_incidence_rejects_vertices_of_the_wrong_length(vertices, first):
    # extra coordinates used to be dropped and missing ones read as 0, which
    # gave the square's incidences
    _, h = square_dd()
    message = f"vertex {first} has length {len(first)}, but the rows have 2 variables"
    with pytest.raises(InconsistentInputError, match=f"^{re.escape(message)}$"):
        incidence_matrix(VRep(vertices), h)


def test_listed_points_that_are_not_vertices_are_caught():
    # the triangle x, y >= 0, x + y <= 1 with a feasible non-vertex listed:
    # incidence_matrix passes it, and both face counts find it is no face
    h = HRep(("x", "y"), (((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)))
    v = VRep(((0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))))
    inc = incidence_matrix(v, h)
    for faces in (count_faces, enumerate_faces):
        with pytest.raises(InconsistentInputError, match="^3 of 4 vertices are faces$"):
            faces(inc)
    # a point that violates a row is refused by incidence_matrix
    outside = VRep(((0, 0), (Fraction(3, 4), Fraction(1, 2))))
    with pytest.raises(InconsistentInputError, match=r"violates row \(1, 1\) <= 1$"):
        incidence_matrix(outside, h)


def test_cube_f_vector():
    v, h = order_polytope_dd(antichain(3))
    assert f_vector(enumerate_faces(incidence_matrix(v, h))) == (8, 12, 6)


def test_point_f_vector():
    inc = incidence_matrix(VRep(((0,),)), HRep(("x",), ()))
    assert f_vector(enumerate_faces(inc)) == (1,)
    assert count_faces(inc) == (1,)


def test_rows_that_are_not_facets_are_ignored():
    # a point with a row tight everywhere, the square with a row tight only at
    # (0, 0), the cube with a row tight only on the edge x = y = 1
    point = incidence_matrix(VRep(((0,),)), HRep(("x",), (((1,), 0),)))
    square_v, square_h = square_dd()
    square = incidence_matrix(square_v, HRep(("x", "y"), square_h.ineqs + (((-1, -1), 0),)))
    cube_v, cube_h = order_polytope_dd(antichain(3))
    cube = incidence_matrix(cube_v, HRep(cube_h.var_names, (((1, 1, 0), 2),) + cube_h.ineqs))
    # the triangle x <= y <= 1, 0 <= x with rows sharing a tight set: two
    # tight nowhere, x + y <= 5 and x <= 3, and 2x - 2y <= 0, twice the facet x <= y
    tri_v, tri_h = order_polytope_dd(make_maximal_ranked((1, 1)))
    nowhere = incidence_matrix(tri_v, HRep(tri_h.var_names, tri_h.ineqs + (((1, 1), 5), ((1, 0), 3))))
    multiple = incidence_matrix(tri_v, HRep(tri_h.var_names, tri_h.ineqs + (((2, -2), 0),)))
    cases = ((point, (1,)), (square, (4, 4)), (cube, (8, 12, 6)), (nowhere, (3, 3)), (multiple, (3, 3)))
    for inc, fv in cases:
        assert f_vector(enumerate_faces(inc)) == count_faces(inc) == fv


def test_segment_f_vector():
    v, h = order_polytope_dd(Poset(("a",), ()))
    inc = incidence_matrix(v, h)
    assert f_vector(enumerate_faces(inc)) == (2,)
    assert count_faces(inc) == (2,)


def test_affine_rank_examples():
    assert affine_rank([(3, 1, 4)]) == 0
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1


def test_facet_of_order_2_2_has_affine_rank_3():
    v, h = order_polytope_dd(make_maximal_ranked((2, 2)))
    fl = enumerate_faces(incidence_matrix(v, h))
    facets = [fid for fid, d in enumerate(fl.dims) if d == 3 and fid != fl.top]
    assert facets
    for fid in facets:
        pts = [v.vertices[i] for i in fl.face_vertices(fid)]
        assert affine_rank(pts) == 3


def _euler_ok(fv):
    n = len(fv)
    return sum((-1) ** i * fv[i] for i in range(n)) == 1 + (-1) ** (n - 1)


def test_lattice_structure_small_corpus():
    """Euler relation, graded dim vs affine rank, facet count, closure fixpoints."""
    for tau in compositions_upto(5):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            v = zero_one_vertices(h)
            inc = incidence_matrix(v, h)
            fl = enumerate_faces(inc)
            fv = f_vector(fl)
            assert _euler_ok(fv), (tau, k)
            assert fv[-1] == len(h.ineqs), (tau, k)
            assert fl.dim == h.n_vars, (tau, k)
            for fid in range(fl.n_faces):
                if fid == fl.bottom:
                    continue
                pts = [v.vertices[i] for i in fl.face_vertices(fid)]
                assert affine_rank(pts) == fl.dims[fid], (tau, k, fid)
                # coatomic: the face is the meet of the facets containing it
                mask = fl.face_masks[fid]
                tight = [fm for fm in inc.facet_vertices if fm & mask == mask]
                meet = (1 << fl.n_vertices) - 1
                for fm in tight:
                    meet &= fm
                assert meet == mask, (tau, k, fid)


def test_cover_edges_are_graded():
    v, h = chain_polytope_dd(make_maximal_ranked((2, 2, 1)))
    fl = enumerate_faces(incidence_matrix(v, h))
    for lo, hi in fl.covers:
        assert fl.dims[hi] == fl.dims[lo] + 1
        assert fl.face_masks[lo] & fl.face_masks[hi] == fl.face_masks[lo]


def _incidence(nv, facet_masks):
    """The incidences of facets given by their vertex masks."""
    return IncidenceMatrix(nv, len(facet_masks), tuple(facet_masks))


def _pyramid(inc, j=1):
    """The j-fold pyramid: j times, a new vertex on every facet, and one more
    facet, the base."""
    for _ in range(j):
        apex = 1 << inc.n_vertices
        inc = _incidence(inc.n_vertices + 1, [m | apex for m in inc.facet_vertices] + [apex - 1])
    return inc


def _prism(inc, j=1):
    """The j-fold prism: j times, a copy of every vertex, each facet holding
    both copies of its vertices, and two more facets, the two copies."""
    for _ in range(j):
        n = inc.n_vertices
        base = (1 << n) - 1
        inc = _incidence(2 * n, [m | m << n for m in inc.facet_vertices] + [base, base << n])
    return inc


def test_non_polytopal_incidences_raise():
    # an interior point in the vertex list breaks gradedness, in the base of a
    # pyramid or a prism too
    h = HRep(("x", "y"), (((-1, 0), 0), ((1, 0), 2), ((0, -1), 0), ((0, 1), 2)))
    square = incidence_matrix(VRep(((0, 0), (0, 2), (2, 0), (2, 2), (1, 1))), h)
    for inc in [_pyramid(square, j) for j in range(3)] + [_prism(square, j) for j in (1, 2)]:
        with pytest.raises(InconsistentInputError):
            enumerate_faces(inc)
        with pytest.raises(InconsistentInputError):
            count_faces(inc)


def test_two_disjoint_facets_reach_no_vertex():
    # facets {0, 1} and {2, 3} meet in the empty set, which is not a face
    inc = IncidenceMatrix(4, 2, (0b0011, 0b1100))
    for faces in (enumerate_faces, count_faces):
        with pytest.raises(InconsistentInputError, match="vertices not all at one depth"):
            faces(inc)
    for j in (1, 2):  # count_faces splits the pyramid at its apex, and a piece raises
        with pytest.raises(InconsistentInputError, match="a face of several vertices at or below the vertex depth"):
            count_faces(_pyramid(inc, j))
        with pytest.raises(InconsistentInputError):
            enumerate_faces(_pyramid(inc, j))
        for faces in (enumerate_faces, count_faces):
            with pytest.raises(InconsistentInputError):
                faces(_prism(inc, j))


def test_a_glue_whose_facet_restricts_to_no_facet_of_its_piece_is_refused():
    # these incidences glue at vertex 4 into two components, but a facet
    # restricted to the piece on vertices 2, 3, 4, 6 is no facet of it:
    # `_pieces` refuses the split, and the walk finds the incidences no polytope's
    inc = IncidenceMatrix(7, 4, (101, 51, 92, 7))
    for faces in (enumerate_faces, count_faces):
        with pytest.raises(InconsistentInputError, match="^vertices not all at one depth; inconsistent incidences$"):
            faces(inc)


def test_f_vector_refuses_a_proper_face_of_out_of_range_dimension():
    # a hand-built lattice of dimension 1 whose one proper face claims dimension 1
    lattice = FaceLattice(1, (0, 1, 1), (-1, 1, 1), ((0, 1), (1, 2)), 0, 2)
    with pytest.raises(InconsistentInputError, match="^proper face with out-of-range dimension$"):
        f_vector(lattice)


def _simplex(d):
    """Delta_d: d + 1 vertices, and one facet missing each of them."""
    top = (1 << d + 1) - 1
    return _incidence(d + 1, [top ^ 1 << v for v in range(d + 1)] if d else [])


def test_simplices_peel_to_a_point():
    for d in range(9):
        fv = tuple(math.comb(d + 1, i + 1) for i in range(d)) or (1,)
        assert count_faces(_simplex(d)) == f_vector(enumerate_faces(_simplex(d))) == fv, d


def _with_bounds(p, least, greatest):
    """P with a least and/or a greatest element adjoined."""
    elements, covers = p.elements, list(p.covers)
    if least:
        covers += [("lo", e) for i, e in enumerate(elements) if not p.down_covers[i]]
        elements = ("lo", *elements)
    if greatest:
        covers += [(e, "hi") for e in elements if e not in {a for a, _ in covers}]
        elements = (*elements, "hi")
    return Poset(elements, tuple(covers))


def test_count_faces_on_pyramids():
    cube = incidence_matrix(*order_polytope_dd(antichain(3)))
    cases = [_pyramid(cube, j) for j in range(4)]
    rng = random.Random(131)
    for i in range(60):
        p = _with_bounds(random_poset(rng, rng.randrange(0, 7)), i % 3 != 1, i % 3 != 0)
        cases += [incidence_matrix(*dd(p)) for dd in (order_polytope_dd, chain_polytope_dd)]
    for inc in cases:
        assert count_faces(inc) == f_vector(enumerate_faces(inc))
    assert count_faces(cases[3]) == (11, 39, 67, 63, 33, 9)  # pyr^3 of the 3-cube


def _glue(a, va, b, vb):
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
    return _incidence(a.n_vertices + b.n_vertices - 1, facets)


SEGMENT = _incidence(2, [0b01, 0b10])
SQUARE = _incidence(4, [0b0011, 0b1100, 0b0101, 0b1010])


def _splits(inc):
    return _glue_vertex((1 << inc.n_vertices) - 1, _facets(inc)) is not None


def test_count_faces_on_glued_polytopes():
    cube = incidence_matrix(*order_polytope_dd(antichain(3)))
    two_squares = _glue(SQUARE, 0, SQUARE, 3)  # O(P_tau) for tau = (2, 2)
    # a segment glued at a vertex of the 3-cube is the pyramid over it
    pyramid = _glue(cube, 5, SEGMENT, 0)
    for inc, fv in ((two_squares, (7, 17, 18, 8)), (pyramid, (9, 20, 18, 7))):
        assert _splits(inc)
        assert count_faces(inc) == f_vector(enumerate_faces(inc)) == fv
    # d segments glued at one vertex make Delta_d
    simplex = SEGMENT
    for d in range(2, 7):
        simplex = _glue(SEGMENT, 1, simplex, 0)
        assert _splits(simplex)
        assert count_faces(simplex) == f_vector(enumerate_faces(simplex)) == count_faces(_simplex(d)), d


def _cross_polytope(d):
    """The d-dimensional cross-polytope: vertices 2i and 2i + 1 are e_i and
    -e_i, and each facet takes one of them for every i."""
    return _incidence(2 * d, [sum(1 << 2 * i + (s >> i & 1) for i in range(d)) for s in range(2**d)])


def _antiprism(k):
    """The antiprism over a k-gon: vertex k + i lies between vertices i and
    i + 1 of the other k-gon.  For k = 3 it is the octahedron."""
    top = sum(1 << i for i in range(k))
    triangles = [1 << i | 1 << (i + 1) % k | 1 << k + i for i in range(k)]
    triangles += [1 << k + i | 1 << k + (i + 1) % k | 1 << (i + 1) % k for i in range(k)]
    return _incidence(2 * k, [top, top << k, *triangles])


def _walked(inc):
    """Whether count_faces walks the polytope: it neither glues nor is a prism."""
    return not _splits(inc) and _prism_base((1 << inc.n_vertices) - 1, _facets(inc)) is None


def test_polytopes_that_do_not_split_are_walked():
    # the two k-gons of an antiprism are complementary facets, and so are
    # opposite facets of a cross-polytope, but the vertex patterns over the
    # other facets differ on the two sides
    cases = [(_cross_polytope(3), (6, 12, 8)), (_cross_polytope(4), (8, 24, 32, 16))]
    cases += [(_antiprism(k), (2 * k, 4 * k, 2 * k + 2)) for k in (4, 5)]
    for inc, fv in cases:
        assert _walked(inc)
        assert count_faces(inc) == f_vector(enumerate_faces(inc)) == fv
    # one facet missing the glue vertex taken away: the facets through it, and
    # so its components, are those of the two squares, but the facets missing
    # it are 3, not 2 * 2.  Such incidences are no polytope's, and the walk
    # raises on them.
    two_squares = _glue(SQUARE, 0, SQUARE, 3)
    top = (1 << two_squares.n_vertices) - 1
    missing = [m for m in _facets(two_squares) if not m & 1]
    bad = _incidence(two_squares.n_vertices, [m for m in _facets(two_squares) if m != missing[0]])
    assert _pieces(top, _facets(two_squares), 1) is not None
    assert _pieces(top, _facets(bad), 1) is None
    assert not _splits(bad)
    with pytest.raises(InconsistentInputError, match="5 of 7 vertices are faces"):
        count_faces(bad)


@st.composite
def glued_random_polytopes(draw):
    """Two polytopes of random posets of 1-4 elements, order or chain, glued
    at a vertex of each."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    a, b = (
        incidence_matrix(*draw(st.sampled_from([order_polytope_dd, chain_polytope_dd]))(random_poset(rng, n)))
        for n in (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    )
    return _glue(a, draw(st.integers(0, a.n_vertices - 1)), b, draw(st.integers(0, b.n_vertices - 1)))


@settings(max_examples=40, deadline=None)
@given(glued_random_polytopes())
def test_count_faces_on_glued_random_polytopes(inc):
    assert _splits(inc)
    assert count_faces(inc) == f_vector(enumerate_faces(inc))


def test_count_faces_on_prisms():
    # the d-cube is a prism over the (d - 1)-cube, down to a point
    cube = _incidence(1, [])
    for d in range(1, 8):
        cube = _prism(cube)
        assert _prism_base((1 << cube.n_vertices) - 1, _facets(cube)) is not None
        assert count_faces(cube) == tuple(math.comb(d, i) * 2 ** (d - i) for i in range(d)), d
    for inc, fv in ((_prism(_simplex(2)), (6, 9, 5)), (_prism(_cross_polytope(3)), (12, 30, 28, 10))):
        assert not _splits(inc) and not _walked(inc)
        assert count_faces(inc) == f_vector(enumerate_faces(inc)) == fv
    # the 3-cube with one side facet bent, {0, 1, 4, 5} to {0, 1, 4, 6}: the
    # squares 0-3 and 4-7 are still complementary facets, but the patterns of
    # their vertices over the other facets no longer match; such incidences
    # are walked, and raise
    square = _prism(_prism(_incidence(1, [])))
    bent = _incidence(8, [0b01010011 if m == 0b00110011 else m for m in _facets(_prism(square))])
    assert _walked(bent)
    for faces in (enumerate_faces, count_faces):
        with pytest.raises(InconsistentInputError):
            faces(bent)


@st.composite
def random_prisms(draw):
    """The prism, or the 2-fold prism, over the polytope of a random poset of
    1-3 elements, order or chain; and the same with one or two more such
    polytopes glued at its vertices, so that the prism piece carries marks."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def random_polytope():
        dd = draw(st.sampled_from([order_polytope_dd, chain_polytope_dd]))
        return incidence_matrix(*dd(random_poset(rng, draw(st.integers(1, 3)))))

    prism = _prism(random_polytope(), draw(st.integers(1, 2)))
    glued = prism
    for _ in range(draw(st.integers(0, 2))):
        other = random_polytope()
        at, other_at = draw(st.integers(0, prism.n_vertices - 1)), draw(st.integers(0, other.n_vertices - 1))
        glued = _glue(glued, at, other, other_at)
    return prism, glued


@settings(max_examples=40, deadline=None)
@given(random_prisms())
def test_count_faces_on_random_prisms(prisms):
    prism, glued = prisms
    assert not _walked(prism)
    for inc in (prism, glued):
        assert count_faces(inc) == f_vector(enumerate_faces(inc))


def test_count_faces_rejects_several_points_without_facets():
    with pytest.raises(InconsistentInputError):
        count_faces(incidence_matrix(VRep(((0,), (1,))), HRep(("x",), ())))


def test_face_budget():
    # nonempty faces, the polytope included: 27 for the 3-cube, 2^5 - 1 for
    # Delta_4, and 2 * (27 + 1) - 1 for the pyramid over the 3-cube
    cube = incidence_matrix(*order_polytope_dd(antichain(3)))
    for inc, n in ((cube, 27), (_simplex(4), 31), (_pyramid(cube), 55)):
        for faces in (enumerate_faces, count_faces):
            faces(inc, max_faces=n)
            for limit in range(n):
                with pytest.raises(BudgetError):
                    faces(inc, max_faces=limit)
    # a walk that runs out says how many faces it has found; a split
    # polytope whose pieces fit says how many it has
    cross = _cross_polytope(4)
    with pytest.raises(BudgetError, match=r"^face budget 10 exceeded: the polytope has at least 17 nonempty faces$"):
        count_faces(cross, max_faces=10)
    with pytest.raises(BudgetError, match=r"^face budget 20 exceeded: the polytope has at least 21 nonempty faces$"):
        count_faces(_pyramid(cross), max_faces=20)  # the cross-polytope, a piece, runs out
    with pytest.raises(BudgetError, match=r"^face budget 10 exceeded: the polytope has 27 nonempty faces$"):
        count_faces(cube, max_faces=10)  # a prism over a prism over a segment
    # the lattice is checked as each face is recorded, so it stops at the cube, its 6 facets and 4 edges
    with pytest.raises(BudgetError, match=r"^face budget 10 exceeded: the polytope has at least 11 nonempty faces$"):
        enumerate_faces(cube, max_faces=10)
    with pytest.raises(BudgetError, match=r"^face budget 40 exceeded: the polytope has 55 nonempty faces$"):
        count_faces(_pyramid(cube), max_faces=40)
    with pytest.raises(BudgetError, match=rf"^face budget 5000000 exceeded: the polytope has {2**41 - 1} nonempty faces$"):
        count_faces(_simplex(40), max_faces=5_000_000)


def _check_count_faces_on_compositions(n):
    for tau in compositions_upto(n):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            inc = incidence_matrix(zero_one_vertices(h), h)
            assert count_faces(inc) == f_vector(enumerate_faces(inc)), (tau, k)


def test_count_faces_matches_lattice_on_compositions():
    _check_count_faces_on_compositions(6)


@pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="about 15 s; set CHAINORDER_SLOW=1")
def test_count_faces_matches_lattice_upto_8():
    _check_count_faces_on_compositions(8)


def test_count_faces_matches_lattice_on_random_posets():
    rng = random.Random(20240831)
    for _ in range(100):
        p = random_poset(rng, rng.randrange(1, 9))
        for dd in (order_polytope_dd, chain_polytope_dd):
            inc = incidence_matrix(*dd(p))
            assert count_faces(inc) == f_vector(enumerate_faces(inc)), (p.elements, p.covers, dd)


def test_budgets_are_exact_on_random_posets():
    # every down-set chain-order polytope of seeded random posets: each budget
    # passes at the exact count and raises at one less, saying what it found
    rng = random.Random(20261019)
    polytopes = walked = 0
    for _ in range(20):
        p = random_poset(rng, rng.randint(1, 7), rng.choice((0.2, 0.4)))
        closed = [p.below_masks[i] | 1 << i for i in range(p.n)]
        down_sets = {reduce(int.__or__, [closed[i] for i in mask_to_tuple(s)], 0) for s in range(1 << p.n)}
        for chain_part in sorted(down_sets):
            v, h = chain_order_dd(p, chain_part)
            points = max(len(h.ineqs), v.n)
            assert chain_order_dd(p, chain_part, max_points=points) == (v, h)
            spent = "facet rows" if len(h.ineqs) == points else "vertices"  # the rows are counted first
            with pytest.raises(BudgetError, match=f"^{points} {spent} exceed the point budget {points - 1}$"):
                chain_order_dd(p, chain_part, max_points=points - 1)
            inc = incidence_matrix(v, h)
            lattice = enumerate_faces(inc)
            n = lattice.n_faces - 1  # nonempty faces
            assert enumerate_faces(inc, max_faces=n) == lattice
            assert count_faces(inc, max_faces=n) == f_vector(lattice)
            # a walk runs out on its last face; a split polytope's parts all fit
            found = {count_faces: "at least " if _walked(inc) else "", enumerate_faces: "at least "}
            for faces, bound in found.items():
                with pytest.raises(BudgetError, match=f"^face budget {n - 1} exceeded: the polytope has {bound}{n} "):
                    faces(inc, max_faces=n - 1)
            polytopes += 1
            walked += _walked(inc)
    assert (polytopes, walked) == (240, 60)


def _brute_force_lattice(v, inc):
    """Faces as the closures of every nonempty vertex subset (the AND of the
    rows tight on all of it) plus the empty face, dims by affine rank, covers
    as the inclusions between faces one dimension apart."""
    all_v = (1 << inc.n_vertices) - 1
    faces = {0: -1}
    for s in range(1, all_v + 1):
        closed = all_v
        for fm in inc.facet_vertices:
            if fm & s == s:
                closed &= fm
        if closed not in faces:
            faces[closed] = affine_rank([v.vertices[i] for i in range(inc.n_vertices) if closed >> i & 1])
    covers = {(a, b) for a in faces for b in faces if a & b == a and faces[b] == faces[a] + 1}
    return set(faces.items()), covers


def _check_against_brute_force(v, h):
    inc = incidence_matrix(v, h)
    fl = enumerate_faces(inc)
    faces, covers = _brute_force_lattice(v, inc)
    assert set(zip(fl.face_masks, fl.dims)) == faces
    assert {(fl.face_masks[a], fl.face_masks[b]) for a, b in fl.covers} == covers
    assert len(fl.covers) == len(covers) and fl.n_faces == len(faces)
    # canonical ids: the empty face, then by dimension and vertex mask
    assert list(zip(fl.dims, fl.face_masks)) == sorted(zip(fl.dims, fl.face_masks))
    assert list(fl.covers) == sorted(fl.covers)
    assert (fl.bottom, fl.top) == (0, fl.n_faces - 1)


def test_lattice_matches_brute_force_on_compositions():
    for tau in compositions_upto(4):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            _check_against_brute_force(zero_one_vertices(h), h)


def test_lattice_matches_brute_force_on_random_posets():
    rng = random.Random(20261018)
    checked = 0
    while checked < 40:
        p = random_poset(rng, rng.randrange(1, 7))
        for dd in (order_polytope_dd, chain_polytope_dd):
            v, h = dd(p)
            if v.n <= 12:
                _check_against_brute_force(v, h)
                checked += 1


@st.composite
def tau_and_cut(draw):
    """A composition of some n <= 7 and a cut 0..len(tau)."""
    tau, left = [], draw(st.integers(1, 7))
    while left:
        tau.append(draw(st.integers(1, left)))
        left -= tau[-1]
    return tuple(tau), draw(st.integers(0, len(tau)))


@settings(max_examples=60, deadline=None)
@given(tau_and_cut())
def test_count_faces_matches_normal_form(tk):
    tau, k = tk
    h = chain_order_hrep(tau, k)
    assert count_faces(incidence_matrix(zero_one_vertices(h), h)) == f_vector_normal_form(tau, k)
