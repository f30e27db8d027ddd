import math
import os
import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import affine_rank, compositions_upto, random_poset
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainorder import polytopes
from chainorder.errors import BudgetError, ConfigError, InconsistentInputError
from chainorder.linalg import int_matrix_rank
from chainorder.polytopes import (
    HRep,
    VRep,
    _chain_order_rows,
    chain_order_dd,
    chain_order_hrep,
    chain_polytope_dd,
    lattice_point_count,
    order_polytope_dd,
    vertex_enum_exact,
    zero_one_vertices,
)
from chainorder.posets import Poset, make_maximal_ranked


def satisfies(point, h: HRep) -> bool:
    """Exact membership test."""
    return all(sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in h.ineqs)


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


def antichain(n):
    return Poset(tuple(f"a{i}" for i in range(n)), ())


def chain(n):
    els = tuple(f"c{i}" for i in range(n))
    return Poset(els, tuple((els[i], els[i + 1]) for i in range(n - 1)))


def test_order_polytope_of_antichain_is_cube():
    v, h = order_polytope_dd(antichain(3))
    assert v.n == 8
    assert len(h.ineqs) == 6


def test_order_polytope_of_chain_is_simplex():
    for n in (1, 2, 3, 4):
        v, h = order_polytope_dd(chain(n))
        assert v.n == n + 1
        assert len(h.ineqs) == n + 1


def test_order_polytope_vertex_count_table_row():
    v, _ = order_polytope_dd(make_maximal_ranked((2, 2, 1, 1, 1, 1, 1, 1)))
    assert v.n == 13


def test_chain_polytope_of_antichain_matches_order_polytope():
    vo, ho = order_polytope_dd(antichain(3))
    vc, hc = chain_polytope_dd(antichain(3))
    assert vo == vc and ho == hc


def test_chain_polytope_of_two_chain_is_triangle():
    v, h = chain_polytope_dd(chain(2))
    assert v.vertices == ((0, 0), (0, 1), (1, 0))
    assert len(h.ineqs) == 3


def test_chain_polytope_facet_count_table_row():
    v, h = chain_polytope_dd(make_maximal_ranked((2, 2, 2, 2, 2)))
    assert v.n == 16
    assert len(h.ineqs) == 10 + 2**5


def test_chain_polytope_depends_only_on_comparability():
    vee = Poset(("a", "b", "c"), (("a", "c"), ("b", "c")))
    wedge = Poset(("a", "b", "c"), (("c", "a"), ("c", "b")))
    assert chain_polytope_dd(vee) == chain_polytope_dd(wedge)


def test_chain_order_hrep_boundaries():
    p = make_maximal_ranked((2, 2))
    assert chain_order_hrep((2, 2), 0) == order_polytope_dd(p)[1]
    assert chain_order_hrep((2, 2), 2) == chain_polytope_dd(p)[1]


def test_chain_order_hrep_intermediate_counts():
    h = chain_order_hrep((2, 2), 1)
    assert len(h.ineqs) == 8
    nonneg = [r for r in h.ineqs if sum(map(abs, r[0])) == 1 and r[1] == 0]
    tops = [r for r in h.ineqs if sum(map(abs, r[0])) == 1 and r[1] == 1]
    mixed = [r for r in h.ineqs if sum(map(abs, r[0])) == 2]
    assert (len(nonneg), len(tops), len(mixed)) == (2, 2, 4)
    with pytest.raises(ValueError):
        chain_order_hrep((2, 2), 3)


@pytest.mark.parametrize(
    "tau,chain_part,message",
    [
        ((2, 1, 2), 0b100, "chain part 0b100 is not a down-set of the 5 positions"),  # rank 2 without rank 1
        ((2, 2), 0b1000, "chain part 0b1000 is not a down-set of the 4 positions"),
        ((2, 2), 0b10000, "chain part 0b10000 is not a down-set of the 4 positions"),  # too long
        ((2, 2), 0b11111, "chain part 0b11111 is not a down-set of the 4 positions"),
        ((2, 2), -1, "chain part -0b1 is not a down-set of the 4 positions"),
    ],
)
def test_chain_order_dd_rejects_a_bad_chain_part(tau, chain_part, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        chain_order_dd(make_maximal_ranked(tau), chain_part)


@pytest.mark.parametrize("tau,k", [((2, 2), 1), ((2, 1), 1), ((3, 2), 1), ((1, 2, 1), 2)])
def test_chain_order_rows_are_facet_defining(tau, k):
    h = chain_order_hrep(tau, k)
    verify_double_description(zero_one_vertices(h), h)


def test_zero_one_vertices_cube():
    _, h = order_polytope_dd(antichain(3))
    assert zero_one_vertices(h).n == 8


def test_zero_one_vertices_triangle():
    _, h = chain_polytope_dd(chain(2))
    assert zero_one_vertices(h).vertices == ((0, 0), (0, 1), (1, 0))


def test_zero_one_vertices_chain_order_2_2():
    v = zero_one_vertices(chain_order_hrep((2, 2), 1))
    assert v.n == 7
    assert v == VRep(tuple(vertex_enum_exact(chain_order_hrep((2, 2), 1))))


def test_zero_one_vertex_budget():
    h = HRep(tuple(range(31)), ((tuple([1] + [0] * 30), 1),))
    with pytest.raises(BudgetError):
        zero_one_vertices(h)


def _fraction_rank(rows) -> int:
    """Reference for `int_matrix_rank`: Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# Ranks over the rationals above the rank over GF(2), which is 1, 0 and 2.
_GF2_DEFICIENT = [([[1, 1], [1, -1]], 2), ([[2]], 1), ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)]


@pytest.mark.parametrize("rows,rank", _GF2_DEFICIENT)
def test_int_matrix_rank_above_gf2_rank(rows, rank):
    assert int_matrix_rank(rows) == _fraction_rank(rows) == rank


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda ncols: st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=7)
    )
)
def test_int_matrix_rank_matches_fraction_rank(rows):
    assert int_matrix_rank(rows) == _fraction_rank(rows)


def test_zero_one_vertices_diamond():
    # {+-x +- y <= 1}: the rows tight at (1, 0) and at (0, 1) have rank 2, but
    # rank 1 over GF(2), so only the exact fallback keeps these vertices
    rows = tuple(((a, b), 1) for a in (1, -1) for b in (1, -1))
    assert zero_one_vertices(HRep(("x", "y"), rows)).vertices == ((0, 1), (1, 0))


def test_vertex_enum_exact_unit_square():
    h = HRep(
        ("x", "y"),
        (
            ((-1, 0), 0),
            ((1, 0), 1),
            ((0, -1), 0),
            ((0, 1), 1),
        ),
    )
    assert vertex_enum_exact(h) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_vertex_enum_exact_simplex():
    _, h = order_polytope_dd(chain(2))
    assert vertex_enum_exact(h) == ((0, 0), (0, 1), (1, 1))


def test_vertex_enum_exact_finds_fractional_vertices():
    # x >= 0, y >= 0, x + 2y <= 2, 2x + y <= 2 has a vertex at (2/3, 2/3)
    h = HRep(
        ("x", "y"),
        (
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 2), 2),
            ((2, 1), 2),
        ),
    )
    verts = vertex_enum_exact(h)
    assert (Fraction(2, 3), Fraction(2, 3)) in verts
    assert len(verts) == 4


def test_vertex_enum_matches_zero_one_on_chain_order():
    h = chain_order_hrep((2, 1), 1)
    assert set(vertex_enum_exact(h)) == set(zero_one_vertices(h).vertices)


def test_lattice_point_count_examples():
    _, h_order = order_polytope_dd(chain(2))
    assert lattice_point_count(h_order, 1) == 3
    _, h_chain = chain_polytope_dd(chain(2))
    assert lattice_point_count(h_chain, 2) == 6


def test_lattice_point_equality_small():
    p = make_maximal_ranked((2, 2))
    _, ho = order_polytope_dd(p)
    _, hc = chain_polytope_dd(p)
    for t in (1, 2):
        assert lattice_point_count(ho, t) == lattice_point_count(hc, t)


def _ideal_multichains(p: Poset, t: int) -> int:
    """Reference for `lattice_point_count` on O(P) and C(P), with no H-rep:
    the multichains I_1 <= ... <= I_t of order ideals of P, which the points of
    t O(P) and of t C(P) biject with (Stanley, "Two poset polytopes", 1986).

    A zeta transform over J(P) per step of the chain.  Taking the elements
    below-first, an ideal less the element at hand is an ideal or bounds no
    ideal still to be summed, so the transform never leaves J(P).
    """
    ideals = {0}
    todo = [0]
    while todo:
        m = todo.pop()
        for i, below in enumerate(p.below_masks):
            grown = m | 1 << i
            if below & m == below and grown not in ideals:
                ideals.add(grown)
                todo.append(grown)
    chains = dict.fromkeys(ideals, 1)  # multichains of the length so far ending at each ideal
    for _ in range(t - 1):
        for i in sorted(range(p.n), key=lambda i: p.below_masks[i].bit_count()):
            for m in ideals:
                if m >> i & 1 and m ^ 1 << i in chains:
                    chains[m] += chains[m ^ 1 << i]
    return sum(chains.values())


def _check_ehrhart_equivalence(posets) -> None:
    for p in posets:
        _, ho = order_polytope_dd(p)
        _, hc = chain_polytope_dd(p)
        for t in (1, 2, 3):
            count = lattice_point_count(ho, t)
            assert count == lattice_point_count(hc, t) == _ideal_multichains(p, t), (p.elements, t)


def test_ideal_multichains_small():
    assert [_ideal_multichains(antichain(2), t) for t in (1, 2, 3)] == [4, 9, 16]  # (t + 1)^2
    assert [_ideal_multichains(chain(3), t) for t in (1, 2, 3)] == [4, 10, 20]  # C(t + 3, 3)


def test_lattice_counts_equal_ideal_multichains():
    # every composition of n <= 9, and 12-element random posets
    rng = random.Random(12)
    randoms = [random_poset(rng, 12, q) for q in (0.1, 0.2, 0.35, 0.5)]
    _check_ehrhart_equivalence([make_maximal_ranked(tau) for tau in compositions_upto(9)] + randoms)


def test_lattice_counts_past_twelve_variables():
    # 20 variables: the count is bounded by its states, not by (t + 1)^n
    _check_ehrhart_equivalence([make_maximal_ranked((2,) * 10)])


@pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="about 30 s; set CHAINORDER_SLOW=1")
def test_lattice_counts_equal_ideal_multichains_upto_12():
    _check_ehrhart_equivalence([make_maximal_ranked(tau) for tau in compositions_upto(12)])


def test_lattice_point_budget(monkeypatch):
    # t is bounded only by the work of each coordinate, states times (t + 1)
    _, h = order_polytope_dd(antichain(3))
    assert lattice_point_count(h, 5) == 6**3
    assert lattice_point_count(h, 40) == 41**3 == 68921
    _, hc = chain_polytope_dd(make_maximal_ranked((2, 2, 2)))
    assert lattice_point_count(hc, 10) == 33748
    # a huge t is refused before the first coordinate's loop, which would not end
    with pytest.raises(BudgetError, match=r"1 states times 1000000000001 values at coordinate 1 of 3"):
        lattice_point_count(h, 10**12)
    # the 2-chain's order polytope holds two states after its first coordinate
    _, h = order_polytope_dd(chain(2))
    monkeypatch.setattr(polytopes, "LATTICE_MAX_STATES", 1)
    with pytest.raises(BudgetError, match="2 states after coordinate 1 of 2"):
        lattice_point_count(h, 1)


def test_vertices_satisfy_their_hrep_everywhere():
    for tau in compositions_upto(5):
        p = make_maximal_ranked(tau)
        for v, h in (order_polytope_dd(p), chain_polytope_dd(p)):
            assert all(satisfies(vert, h) for vert in v.vertices), tau


def test_vertex_counts_equal_for_order_and_chain():
    for tau in compositions_upto(6):
        p = make_maximal_ranked(tau)
        assert order_polytope_dd(p)[0].n == chain_polytope_dd(p)[0].n, tau


def test_hrep_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        HRep(("x",), (((1,), 1), ((1,), 1)))


@pytest.mark.parametrize(
    "row", [((0.5, 0), 1), ((Fraction(1, 2), 0), 1), ((1, 0), 1.0), ((True, 0), 1), ((1, 0), False)]
)
def test_hrep_rejects_entries_that_are_not_ints(row):
    with pytest.raises(ValueError, match="has an entry that is not an int$"):
        HRep(("x", "y"), (((-1, 0), 0), row))


def test_hrep_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="^row length does not match variable count$"):
        HRep(("x", "y"), (((-1,), 0),))


def test_lattice_point_count_needs_a_positive_dilation():
    h = order_polytope_dd(make_maximal_ranked((1,)))[1]
    for t in (0, -1):
        with pytest.raises(ValueError, match="^dilation factor must be positive$"):
            lattice_point_count(h, t)


def test_hrep_takes_no_equations():
    with pytest.raises(TypeError):
        HRep(("x",), (), (((1,), 0),))


# The three row builders that `_chain_order_rows` replaced, kept as references.


def maximal_chains(p: Poset) -> list[list]:
    """All maximal chains, as element lists from a minimum up to a maximum.

    The search is depth-first from each minimum in turn, so the result is in
    lexicographic order with respect to element positions.
    """
    chains: list[list] = []
    stack = [[i] for i in reversed(range(p.n)) if not p.down_covers[i]]
    while stack:
        path = stack.pop()
        ups = p.up_covers[path[-1]]
        if ups:
            stack.extend(path + [j] for j in reversed(ups))
        else:
            chains.append([p.elements[j] for j in path])
    return chains


def _row(p: Poset, plus=(), minus=None, rhs=0):
    row = [0] * p.n
    for e in plus:
        row[p.index[e]] = 1
    if minus is not None:
        row[p.index[minus]] = -1
    return tuple(row), rhs


def _reference_order_rows(p: Poset) -> list:
    """0 <= x_e at the minima, x_a <= x_b on the covers, x_e <= 1 at the maxima."""
    rows = [_row(p, minus=e) for e in p.minimal_elements()]
    rows += [_row(p, (a,), b) for a, b in p.covers]
    return rows + [_row(p, (e,), rhs=1) for e in p.maximal_elements()]


def _reference_chain_rows(p: Poset) -> list:
    """Nonnegativity, and a sum of at most 1 along each maximal chain."""
    return [_row(p, minus=e) for e in p.elements] + [_row(p, chain, rhs=1) for chain in maximal_chains(p)]


def _reference_chain_order_rows(tau, k: int) -> list:
    """Nonnegativity through the cut, the order rows above it, and a chain
    row for each choice of one element per rank through the cut, less one
    element just above it, or at most 1 when there is none."""
    p = make_maximal_ranked(tau)
    ell = len(tau)
    rows = [_row(p, minus=e) for e in p.elements if e[0] <= k]
    rows += [_row(p, (a,), b) for a, b in p.covers if a[0] >= k + 1]
    if k < ell:
        rows += [_row(p, (e,), rhs=1) for e in p.elements if e[0] == ell]
    ranks = [[(r, t) for t in range(1, tau[r - 1] + 1)] for r in range(1, k + 1)]
    for chain in product(*ranks):
        if k == ell:
            rows.append(_row(p, chain, rhs=1))
        else:
            rows.extend(_row(p, chain, (k + 1, t)) for t in range(1, tau[k] + 1))
    return rows


def _assert_rows_and_exact_count(p: Poset, chain_part: int, reference: list) -> None:
    rows = _chain_order_rows(p, chain_part)
    assert sorted(rows) == sorted(reference)
    assert _chain_order_rows(p, chain_part, max_points=len(rows)) == rows
    with pytest.raises(BudgetError, match=f"^{len(rows)} facet rows exceed the point budget {len(rows) - 1}$"):
        _chain_order_rows(p, chain_part, max_points=len(rows) - 1)


def test_chain_order_rows_match_reference_on_every_cut_upto_9():
    cuts = 0
    for tau in compositions_upto(9):
        p = make_maximal_ranked(tau)
        for k in range(len(tau) + 1):
            _assert_rows_and_exact_count(p, (1 << sum(tau[:k])) - 1, _reference_chain_order_rows(tau, k))
            cuts += 1
    assert cuts == 2815


def test_chain_order_rows_match_reference_on_random_posets():
    rng = random.Random(11)
    posets = [Poset((), ())] + [random_poset(rng, rng.randint(1, 9), rng.choice((0.15, 0.35, 0.6))) for _ in range(600)]
    for p in posets:
        _assert_rows_and_exact_count(p, 0, _reference_order_rows(p))
        _assert_rows_and_exact_count(p, (1 << p.n) - 1, _reference_chain_rows(p))
        # the count is exact on any down-set, not only the two ends
        down = 0
        for i in rng.sample(range(p.n), rng.randint(0, p.n)):
            down |= (1 << i) | p.below_masks[i]
        rows = _chain_order_rows(p, down)
        assert len(set(rows)) == len(rows)
        with pytest.raises(BudgetError):
            _chain_order_rows(p, down, max_points=len(rows) - 1)


def test_builders_check_rows_and_antichain_subsets_against_max_points():
    # chain polytope of 4,4,4: 12 + 4^3 = 76 rows, 1 + 3 * 15 = 46 antichains
    p = make_maximal_ranked((4, 4, 4))
    assert len(chain_order_dd(p, (1 << p.n) - 1, max_points=76)[1].ineqs) == 76
    with pytest.raises(BudgetError, match="^76 facet rows exceed the point budget 75$"):
        chain_order_dd(p, (1 << p.n) - 1, max_points=75)
    # order polytope of the 8-antichain: 16 rows, 2^8 = 256 vertices
    v, _ = chain_order_dd(antichain(8), 0, max_points=256)
    assert v.n == 256
    with pytest.raises(BudgetError, match="^256 vertices exceed the point budget 255$"):
        chain_order_dd(antichain(8), 0, max_points=255)
    # chain rows of 4^10, all 40 elements in the chain part: 40 + 4^10,
    # counted before any row or vertex is built
    with pytest.raises(BudgetError, match="^1048616 facet rows exceed the point budget 1000$"):
        chain_order_dd(make_maximal_ranked((4,) * 10), (1 << 40) - 1, max_points=1000)


def _brute_force_vertices(h: HRep):
    """Reference vertex oracle: solve every full-rank choice of n tight rows.

    Exponential in the row count, so it serves only as the reference that
    `vertex_enum_exact` is tested against.  Subsets are walked recursively so
    that shared prefixes are eliminated once; rows stay integral until the
    back substitution.  Same contract: sorted by the Fraction key, ints where
    integral, () when empty or not pointed.
    """
    n = h.n_vars

    def reduce_row(row, pivots):
        for pcol, prow in pivots:
            if row[pcol]:
                f, p = row[pcol], prow[pcol]
                row = [a * p - f * b for a, b in zip(row, prow)]
        g = math.gcd(*row)
        if g == 0:
            return None
        return [a // g for a in row]

    def pivot_col(row):
        return next((c for c in range(n) if row[c]), None)

    aug = [list(c) + [r] for c, r in h.ineqs]
    seen, out = set(), []

    def record(pivots):
        x = [None] * n
        for pcol, prow in reversed(pivots):
            s = Fraction(prow[n])
            for c in range(n):
                if c != pcol and prow[c]:
                    s -= prow[c] * x[c]
            x[pcol] = s / prow[pcol]
        sol = tuple(x)
        if sol not in seen:
            seen.add(sol)
            if satisfies(sol, h):
                out.append(tuple(int(v) if v.denominator == 1 else v for v in sol))

    def walk(start, pivots, remaining):
        if remaining == 0:
            record(pivots)
            return
        for i in range(start, len(aug) - remaining + 1):
            row = reduce_row(aug[i], pivots)
            if row is None or pivot_col(row) is None:
                continue
            pivots.append((pivot_col(row), row))
            walk(i + 1, pivots, remaining - 1)
            pivots.pop()

    walk(0, [], n)
    return tuple(sorted(out, key=lambda v: tuple(map(Fraction, v))))


def test_vertex_enum_exact_matches_brute_force_on_compositions():
    for tau in compositions_upto(6):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            assert vertex_enum_exact(h) == _brute_force_vertices(h), (tau, k)


def _both_sides(rows) -> set:
    """Each row and its negation: an equation as a pair of opposite inequalities."""
    return {r for coeffs, rhs in rows for r in ((coeffs, rhs), (tuple(-c for c in coeffs), -rhs))}


@st.composite
def small_hreps(draw):
    """Up to 7 inequalities and 0-2 equations, each as two opposite
    inequalities, in n <= 4 variables, small coefficients."""
    n = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-3, 3))
    ineqs = set(draw(st.lists(row, max_size=7)))
    ineqs |= _both_sides(draw(st.lists(row, max_size=min(2, n))))
    return HRep(tuple(range(n)), tuple(ineqs))


_SQUARE = (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))


@settings(max_examples=300, deadline=None)
@given(small_hreps())
@example(HRep(("x", "y"), _SQUARE))
@example(HRep(("x", "y"), (((-1, 0), 0), ((0, -1), 0), ((1, 2), 2), ((2, 1), 2))))  # vertex (2/3, 2/3)
@example(HRep(("x", "y"), (((-1, 0), 0), ((0, -1), 0), ((-1, 1), 1))))  # unbounded, pointed
@example(HRep(("x", "y"), (((1, 0), 1), ((-1, 0), 0))))  # a strip: not pointed
@example(HRep(("x", "y"), _SQUARE + tuple(_both_sides([((1, 1), 3)]))))  # empty by an equation
@example(HRep(("x", "y"), (((1, 1), -1), ((-1, 0), 0), ((0, -1), 0))))  # empty by inequalities
@example(  # two equations: the segment from (0, 0, 1) to (1/2, 1/2, 0)
    HRep(
        ("x", "y", "z"),
        (((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), *_both_sides([((1, 1, 1), 1), ((1, -1, 0), 0)])),
    )
)
def test_vertex_enum_exact_matches_brute_force_on_random_hreps(h):
    assert vertex_enum_exact(h) == _brute_force_vertices(h)


def test_zero_one_vertex_assumption_on_compositions_upto_8():
    cuts = 0
    for tau in compositions_upto(8):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            assert set(vertex_enum_exact(h)) == set(zero_one_vertices(h).vertices), (tau, k)
            cuts += 1
    assert cuts == 1279


def _down_sets(p: Poset) -> list[int]:
    """Every down-set of P as a position mask, grown one element at a time."""
    found, todo = {0}, [0]
    while todo:
        down = todo.pop()
        for i in range(p.n):
            grown = down | 1 << i
            if grown not in found and not p.below_masks[i] & ~down:
                found.add(grown)
                todo.append(grown)
    return sorted(found)


def _assert_builder_matches_references(monkeypatch, posets) -> int:
    """On every down-set chain part of every poset, `chain_order_dd` emits no
    vertex twice, and its vertex set is that of the 0/1 search and of the
    double-description oracle; returns the number of polytopes checked."""
    emitted = []

    def spy(vertices):
        emitted.append(list(vertices))
        return VRep(vertices)

    checked = 0
    for p in posets:
        for down in _down_sets(p):
            with monkeypatch.context() as m:
                m.setattr(polytopes, "VRep", spy)
                v, h = chain_order_dd(p, down)
            raw = emitted.pop()
            assert len(set(raw)) == len(raw) == v.n, (p, down)
            assert v == zero_one_vertices(h), (p, down)
            assert set(v.vertices) == set(vertex_enum_exact(h)), (p, down)
            checked += 1
    return checked


def _assert_builder_matches_references_upto(monkeypatch, total: int) -> None:
    taus = compositions_upto(total)
    checked = _assert_builder_matches_references(monkeypatch, map(make_maximal_ranked, taus))
    # a down-set of P_tau is some full ranks and a subset of the next rank
    assert checked == sum(1 + sum(2**t - 1 for t in tau) for tau in taus)


def test_builder_matches_references_on_compositions(monkeypatch):
    _assert_builder_matches_references_upto(monkeypatch, 7)


@pytest.mark.skipif(not os.environ.get("CHAINORDER_SLOW"), reason="set CHAINORDER_SLOW=1 to run")
def test_builder_matches_references_upto_9(monkeypatch):
    _assert_builder_matches_references_upto(monkeypatch, 9)


def test_builder_matches_references_on_random_posets(monkeypatch):
    rng = random.Random(3)
    posets = [random_poset(rng, rng.randint(1, 8), rng.choice((0.15, 0.35, 0.6))) for _ in range(200)]
    assert _assert_builder_matches_references(monkeypatch, [Poset((), ())] + posets) == 3360


def test_vertex_enum_exact_ray_budget(monkeypatch):
    _, h = order_polytope_dd(antichain(3))
    assert len(vertex_enum_exact(h)) == 8
    monkeypatch.setattr(polytopes, "EXACT_ENUM_MAX_RAYS", 5)
    with pytest.raises(BudgetError, match=r"\d+ rays held after \d+ of 7 rows exceed 5"):
        vertex_enum_exact(h)


def _brute_force_zero_one_vertices(h: HRep) -> VRep:
    """Reference for `zero_one_vertices`: every 0/1 point that satisfies the
    system, kept when its tight rows have full rank."""
    n = h.n_vars
    found = []
    for point in product((0, 1), repeat=n):
        if satisfies(point, h):
            tight = [c for c, r in h.ineqs if sum(a * x for a, x in zip(c, point)) == r]
            if len(tight) >= n and int_matrix_rank(tight) == n:
                found.append(point)
    return VRep(tuple(found))


def _brute_force_lattice_count(h: HRep, t: int) -> int:
    """Reference for `lattice_point_count`: the points of {0..t}^n in the t-th dilate."""
    dilate = HRep(h.var_names, tuple((c, t * r) for c, r in h.ineqs))
    return sum(satisfies(point, dilate) for point in product(range(t + 1), repeat=h.n_vars))


@st.composite
def cube_hreps(draw):
    """Up to 8 inequalities and 0-2 equations, each as two opposite
    inequalities, in n <= 6 variables, coefficients of either sign; rows may
    be all zero, and the unit-cube rows may be added."""
    n = draw(st.integers(0, 6))
    row = st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(-2, 3))
    ineqs = set(draw(st.lists(row, max_size=8)))
    if draw(st.booleans()):
        ineqs |= {(polytopes._unit(n, i, s), (s + 1) // 2) for i in range(n) for s in (-1, 1)}
    ineqs |= _both_sides(draw(st.lists(row, max_size=2)))
    return HRep(tuple(range(n)), tuple(ineqs))


@settings(max_examples=300, deadline=None)
@given(cube_hreps(), st.integers(1, 3))
@example(HRep((), ()), 1)  # no variables: the one point ()
@example(HRep((), ((((), -1),))), 2)  # no variables, an all-zero row that fails
@example(HRep(("x", "y"), ()), 3)  # no rows
@example(HRep(("x", "y"), _SQUARE + tuple(_both_sides([((1, 1), 3)]))), 2)  # an infeasible equation
@example(HRep(("x", "y"), _SQUARE + tuple(_both_sides([((0, 0), 1)]))), 1)  # an infeasible all-zero equation
@example(HRep(("x", "y"), _SQUARE + tuple(_both_sides([((2, 0), 1)]))), 2)  # no 0/1 point, but (1, y) in the 2nd dilate
def test_zero_one_vertices_and_lattice_count_match_brute_force(h, t):
    assert zero_one_vertices(h) == _brute_force_zero_one_vertices(h)
    assert lattice_point_count(h, t) == _brute_force_lattice_count(h, t)
