import random
from collections import Counter
from itertools import combinations
from typing import Iterable

import pytest
from conftest import compositions_upto, natural_posets, poset_json, random_poset, set_partitions
from hypothesis import given, settings
from hypothesis import strategies as st
from test_polytopes import maximal_chains

from chainorder.errors import ConfigError
from chainorder.facelattice import count_faces, incidence_matrix
from chainorder.normalform import f_vector_normal_form
from chainorder.polytopes import chain_polytope_dd, order_polytope_dd
from chainorder.posets import (
    BOTTOM,
    TOP,
    Poset,
    as_tau_shape,
    check_cut,
    check_tau,
    extend_poset,
    has_hl_pattern,
    make_maximal_ranked,
    mask_to_tuple,
    maximal_antichains,
    poset_from_json,
    partition_masks,
    validate_face_partition,
)


def test_make_maximal_ranked_2_2():
    p = make_maximal_ranked((2, 2))
    assert p.n == 4
    assert set(p.covers) == {
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (2, 1)),
        ((1, 2), (2, 2)),
    }


def test_make_maximal_ranked_chain():
    p = make_maximal_ranked((1, 1, 1))
    assert p.n == 3
    assert len(p.covers) == 2


def test_make_maximal_ranked_running_example():
    tau = (5, 2, 1, 4, 2, 3)
    p = make_maximal_ranked(tau)
    assert p.n == 17
    # consecutive-rank products: 5*2 + 2*1 + 1*4 + 4*2 + 2*3
    assert len(p.covers) == 30


@pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (2, 0, 1), (True, 2)])
def test_make_maximal_ranked_rejects_bad_tau(bad):
    with pytest.raises(ValueError):
        make_maximal_ranked(bad)


def test_check_cut():
    assert [check_cut([2, 1], k) for k in range(3)] == [(2, 1)] * 3
    assert issubclass(ConfigError, ValueError)
    for k in (-1, 3, 1.5, True):
        with pytest.raises(ConfigError, match=rf"^k must be in \[0, 2\], got {k}$"):
            check_cut((2, 1), k)
    for bad in [(), (0, 1)]:  # the tau is checked first, with check_tau's message
        with pytest.raises(ConfigError, match="^tau "):
            check_tau(bad)
        with pytest.raises(ConfigError, match="^tau "):
            check_cut(bad, 0)


def test_poset_rejects_cycles_and_unreduced_covers():
    with pytest.raises(ValueError):
        Poset(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError):
        Poset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


def test_poset_rejects_duplicate_cover_pairs():
    with pytest.raises(ValueError, match="^duplicate cover pairs$"):
        Poset(("a", "b"), (("a", "b"), ("a", "b")))


def test_self_cover_message_names_the_cover():
    with pytest.raises(ValueError) as exc:
        Poset(("a",), (("a", "a"),))
    assert str(exc.value) == "cover ('a', 'a') is a self-cover"


def test_unreduced_cover_message_names_the_implied_cover():
    with pytest.raises(ValueError) as exc:
        Poset("abc", (("a", "b"), ("b", "c"), ("a", "c")))
    assert str(exc.value) == "cover ('a', 'c') is implied; covers must be reduced"


def _first_implied_cover(elements, covers):
    """The first cover, in element order, with an element strictly between its
    ends, by the transitive closure of the covers; None when they are reduced."""
    less = set(covers)
    for m in elements:
        less |= {(a, b) for a, x in less if x == m for y, b in less if y == m}
    idx = {e: i for i, e in enumerate(elements)}
    for a, b in sorted(covers, key=lambda c: (idx[c[0]], idx[c[1]])):
        if any((a, m) in less and (m, b) in less for m in elements):
            return a, b
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_unreduced_cover_check_matches_brute_force(n, density, seed, added):
    # a random DAG's reduced covers with up to three implied pairs added, in random order
    rng = random.Random(seed)
    p = random_poset(rng, n, density)
    implied = [
        (p.elements[i], p.elements[j])
        for i in range(p.n)
        for j in mask_to_tuple(p.above_masks[i])
        if (p.elements[i], p.elements[j]) not in p.covers
    ]
    covers = list(p.covers) + rng.sample(implied, min(added, len(implied)))
    rng.shuffle(covers)
    first = _first_implied_cover(p.elements, covers)
    if first is None:
        assert Poset(p.elements, tuple(covers)).covers == p.covers
        return
    with pytest.raises(ValueError) as exc:
        Poset(p.elements, tuple(covers))
    assert str(exc.value) == f"cover ({first[0]!r}, {first[1]!r}) is implied; covers must be reduced"


@pytest.mark.parametrize(
    "elements, covers",
    [
        pytest.param((), (), id="empty"),
        # d < c skips the level of b in a < b < c
        pytest.param("abcd", (("a", "b"), ("b", "c"), ("d", "c")), id="cover-skips-a-level"),
        # c covers a but not b, below it by levels
        pytest.param("abc", (("a", "c"),), id="levels-not-joined-in-full"),
    ],
)
def test_as_tau_shape_recognises_only_maximal_ranked_posets(elements, covers):
    assert as_tau_shape(Poset(tuple(elements), covers)) is None


def test_extend_poset_counts():
    ep = extend_poset(make_maximal_ranked((2, 2)))
    assert len(ep.elements) == 6
    assert len(ep.covers) == 8


def test_extend_empty_poset_is_two_chain():
    ep = extend_poset(Poset((), ()))
    assert ep.covers == ((BOTTOM, TOP),)


def test_extend_chain():
    ep = extend_poset(make_maximal_ranked((1, 1, 1)))
    assert len(ep.elements) == 5
    assert len(ep.covers) == 4


def test_maximal_chains_products():
    assert len(maximal_chains(make_maximal_ranked((2, 2)))) == 4
    chains = maximal_chains(make_maximal_ranked((1, 1, 1)))
    assert chains == [[(1, 1), (2, 1), (3, 1)]]
    big = maximal_chains(make_maximal_ranked((5, 2, 1, 4, 2, 3)))
    assert len(big) == 5 * 2 * 1 * 4 * 2 * 3
    assert big == sorted(big)
    for ch in big:
        assert [e[0] for e in ch] == [1, 2, 3, 4, 5, 6]


def test_maximal_antichains_examples():
    assert maximal_antichains(make_maximal_ranked((2, 2))) == [((1, 1), (1, 2)), ((2, 1), (2, 2))]
    assert maximal_antichains(Poset(("a", "b", "c"), ())) == [("a", "b", "c")]
    assert maximal_antichains(Poset((), ())) == [()]
    # b < c beside a: listed in the order of their positions
    assert maximal_antichains(Poset(("a", "b", "c"), (("b", "c"),))) == [("a", "b"), ("a", "c")]


def test_maximal_antichains_of_ranked_posets_are_ranks():
    for tau in compositions_upto(10):
        p = make_maximal_ranked(tau)
        got = set(map(frozenset, maximal_antichains(p)))
        want = {
            frozenset((i, t) for t in range(1, tau[i - 1] + 1)) for i in range(1, len(tau) + 1)
        }
        assert got == want, tau


def test_validate_face_partition_examples():
    ep = extend_poset(make_maximal_ranked((2, 2)))
    singles = [(e,) for e in ep.elements]
    assert validate_face_partition(ep, singles).valid

    merged = [(BOTTOM, TOP)] + [(e,) for e in ep.elements if e not in (BOTTOM, TOP)]
    check = validate_face_partition(ep, merged)
    assert not check.valid and "bottom and top" in check.reason

    cover_block = [((1, 1), (2, 1))] + [(e,) for e in ep.elements if e not in ((1, 1), (2, 1))]
    assert validate_face_partition(ep, cover_block).valid

    antichain_block = [((1, 1), (1, 2))] + [(e,) for e in ep.elements if e not in ((1, 1), (1, 2))]
    check = validate_face_partition(ep, antichain_block)
    assert not check.valid and "connected" in check.reason


def test_validate_face_partition_rejects_non_partition():
    ep = extend_poset(make_maximal_ranked((2, 2)))
    with pytest.raises(ValueError):
        validate_face_partition(ep, [((1, 1),)])
    with pytest.raises(ValueError):
        validate_face_partition(ep, [(e,) for e in ep.elements] + [((1, 1),)])


def _oracle_face_partition(ep, blocks):
    """Independent re-implementation of the three conditions, by brute force."""
    n = ep.n
    idx = ep.index
    less = [[False] * n for _ in range(n)]
    for a, b in ep.covers:
        less[idx[a]][idx[b]] = True
    for m in range(n):
        for i in range(n):
            if less[i][m]:
                for j in range(n):
                    if less[m][j]:
                        less[i][j] = True
    # (a) every block connected in the Hasse diagram of its induced subposet
    for block in blocks:
        mem = [idx[e] for e in block]
        cov = {
            (a, b)
            for a in mem
            for b in mem
            if less[a][b] and not any(less[a][c] and less[c][b] for c in mem)
        }
        comp = {mem[0]}
        frontier = [mem[0]]
        while frontier:
            x = frontier.pop()
            for a, b in cov:
                for y in ((b,) if a == x else ()) + ((a,) if b == x else ()):
                    if y not in comp:
                        comp.add(y)
                        frontier.append(y)
        if len(comp) != len(mem):
            return False
    # (b) acyclic block relation
    bid = {}
    for i, block in enumerate(blocks):
        for e in block:
            bid[idx[e]] = i
    edges = {
        (bid[a], bid[b]) for a in range(n) for b in range(n) if less[a][b] and bid[a] != bid[b]
    }
    reach = {e: True for e in edges}
    for m in range(len(blocks)):
        for i in range(len(blocks)):
            for j in range(len(blocks)):
                if (i, m) in reach and (m, j) in reach:
                    reach[(i, j)] = True
    if any((i, i) in reach for i in range(len(blocks))):
        return False
    # (c) adjoined bottom and top apart
    return bid[idx[BOTTOM]] != bid[idx[TOP]]


def test_validate_face_partition_against_brute_force():
    ep = extend_poset(make_maximal_ranked((2, 2)))
    total = valid = 0
    for blocks in set_partitions(ep.elements):
        total += 1
        got = validate_face_partition(ep, blocks).valid
        want = _oracle_face_partition(ep, blocks)
        assert got == want, blocks
        valid += got
    assert total == 203  # Bell(6)
    assert 0 < valid < total


@pytest.mark.parametrize(
    "tau,reasons",
    [
        ((2, 2), {None: 51, "block not connected": 28, "bottom and top share a block": 43, "block relation has a cycle": 81}),
        ((2, 1, 2), {None: 99, "block not connected": 99, "bottom and top share a block": 175, "block relation has a cycle": 504}),
    ],
)
def test_validate_face_partition_reasons_on_every_partition(tau, reasons):
    # the tally of every set partition of the extended poset, by reason
    ep = extend_poset(make_maximal_ranked(tau))
    got = Counter()
    for blocks in set_partitions(ep.elements):
        check = validate_face_partition(ep, blocks)
        assert check.valid == (check.reason is None)
        got[check.reason] += 1
    assert got == reasons


def test_validate_face_partition_against_brute_force_on_natural_posets_upto_4():
    # every set partition of the extended poset of every naturally labelled poset
    total = 0
    for p in natural_posets(4):
        ep = extend_poset(p)
        for blocks in set_partitions(ep.elements):
            total += 1
            assert validate_face_partition(ep, blocks).valid == _oracle_face_partition(ep, blocks), (p.covers, blocks)
    assert total == 8521  # 51 posets, Bell(|P| + 2) partitions each


def _random_partition(rng, elements):
    """Shuffled elements cut into blocks of mostly one to three, so that
    partitions with several small merged blocks are common."""
    rest = list(elements)
    rng.shuffle(rest)
    blocks = []
    while rest:
        size = rng.choice((1, 1, 2, 2, 3, len(rest)))
        blocks.append(tuple(rest[:size]))
        rest = rest[size:]
    return blocks


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_validate_face_partition_against_brute_force_on_random_posets(n, density, seed):
    rng = random.Random(seed)
    ep = extend_poset(random_poset(rng, n, density))
    blocks = _random_partition(rng, ep.elements)
    assert validate_face_partition(ep, blocks).valid == _oracle_face_partition(ep, blocks), (ep.covers, blocks)


def test_malformed_partitions_raise():
    ep = extend_poset(make_maximal_ranked((2, 2)))
    order_side = [((1, 1),), ((1, 2),), ((2, 1),), ((2, 2),)]
    malformed = {
        "empty block": [()],
        "outside ground set": [((9, 9),)],
        "in two blocks": [((1, 1),)],
    }
    for reason, extra in malformed.items():
        with pytest.raises(ValueError, match=reason):
            validate_face_partition(ep, [(BOTTOM,), (TOP,)] + order_side + extra)
    with pytest.raises(ValueError, match="does not cover"):
        validate_face_partition(ep, [(BOTTOM,), (TOP,)] + order_side[1:])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_below_masks_transpose_above_masks(n, density, seed):
    p = random_poset(random.Random(seed), n, density)
    for i in range(p.n):
        for j in range(p.n):
            assert (p.below_masks[j] >> i) & 1 == (p.above_masks[i] >> j) & 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_linear_extension_puts_each_position_after_those_below(n, density, seed):
    p = random_poset(random.Random(seed), n, density)
    order = p.linear_extension
    assert sorted(order) == list(range(p.n))
    seen = 0
    for i in order:
        assert not p.below_masks[i] & ~seen
        seen |= 1 << i


def quotient_by_partition(p: Poset, pi: Iterable[Iterable]) -> Poset:
    """Poset of blocks under the transitive closure of the block relation.

    Requires a compatible partition: a block that reaches itself in the
    closure is a cycle, and raises ValueError.  The resulting order is
    re-reduced to covers.
    """
    masks = partition_masks(p, pi)
    pos_blocks = [mask_to_tuple(m) for m in masks]
    order = sorted(range(len(masks)), key=lambda bi: min(pos_blocks[bi]))
    names = [tuple(p.elements[i] for i in pos_blocks[bi]) for bi in order]
    nb = len(order)
    strict = [[False] * nb for _ in range(nb)]
    for a in range(nb):
        for b in range(nb):
            if a != b and any(
                (p.above_masks[x] >> y) & 1 for x in pos_blocks[order[a]] for y in pos_blocks[order[b]]
            ):
                strict[a][b] = True
    for m in range(nb):  # transitive closure
        for a in range(nb):
            if strict[a][m]:
                for b in range(nb):
                    if strict[m][b]:
                        strict[a][b] = True
    if any(strict[a][a] for a in range(nb)):
        raise ValueError("partition is not compatible (block relation has a cycle)")
    covers = []
    for a in range(nb):
        for b in range(nb):
            if strict[a][b] and not any(strict[a][c] and strict[c][b] for c in range(nb)):
                covers.append((names[a], names[b]))
    return Poset(tuple(names), tuple(covers))


def test_quotient_contract_cover_edge():
    p = make_maximal_ranked((2, 2))
    pi = [((1, 1), (2, 1)), ((1, 2),), ((2, 2),)]
    q = quotient_by_partition(p, pi)
    assert as_tau_shape(q) == (1, 1, 1)


def test_quotient_identity_partition():
    p = make_maximal_ranked((3, 1))
    q = quotient_by_partition(p, [(e,) for e in p.elements])
    assert as_tau_shape(q) == (3, 1)


def test_quotient_top_rank_edge():
    p = make_maximal_ranked((3, 1))
    pi = [((1, 1), (2, 1)), ((1, 2),), ((1, 3),)]
    q = quotient_by_partition(p, pi)
    assert as_tau_shape(q) == (2, 1)


def test_poset_from_json_reads_names_that_json_dumps_escapes():
    p = Poset(('q"1', "\u00e9", "tab\t", 7), (('q"1', "\u00e9"), (7, "tab\t")))
    assert poset_from_json(poset_json(p)).elements == ('q"1', "\u00e9", "tab\t", "7")


def test_quotient_rejects_incompatible():
    p = make_maximal_ranked((2, 2))
    # gluing (1,1) with (2,1) and (1,2) with (2,2) in crossed blocks is cyclic
    pi = [((1, 1), (2, 2)), ((1, 2), (2, 1))]
    with pytest.raises(ValueError):
        quotient_by_partition(p, pi)


def test_quotient_rejects_a_cycle_through_a_singleton():
    # on the chain x < z < y, the block {x, y} lies below and above {z}
    p = Poset(("x", "z", "y"), (("x", "z"), ("z", "y")))
    with pytest.raises(ValueError, match="cycle"):
        quotient_by_partition(p, [("x", "y"), ("z",)])


def _contracted_tau(tau, i):
    """Expected rank sizes after contracting one cover edge between ranks i, i+1."""
    parts = list(tau[: i - 1]) + [tau[i - 1] - 1, 1, tau[i] - 1] + list(tau[i + 1 :])
    return tuple(x for x in parts if x > 0)


def test_quotient_edge_contraction_rule_exhaustive():
    for tau in compositions_upto(7):
        if len(tau) < 2:
            continue
        p = make_maximal_ranked(tau)
        for a, b in p.covers:
            pi = [(a, b)] + [(e,) for e in p.elements if e not in (a, b)]
            q = quotient_by_partition(p, pi)
            assert as_tau_shape(q) == _contracted_tau(tau, a[0]), (tau, a, b)


def test_has_hl_pattern_examples():
    assert has_hl_pattern(make_maximal_ranked((2, 1, 2)))
    assert not has_hl_pattern(make_maximal_ranked((1, 1, 1, 1)))
    assert not has_hl_pattern(make_maximal_ranked((2, 2, 1, 1, 1, 1, 1, 1)))


def test_has_hl_pattern_formula_exhaustive():
    # an X sits in P_tau exactly when two ranks i < j with j >= i + 2 both have >= 2 elements
    for tau in compositions_upto(8):
        expected = any(
            tau[i] >= 2 and tau[j] >= 2 for i in range(len(tau)) for j in range(i + 2, len(tau))
        )
        assert has_hl_pattern(make_maximal_ranked(tau)) == expected, tau


def test_has_hl_pattern_stretched_x():
    # the X of (2, 1, 1, 2) has a rank between its centre and one side; no
    # element has two lower and two upper covers, yet O and C differ
    tau = (2, 1, 1, 2)
    assert has_hl_pattern(make_maximal_ranked(tau))
    assert f_vector_normal_form(tau, 0) == (9, 32, 58, 58, 32, 9)
    assert f_vector_normal_form(tau, len(tau)) == (9, 32, 59, 61, 35, 10)


def test_no_x_gives_equal_f_vectors_on_compositions():
    free = 0
    for tau in compositions_upto(7):
        if not has_hl_pattern(make_maximal_ranked(tau)):
            assert f_vector_normal_form(tau, 0) == f_vector_normal_form(tau, len(tau)), tau
            free += 1
    assert free == 98  # of the 127 compositions


def _less(p, a, b) -> bool:
    """Whether a < b in P, strictly, read from ``above_masks``."""
    return bool(p.above_masks[p.index[a]] >> p.index[b] & 1)


def _has_x_brute_force(p):
    """X by definition, through pairwise comparisons of elements."""
    def incomparable_pair(group):
        return any(not _less(p, a, b) and not _less(p, b, a) for a, b in combinations(group, 2))

    return any(
        incomparable_pair([a for a in p.elements if _less(p, a, c)])
        and incomparable_pair([d for d in p.elements if _less(p, c, d)])
        for c in p.elements
    )


def test_no_x_gives_equal_f_vectors_on_random_posets():
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}
    for i in range(200):
        p = random_poset(rng, 1 + i % 8, rng.random())
        has_x = has_hl_pattern(p)
        assert has_x == _has_x_brute_force(p), p.covers
        seen[has_x] += 1
        if not has_x:
            fo = count_faces(incidence_matrix(*order_polytope_dd(p)))
            fc = count_faces(incidence_matrix(*chain_polytope_dd(p)))
            assert fo == fc, p.covers
    assert seen[True] > 0 and seen[False] > 100


def test_poset_json_roundtrip():
    p = make_maximal_ranked((2, 1))
    q = poset_from_json(poset_json(p))
    assert q.elements == ("y1_1", "y1_2", "y2_1")
    assert len(q.covers) == len(p.covers)
    assert as_tau_shape(q) == (2, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_poset_json_roundtrip_random(n, density, seed):
    p = random_poset(random.Random(seed), n, density)
    assert poset_from_json(poset_json(p)) == p
