import random

from conftest import brute_force_antichain_subsets, compositions_upto

from chainorder.cliques import maximal_independent_sets
from chainorder.posets import make_maximal_ranked, mask_to_tuple


def adjacency(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def comparable(p):
    return [a | b for a, b in zip(p.above_masks, p.below_masks)]


def independent_sets(adj):
    return sorted(map(mask_to_tuple, maximal_independent_sets(adj)))


def random_graph(rng, n, density):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def test_complete_bipartite_independent_sets_are_sides():
    assert independent_sets(comparable(make_maximal_ranked((2, 2)))) == [(0, 1), (2, 3)]


def test_edgeless_graph_single_set():
    assert independent_sets([0, 0, 0]) == [(0, 1, 2)]
    assert independent_sets([]) == [()]


def test_path_graph():
    got = independent_sets(adjacency(3, [(0, 1), (1, 2)]))
    # oracle: inclusion-maximal among all independent subsets
    indep = brute_force_antichain_subsets(3, [(0, 1), (1, 2)])
    maximal = {s for s in indep if not any(s < t for t in indep)}
    assert set(map(frozenset, got)) == maximal
    assert got == [(0, 2), (1,)]


def test_output_sets_are_independent_and_maximal():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randrange(1, 13)
        adj = adjacency(n, random_graph(rng, n, 0.4))
        sets = maximal_independent_sets(adj)
        for s in sets:
            assert all(not adj[a] & s for a in mask_to_tuple(s))
            outside = ((1 << n) - 1) & ~s
            assert all(adj[v] & s for v in mask_to_tuple(outside)), "set is extendable"
        assert len(set(sets)) == len(sets)


def test_against_subset_oracle_small_graphs():
    rng = random.Random(11)
    for trial in range(25):
        n = rng.randrange(1, 17)
        edges = random_graph(rng, n, 0.3)
        indep = brute_force_antichain_subsets(n, edges)
        want = {s for s in indep if not any(s < t for t in indep)}
        got = set(map(frozenset, independent_sets(adjacency(n, edges))))
        assert got == want


def test_maximal_ranked_independent_sets_are_ranks():
    for tau in compositions_upto(10):
        sets = independent_sets(comparable(make_maximal_ranked(tau)))
        offsets = []
        start = 0
        for size in tau:
            offsets.append(tuple(range(start, start + size)))
            start += size
        assert sets == sorted(offsets), tau

