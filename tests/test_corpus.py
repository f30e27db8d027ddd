"""Differential corpora for the two face counts.

Each corpus feeds seeded inputs to ``count_faces`` and ``enumerate_faces``
and hashes every outcome: the f-vector, the lattice's ``face_masks``, ``dims``
and ``lower``, or the exception's type and message.  One sha256 is pinned per
corpus and size, so a change to either count that moves any result, budget
message or error shows here.  A changed digest is a changed output, which
CHANGES.md names with its reason.  The Tier-1 slice takes a few seconds; the
full size runs with CHAINORDER_SLOW=1.
"""

import hashlib
import os
import random

import pytest
from conftest import compositions_upto, cross_polytope, glue, incidence, prism, random_poset, simplex

from chainorder.errors import MAX_FACES
from chainorder.facelattice import _facets, count_faces, enumerate_faces, incidence_matrix
from chainorder.polytopes import chain_order_hrep, chain_polytope_dd, order_polytope_dd, zero_one_vertices

SLOW = os.environ.get("CHAINORDER_SLOW") == "1"
SEED = 37


def _outcome(faces, inc, budget):
    try:
        if faces is count_faces:
            return repr(count_faces(inc, budget))
        lattice = enumerate_faces(inc, budget)
        return repr((lattice.face_masks, lattice.dims, lattice.lower))
    except Exception as exc:  # noqa: BLE001 - every outcome is hashed, errors included
        return f"{type(exc).__name__}: {exc}"


def _digest(cases) -> str:
    """The sha256 over every (incidences, budget) case through both counts."""
    h = hashlib.sha256()
    for inc, budget in cases:
        h.update(f"{inc.n_vertices} {inc.facet_vertices} {budget}\n".encode())
        for faces in (count_faces, enumerate_faces):
            h.update(f"{_outcome(faces, inc, budget)}\n".encode())
    return h.hexdigest()


def random_incidences(n):
    """n seeded incidence sets of 1-7 vertices and up to 8 random rows, at
    budget 0, a random budget of 1-40 or the default."""
    rng = random.Random(SEED)
    for _ in range(n):
        nv = rng.randint(1, 7)
        rows = [rng.randrange(1 << nv) for _ in range(rng.randint(0, 8))]
        yield incidence(nv, rows), rng.choice((0, rng.randint(1, 40), MAX_FACES))


def _cuts(n):
    for tau in compositions_upto(n):
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            yield incidence_matrix(zero_one_vertices(h), h)


def cuts(n):
    """Every cut of the compositions of at most n, at budgets 5, 40 and the
    default."""
    for inc in _cuts(n):
        for budget in (5, 40, MAX_FACES):
            yield inc, budget


def cuts_less_a_facet(n, every):
    """The same cuts with one facet dropped, at the default budget: every
    facet in turn, or one seeded choice."""
    rng = random.Random(SEED)
    for inc in _cuts(n):
        facets = _facets(inc)
        for drop in range(len(facets)) if every else [rng.randrange(len(facets))]:
            yield incidence(inc.n_vertices, facets[:drop] + facets[drop + 1 :]), MAX_FACES


def products(n):
    """n seeded products B x I^j of at most 16 vertices, j = 1-3, over a
    point, a simplex, a cross-polytope, or the order or chain polytope of a
    random poset of 1-3 elements; each with up to two such polytopes glued at
    its vertices, while it has at most 24, so that the product is a piece
    with marks.  At the default budget and a random one."""
    rng = random.Random(SEED)

    def factor():
        pick = rng.randrange(4)
        if pick == 0:
            return simplex(rng.randint(0, 3))
        if pick == 1:
            return cross_polytope(rng.randint(2, 3))
        dd = (order_polytope_dd, chain_polytope_dd)[pick - 2]
        return incidence_matrix(*dd(random_poset(rng, rng.randint(1, 3))))

    for _ in range(n):
        base, j = factor(), rng.randint(1, 3)
        product = prism(base, max(1, min(j, (16 // base.n_vertices).bit_length() - 1)))
        for _ in range(rng.randint(0, 2)):
            other = factor()
            if product.n_vertices + other.n_vertices <= 25:
                product = glue(product, rng.randrange(product.n_vertices), other, rng.randrange(other.n_vertices))
        yield product, MAX_FACES
        yield product, rng.randint(1, 200)


CORPORA = {  # name: (inputs, sha256) at the Tier-1 slice, then at the full size
    "random": [
        (lambda: random_incidences(20000), "597e44eef5be70f4abcd8cd59ef52389ac8560c83b8fd47cb1138a54babb7375"),
        (lambda: random_incidences(200000), "9a54fd1f2a422d337b37ebb9c73ee54d64deb95050a4e1a4b26be7bfd19da68c"),
    ],
    "cuts": [
        (lambda: cuts(6), "7163ead1f66c0259a452b47bb27acbde632b8be9f803d825a5590deab08eeee2"),
        (lambda: cuts(7), "420c79c14534ac3e37897510bed1645b37bf4cd8c3da8cbca0c6de27c63d3f1b"),
    ],
    "cuts_less_a_facet": [
        (lambda: cuts_less_a_facet(6, False), "41bd9b8527d3b835348b82ae8bed4c1bab1ba56914ae989d14e1a320e6e84548"),
        (lambda: cuts_less_a_facet(6, True), "a6c0ed1b3ec948b3eda05370d37e40e3c5c8b3ec41e1a19f6546999b3146d8e6"),
    ],
    "products": [
        (lambda: products(150), "851b7af07f226f500e3fa7671d675954f73a8b72c459883ced03f2cf432aaaca"),
        (lambda: products(2000), "ad66cfdbacd9b625ee8bea2c386fd2a0ef4472c8ceed11650960c4d231a89b10"),
    ],
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_digest(name):
    inputs, digest = CORPORA[name][SLOW]
    assert _digest(inputs()) == digest
