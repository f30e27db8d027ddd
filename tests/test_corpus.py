"""Differential corpora for the two face counts, the three exact counters of
H-reps, the face-partition check and the normal forms.

The face corpora feed seeded inputs to ``count_faces`` and ``enumerate_faces``
and hash every outcome: the f-vector, the lattice's ``face_masks``, ``dims``
and ``lower``, or the exception's type and message.  The H-rep corpus hashes
``lattice_point_count`` at t = 1..4, ``zero_one_vertices`` and
``vertex_enum_exact`` on seeded H-reps, some under small budgets.  The
normal-form corpora hash ``is_valid_normal_form``'s (ok, reason) on seeded
mutants of every valid form, and whole ``verify_injection`` reports under
seeded mutants of ``psi_map``.  The partition corpus hashes
``check_partition_masks``'s (valid, reason) on every set partition of the
extended poset of every naturally labelled poset.  One sha256 is pinned per
corpus and size, so a change that moves any result, reason, budget message
or error shows here.  A changed digest is a changed output, which CHANGES.md
names with its reason.  The Tier-1 slice takes a few seconds; the full size
runs with CHAINORDER_SLOW=1.
"""

import hashlib
import os
import random
from unittest import mock

import pytest
from conftest import (
    compositions_upto,
    cross_polytope,
    glue,
    incidence,
    natural_posets,
    prism,
    random_poset,
    set_partitions,
    simplex,
)

from chainorder import normalform, polytopes
from chainorder.errors import MAX_FACES
from chainorder.facelattice import _facets, count_faces, enumerate_faces, incidence_matrix
from chainorder.normalform import FaceNormalForm, enumerate_normal_forms, is_valid_normal_form, verify_injection
from chainorder.polytopes import (
    HRep,
    chain_order_hrep,
    chain_polytope_dd,
    lattice_point_count,
    order_polytope_dd,
    vertex_enum_exact,
    zero_one_vertices,
)
from chainorder.posets import check_partition_masks, extend_poset, partition_masks

SLOW = os.environ.get("CHAINORDER_SLOW") == "1"
SEED = 37


def _outcome(call):
    """The repr of ``call()``, or the type and message of what it raised."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - every outcome is hashed, errors included
        return f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    """The sha256 over the lines of a corpus."""
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _lattice(inc, budget):
    lattice = enumerate_faces(inc, budget)
    return lattice.face_masks, lattice.dims, lattice.lower


def faces(cases):
    """Each (incidences, budget) case, then its outcome through both counts."""
    for inc, budget in cases:
        yield f"{inc.n_vertices} {inc.facet_vertices} {budget}"
        yield _outcome(lambda: count_faces(inc, budget))
        yield _outcome(lambda: _lattice(inc, budget))


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


def _random_hrep(rng):
    """A seeded H-rep in 0-6 variables: up to 8 rows with coefficients in
    -2..2 and right-hand sides in -2..3, the unit-cube rows half the time, and
    up to two equations, each as two opposite rows."""
    n = rng.randint(0, 6)

    def row():
        return tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 3)

    ineqs = {row() for _ in range(rng.randint(0, 8))}
    if rng.randrange(2):
        ineqs |= {(polytopes._unit(n, i, s), (s + 1) // 2) for i in range(n) for s in (-1, 1)}
    for _ in range(rng.randint(0, min(2, n))):
        coeffs, rhs = row()
        ineqs |= {(coeffs, rhs), (tuple(-c for c in coeffs), -rhs)}
    return HRep(tuple(range(n)), tuple(ineqs))


def hreps(n_random, total, n_posets):
    """``n_random`` seeded random H-reps, every cut of the compositions of at
    most ``total``, and the order and chain H-reps of ``n_posets`` seeded
    random posets of 1-7 elements."""
    rng = random.Random(SEED)
    for _ in range(n_random):
        yield _random_hrep(rng)
    for tau in compositions_upto(total):
        for k in range(len(tau) + 1):
            yield chain_order_hrep(tau, k)
    for _ in range(n_posets):
        p = random_poset(rng, rng.randint(1, 7), rng.choice((0.15, 0.35, 0.6)))
        for dd in (order_polytope_dd, chain_polytope_dd):
            yield dd(p)[1]


BUDGETS = {"LATTICE_MAX_STATES": 50, "LATTICE_MAX_STEPS": 300, "EXACT_ENUM_MAX_RAYS": 60}


def counters(cases):
    """Each H-rep with its seeded budgets, then ``lattice_point_count`` at
    t = 1..4 in a seeded order on that one object (its plan built at the
    first), ``zero_one_vertices`` and ``vertex_enum_exact``.  Each budget of
    ``BUDGETS`` is, one time in four, a seeded value of at most its entry."""
    rng = random.Random(SEED)
    for h in cases:
        budgets = {name: rng.randint(1, most) for name, most in BUDGETS.items() if rng.randrange(4) == 0}
        dilations = rng.sample(range(1, 5), 4)
        yield f"{h.ineqs} {sorted(budgets.items())} {dilations}"
        with mock.patch.dict(polytopes.__dict__, budgets):
            for t in dilations:
                yield _outcome(lambda: lattice_point_count(h, t))
            yield _outcome(lambda: zero_one_vertices(h))
            yield _outcome(lambda: vertex_enum_exact(h))


def _mutant(nf, rng):
    """One seeded mutant of a valid form: an element of a zero set or eq set
    dropped, repeated or moved (to any place in any such set), or the set
    reversed; or one tuple of the form made a list: ``pi``, a block, the zero
    sets, the eq sets or one of them; or the form made a plain tuple."""
    pi, fields = nf.pi, [list(nf.zero_sets), None if nf.eq_sets is None else list(nf.eq_sets)]
    entries = [(f, i) for f, sets in enumerate(fields) for i in range(len(sets or ()))]
    full = [(f, i) for f, i in entries if fields[f][i]]
    kind = rng.choice(["list", "plain"] + ["drop", "repeat", "reverse", "move"] * bool(full))
    as_list = None  # the field left a list
    if kind == "plain":
        return (pi, nf.zero_sets, nf.eq_sets)
    if kind == "list":
        blocks = [(None, j) for j in range(len(pi))]
        f, i = rng.choice([(None, None), *blocks, *((f, None) for f in (0, 1) if fields[f] is not None), *entries])
        if f is None:
            pi = list(pi) if i is None else pi[:i] + (list(pi[i]),) + pi[i + 1 :]
        elif i is None:
            as_list = f
        else:
            fields[f][i] = list(fields[f][i])
    else:
        f, i = rng.choice(full)
        entry = list(fields[f][i])
        p = rng.randrange(len(entry))
        e = entry[p]
        if kind == "reverse":
            entry.reverse()
        elif kind == "repeat":
            entry.insert(rng.randint(0, len(entry)), e)
        else:  # drop or move
            del entry[p]
        fields[f][i] = tuple(entry)
        if kind == "move":
            g, j = rng.choice(entries)
            dest = list(fields[g][j])
            dest.insert(rng.randint(0, len(dest)), e)
            fields[g][j] = tuple(dest)
    zero_sets, eq_sets = (sets if sets is None or f == as_list else tuple(sets) for f, sets in enumerate(fields))
    return FaceNormalForm(pi, zero_sets, eq_sets)


def form_mutants(n, per_form=4):
    """Every valid form at every cut of the compositions of at most n, then
    ``per_form`` seeded mutants of it, each with its (ok, reason)."""
    rng = random.Random(SEED)
    for tau in compositions_upto(n):
        for k in range(len(tau) + 1):
            for nf in enumerate_normal_forms(tau, k):
                for form in [nf] + [_mutant(nf, rng) for _ in range(per_form)]:
                    yield f"{tau} {k} {form!r}"
                    yield _outcome(lambda: is_valid_normal_form(form, tau, k))


def _wrong_partition(img, prev, rng):
    return FaceNormalForm(prev.pi, img.zero_sets, img.eq_sets)


def _reversed_zero_set(img, prev, rng):
    zeros, i = img.zero_sets, rng.randrange(len(img.zero_sets))  # an image's cut is at least 1
    return FaceNormalForm(img.pi, zeros[:i] + (zeros[i][::-1],) + zeros[i + 1 :], img.eq_sets)


def _list_eq_set(img, prev, rng):
    if img.eq_sets is None:
        return img
    eq, i = img.eq_sets, rng.randrange(len(img.eq_sets))
    return FaceNormalForm(img.pi, img.zero_sets, eq[:i] + (list(eq[i]),) + eq[i + 1 :])


def injection_reports(n):
    """The `verify_injection` report of every cut below the top of the
    compositions of at most n, under each of three seeded mutants of
    ``psi_map`` that change about one image in four: the partition of the
    image before it at that cut, a zero set reversed, or an eq set made a
    list."""
    real = normalform.psi_map
    for mutate in (_wrong_partition, _reversed_zero_set, _list_eq_set):
        rng, state = random.Random(SEED), {}

        def psi(nf, tau, k):
            img = real(nf, tau, k)
            prev, state["prev"] = state.get("prev"), img
            return mutate(img, prev, rng) if prev is not None and rng.randrange(4) == 0 else img

        with mock.patch.object(normalform, "psi_map", psi):
            for tau in compositions_upto(n):
                for k in range(len(tau)):
                    state.clear()
                    rep = verify_injection(tau, k)
                    src, img = sorted(rep.per_codim_counts_src.items()), sorted(rep.per_codim_counts_img.items())
                    yield f"{mutate.__name__} {tau} {k}"
                    yield repr((src, img, rep.injective, rep.codim_preserved, rep.failures))


def partition_checks(n):
    """`check_partition_masks` on every set partition of the extended poset
    of every naturally labelled poset of at most n elements: its covers, the
    blocks and (valid, reason)."""
    for p in natural_posets(n):
        ep = extend_poset(p)
        for blocks in set_partitions(ep.elements):
            check = check_partition_masks(ep, partition_masks(ep, blocks))
            yield repr((p.covers, blocks, check.valid, check.reason))


CORPORA = {  # name: (lines, sha256) at the Tier-1 slice, then at the full size
    "hrep_counters": [
        (lambda: counters(hreps(1000, 5, 60)), "158ba02fa5bd60f8e35cfb7f2dca881f5c92201ca81d0cddae7eba1d1927daad"),
        (lambda: counters(hreps(10000, 6, 600)), "9ba8f294b8332db56f921069a86b34222efdca10f86e7d9a6a82dadd1424e834"),
    ],
    "random": [
        (lambda: faces(random_incidences(20000)), "597e44eef5be70f4abcd8cd59ef52389ac8560c83b8fd47cb1138a54babb7375"),
        (lambda: faces(random_incidences(200000)), "9a54fd1f2a422d337b37ebb9c73ee54d64deb95050a4e1a4b26be7bfd19da68c"),
    ],
    "cuts": [
        (lambda: faces(cuts(6)), "7163ead1f66c0259a452b47bb27acbde632b8be9f803d825a5590deab08eeee2"),
        (lambda: faces(cuts(7)), "420c79c14534ac3e37897510bed1645b37bf4cd8c3da8cbca0c6de27c63d3f1b"),
    ],
    "cuts_less_a_facet": [
        (lambda: faces(cuts_less_a_facet(6, False)), "41bd9b8527d3b835348b82ae8bed4c1bab1ba56914ae989d14e1a320e6e84548"),
        (lambda: faces(cuts_less_a_facet(6, True)), "a6c0ed1b3ec948b3eda05370d37e40e3c5c8b3ec41e1a19f6546999b3146d8e6"),
    ],
    "products": [
        (lambda: faces(products(150)), "851b7af07f226f500e3fa7671d675954f73a8b72c459883ced03f2cf432aaaca"),
        (lambda: faces(products(2000)), "ad66cfdbacd9b625ee8bea2c386fd2a0ef4472c8ceed11650960c4d231a89b10"),
    ],
    "form_mutants": [
        (lambda: form_mutants(4), "6f08f0454c33769777e730ea8f21af83550cc87e9129b10c8ee8f39309a7e196"),
        (lambda: form_mutants(5), "194a72eb17084b8906292124aca97a795eeda63509230e8d644bbff5f8a783db"),
    ],
    "partition_checks": [
        (lambda: partition_checks(4), "7db008b583cbcefbbebce14699e9c8ff110bca29ffbc4020bfe8296ace2323e8"),
        (lambda: partition_checks(5), "508defb4d45cb9405532e18a17a746cf4d5f851d80f3fa9fe49101a0e879c4bd"),
    ],
    "injection_reports": [
        (lambda: injection_reports(5), "ed5f631d7b1d1e7e7c652c681b03f368cf31f3e1c9f05e5813dc3fc5d68e8f71"),
        (lambda: injection_reports(6), "c9166e0602661e7429c1dfc97ce169be2c91541f548ecf5f9bccec0ee389c258"),
    ],
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_digest(name):
    lines, digest = CORPORA[name][SLOW]
    assert _digest(lines()) == digest
