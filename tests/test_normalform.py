import argparse
import hashlib
import os
import random
import re
from math import comb

import pytest
from conftest import compositions, compositions_upto, partitions, set_partitions, table_taus
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainorder import cli, normalform
from chainorder.errors import BudgetError, ConfigError
from chainorder.facelattice import enumerate_faces, f_vector, incidence_matrix
from chainorder.normalform import (
    FaceNormalForm,
    codimension,
    enumerate_normal_forms,
    f_vector_normal_form,
    face_partitions,
    induced_order_poset,
    is_valid_normal_form,
    order_ground,
    partition_f_vectors,
    psi_map,
    rank_elements,
    top_element,
    verify_injection,
    verify_monotone,
)
from chainorder.polytopes import MAX_POINTS, chain_order_hrep, chain_polytope_dd, order_polytope_dd, zero_one_vertices
from chainorder.posets import BOTTOM, TOP, Poset, check_tau, extend_poset, make_maximal_ranked, validate_face_partition


def geometric_f_vector(tau, k):
    h = chain_order_hrep(tau, k)
    v = zero_one_vertices(h)
    return f_vector(enumerate_faces(incidence_matrix(v, h)))


def f_vector_from_enumeration(tau, k):
    n = sum(tau)
    counts = [0] * n
    for nf in enumerate_normal_forms(tau, k):
        c = codimension(nf, tau, k)
        if c == 0:
            continue
        counts[n - c] += 1
    return tuple(counts)


def face_vertex_indices(nf: FaceNormalForm, tau, k: int, vertices) -> frozenset[int]:
    """Indices of the 0/1 vertices lying on the face encoded by a normal form.

    Vertex coordinates follow the rank-major element order of the poset.  Used
    to match normal forms against geometrically enumerated faces.
    """
    tau = check_tau(tau)
    p = make_maximal_ranked(tau)
    pos = p.index
    tmax = top_element(tau)
    if nf.eq_sets is not None:
        tops = nf.eq_sets[k]
        if not tops:
            tops = tuple(sorted(set(normalform._glued_block(nf.pi, k + 1)) & set(rank_elements(tau, k + 1))))
    hits = []
    for vi, x in enumerate(vertices):

        def val(e):
            return 1 if e == tmax else x[pos[e]]

        ok = True
        for b in nf.pi:
            vals = {val(e) for e in b}
            if len(vals) > 1:
                ok = False
                break
        if ok:
            for zs in nf.zero_sets:
                if any(val(e) != 0 for e in zs):
                    ok = False
                    break
        if ok and nf.eq_sets is not None:
            total = 0
            for i in range(1, k + 1):
                eq = nf.eq_sets[i - 1]
                if eq:
                    vals = {val(e) for e in eq}
                    if len(vals) > 1:
                        ok = False
                        break
                    total += vals.pop()
            if ok:
                tvals = {val(e) for e in tops}
                if len(tvals) > 1 or total != tvals.pop():
                    ok = False
        if ok:
            hits.append(vi)
    return frozenset(hits)


def test_segment_normal_forms():
    y, t = (1, 1), (2, 1)
    expected = sorted(
        [
            FaceNormalForm(((t,),), ((),), None),
            FaceNormalForm(((t,),), ((y,),), None),
            FaceNormalForm(((t,),), ((),), ((y,), (t,))),
        ],
        key=FaceNormalForm.sort_key,
    )
    assert enumerate_normal_forms((1,), 1) == expected
    assert f_vector_normal_form((1,), 1) == (2,)
    assert f_vector_normal_form((1,), 0) == (2,)


def test_worked_codimension_five_configuration():
    # running-example poset, cut after rank 3: one three-element block above
    # the cut, one zero at rank 2, tight chains ending at two rank-4 elements
    tau, k = (5, 2, 1, 4, 2, 3), 3
    ground = list(order_ground(tau, k))
    block = ((4, 2), (5, 1), (5, 2))
    rest = [(e,) for e in ground if e not in block]
    pi = tuple(sorted([block] + rest))
    nf = FaceNormalForm(
        pi,
        ((), ((2, 2),), ()),
        (((1, 2),), ((2, 1),), ((3, 1),), ((4, 1), (4, 3))),
    )
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert ok, reason
    assert codimension(nf, tau, k) == codimension(nf, list(tau), k) == 5


@pytest.mark.parametrize(
    "tau,k",
    # six small cuts first, so their test ids stay put, then every cut of every composition <= 6
    list(dict.fromkeys(
        [((2,), 0), ((1, 1), 0), ((2, 2), 0), ((2, 2), 1), ((1, 2), 0), ((1, 1, 2), 1)]
        + [(tau, k) for tau in compositions_upto(6) for k in range(len(tau) + 1)]
    )),
)
def test_face_partitions_match_brute_force(tau, k):
    ep = extend_poset(induced_order_poset(tau, k))
    tmax = top_element(tau)
    want = set()
    for blocks in set_partitions([e if e != TOP else tmax for e in induced_order_poset(tau, k).elements] + [tmax]):
        mapped = [tuple(TOP if e == tmax else e for e in b) for b in blocks] + [(BOTTOM,)]
        if validate_face_partition(ep, mapped).valid:
            want.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    got = face_partitions(tau, k)
    assert len(got) == len(set(got))
    assert set(got) == want


def _reference_induced_order_poset(tau, k):
    """The order side of P_tau at cut k built cover by cover: the elements of
    rank above k, with every pair of consecutive ranks joined in full."""
    elems = tuple(e for r in range(k + 1, len(tau) + 1) for e in rank_elements(tau, r))
    covers = tuple(
        (a, b)
        for r in range(k + 1, len(tau))
        for a in rank_elements(tau, r)
        for b in rank_elements(tau, r + 1)
    )
    return elems, covers


def test_induced_order_poset_matches_the_reference_upto_7():
    for tau in compositions_upto(7):
        for k in range(len(tau) + 1):
            p = induced_order_poset(tau, k)
            assert (p.elements, p.covers) == _reference_induced_order_poset(tau, k), (tau, k)
            ep, index = normalform._extended_order_poset(tau, k)
            ref = extend_poset(Poset(*_reference_induced_order_poset(tau, k)))
            assert (ep.elements, ep.covers) == (ref.elements, ref.covers), (tau, k)
            assert index == {top_element(tau) if e is TOP else e: i for e, i in ref.index.items()}, (tau, k)


def test_face_partitions_are_canonical_without_repeats_upto_7():
    # the fold builds each block sorted, and sorts only each state's blocks
    for tau in compositions_upto(7):
        for k in range(len(tau) + 1):
            got = face_partitions(tau, k)
            assert all(pi == normalform._canonical_partition(pi) for pi in got), (tau, k)
            assert len(got) == len(set(got)), (tau, k)


def _reference_chain_end_facts(pi, tau, k):
    """`_chain_end_facts` as a scan of rank k + 1's elements, which reads
    any partition of the right elements, canonical or not."""
    singles = tuple([e for e in rank_elements(tau, k + 1) if (e,) in pi])
    glued = _reference_glued_block(pi, set(rank_elements(tau, k + 1))) or ()
    return singles, not singles and top_element(tau) in glued


def test_chain_end_facts_and_psi_partition_on_every_face_partition_upto_6():
    checked = 0
    for tau in compositions_upto(6):
        for k in range(len(tau) + 1):
            for pi in face_partitions(tau, k):
                assert normalform._chain_end_facts(pi, tau, k) == _reference_chain_end_facts(pi, tau, k), (tau, k, pi)
                if k < len(tau):
                    pi2 = normalform._psi_partition(pi, tau, k)[0]
                    assert pi2 == normalform._canonical_partition(pi2), (tau, k, pi)
                checked += 1
    assert checked == 6_051


def test_enumeration_matches_counting():
    for tau in compositions_upto(5):
        for k in range(len(tau) + 1):
            assert f_vector_from_enumeration(tau, k) == f_vector_normal_form(tau, k), (tau, k)
    for tau, k in [((2, 2, 2), 1), ((3, 3), 1), ((1, 4, 1), 2)]:
        assert f_vector_from_enumeration(tau, k) == f_vector_normal_form(tau, k)


def test_boundary_cuts_reproduce_order_and_chain_polytopes():
    tau = (3, 2)
    p = make_maximal_ranked(tau)
    vo, ho = order_polytope_dd(p)
    assert f_vector_normal_form(tau, 0) == f_vector(enumerate_faces(incidence_matrix(vo, ho)))
    vc, hc = chain_polytope_dd(p)
    assert f_vector_normal_form(tau, 2) == f_vector(enumerate_faces(incidence_matrix(vc, hc)))


def test_validator_rejects_unglued_blockwise_chain_end():
    tau, k = (2, 1), 0
    pi = tuple(sorted([((1, 1), (2, 1)), ((1, 2),), ((3, 1),)]))
    nf = FaceNormalForm(pi, (), ((),))  # chains end blockwise but the rank is not fully glued
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert not ok and "glued" in reason


def test_blockwise_chain_end_needs_full_rank():
    tau, k = (2, 1), 0
    pi_full = tuple(sorted([((1, 1), (1, 2), (2, 1)), ((3, 1),)]))
    nf = FaceNormalForm(pi_full, (), ((),))
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert ok, reason
    assert codimension(nf, tau, k) == 3  # the origin vertex


def test_chain_end_must_be_singleton():
    tau, k = (2, 1), 0
    pi = tuple(sorted([((1, 1), (2, 1)), ((1, 2),), ((3, 1),)]))
    nf = FaceNormalForm(pi, (), (((1, 1),),))
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert not ok and "singleton" in reason


def test_all_zeroed_with_pinned_end_is_rejected():
    tau, k = (1, 1), 1
    pi = tuple(sorted([((2, 1), (3, 1))]))
    nf = FaceNormalForm(pi, (((1, 1),),), ((), ()))
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert not ok and "empty face" in reason
    # same data without the block pin is a real vertex
    nf2 = FaceNormalForm(tuple(sorted([((2, 1),), ((3, 1),)])), (((1, 1),),), ((), ((2, 1),)))
    ok2, reason2 = is_valid_normal_form(nf2, tau, k)
    assert ok2, reason2
    assert codimension(nf2, tau, k) == 2


# a valid form at cut 1 of (2, 2): (1, 1) zeroed, tight chains through (1, 2) ending at (2, 1)
_PI = (((2, 1),), ((2, 2),), ((3, 1),))
_ZEROS = (((1, 1),),)
_EQ = (((1, 2),), ((2, 1),))
_MUST_PARTITION = "pi does not partition the order side: "


@pytest.mark.parametrize(
    "tau,k,nf,reason",
    [
        pytest.param((2, 2), 3, FaceNormalForm(_PI, _ZEROS, _EQ), ConfigError("k must be in [0, 2], got 3"), id="cut"),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI + ((),), _ZEROS, _EQ), _MUST_PARTITION + "empty block", id="empty-block"
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI + (((9, 9),),), _ZEROS, _EQ),
            _MUST_PARTITION + "block element (9, 9) outside ground set", id="outside",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI[:2] + ((TOP,),), _ZEROS, _EQ),
            _MUST_PARTITION + "block element <top> outside ground set", id="top-sentinel",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI + (((2, 1),),), _ZEROS, _EQ),
            _MUST_PARTITION + "element (2, 1) in two blocks", id="two-blocks",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI[1:], _ZEROS, _EQ),
            _MUST_PARTITION + "partition does not cover ground set (missing ['(2, 1)'])", id="uncovered",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI[:2], _ZEROS, _EQ),
            _MUST_PARTITION + "partition does not cover ground set (missing ['(3, 1)'])", id="maximum-uncovered",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI[::-1], _ZEROS, _EQ),
            "pi is not sorted blockwise and within its blocks", id="blocks-unsorted",
        ),
        pytest.param(
            (1, 1), 0, FaceNormalForm((((2, 1), (1, 1)), ((3, 1),)), (), None),
            "pi is not sorted blockwise and within its blocks", id="block-unsorted",
        ),
        pytest.param(
            (2, 2), 1, FaceNormalForm((((2, 1), (2, 2)), ((3, 1),)), _ZEROS, _EQ),
            "pi is not a face partition: block not connected", id="not-face-partition",
        ),
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(pi, _ZEROS, _EQ),
                "pi must be a tuple of blocks, each a tuple", id=f"pi-{name}",
            )
            for name, pi in [("list", list(_PI)), ("block-list", (list(_PI[0]), *_PI[1:]))]
        ],
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI[:2] + (5,), _ZEROS, _EQ),
            _MUST_PARTITION + "'int' object is not iterable", id="int-block",
        ),
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(_PI, zero_sets, _EQ),
                "zero_sets must be a tuple of one entry per chain-side rank", id=f"zeros-{name}",
            )
            for name, zero_sets in [("length", ()), ("none", None), ("list", list(_ZEROS))]
        ],
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(_PI, (zeros,), None),
                "zero set of rank 1 is not a tuple of its rank's elements in order", id=f"zeros-{name}",
            )
            for name, zeros in [
                ("outside", ((2, 1),)),
                ("reversed", ((1, 2), (1, 1))),
                ("repeat", ((1, 1), (1, 1))),
                ("entry-none", None),
                ("entry-list", [(1, 1)]),
            ]
        ],
        pytest.param(  # rank 1's zero set, good there, does not vouch for rank 2's
            (2, 2), 2, FaceNormalForm((((3, 1),),), (((1, 1),), ((1, 1),)), None),
            "zero set of rank 2 is not a tuple of its rank's elements in order", id="zeros-of-rank-1-at-rank-2",
        ),
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(_PI, _ZEROS, eq_sets),
                "eq_sets must be None or a tuple of one entry per rank through the cut", id=f"eq-{name}",
            )
            for name, eq_sets in [("length", _EQ[:1]), ("list", list(_EQ))]
        ],
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(_PI, (zeros,), (eq, ((2, 1),))),
                "eq set of rank 1 is not a tuple of its free elements in order", id=f"eq-{name}",
            )
            for name, zeros, eq in [
                ("zeroed", ((1, 1),), ((1, 1),)),
                ("reversed", (), ((1, 2), (1, 1))),
                ("repeat", ((1, 1),), ((1, 2), (1, 2))),
                ("entry-none", ((1, 1),), None),
            ]
        ],
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI, _ZEROS, ((), ((2, 1),))),
            "rank 1 has free elements but an empty eq set", id="eq-empty",
        ),
        pytest.param(
            (2, 2), 2, FaceNormalForm((((3, 1),),), ((), ()), (((1, 1),), ((2, 1),), ())),
            "tight chains at the full cut must end at the adjoined maximum", id="full-cut-end",
        ),
        *[
            pytest.param(
                (2, 2), 1, FaceNormalForm(pi, _ZEROS, (((1, 2),), tops)),
                "chain ends are not singletons of the first order rank in order", id=f"ends-{name}",
            )
            for name, pi, tops in [
                ("outside", _PI, ((3, 1),)),
                ("reversed", _PI, ((2, 2), (2, 1))),
                ("repeat", _PI, ((2, 1), (2, 1))),
                ("in-block", (((2, 1), (3, 1)), ((2, 2),)), ((2, 1),)),
                ("none", _PI, None),
            ]
        ],
        pytest.param(
            (2, 2), 1, FaceNormalForm(_PI, _ZEROS, (((1, 2),), ())),
            "empty chain end needs the whole first order rank glued upward", id="end-not-glued",
        ),
        pytest.param(
            (1, 1), 1, FaceNormalForm((((2, 1), (3, 1)),), (((1, 1),),), ((), ())),
            "all chain ranks zeroed with the chain end pinned to one: empty face", id="empty-face",
        ),
    ],
)
def test_every_rejection_reason(tau, k, nf, reason):
    assert is_valid_normal_form(FaceNormalForm(_PI, _ZEROS, _EQ), (2, 2), 1) == (True, None)
    if isinstance(reason, ConfigError):  # a bad cut is a bad argument, not a bad form
        with pytest.raises(ConfigError, match=f"^{re.escape(str(reason))}$"):
            is_valid_normal_form(nf, tau, k)
    else:
        assert is_valid_normal_form(nf, tau, k) == (False, reason)


# every function taking (tau, k), each with the cut as its last argument
_CUT_ENTRY_POINTS = {
    "face_partitions": face_partitions,
    "induced_order_poset": induced_order_poset,
    "enumerate_normal_forms": enumerate_normal_forms,
    "f_vector_normal_form": f_vector_normal_form,
    "is_valid_normal_form": lambda tau, k: is_valid_normal_form(FaceNormalForm(_PI, _ZEROS, _EQ), tau, k),
    "verify_injection": verify_injection,
    "chain_order_hrep": chain_order_hrep,
    "cli._dd_for": lambda tau, k: cli._dd_for(argparse.Namespace(budget_points=MAX_POINTS), tau, k, None),
}


@pytest.mark.parametrize("k", [-1, 3])
@pytest.mark.parametrize("entry", sorted(_CUT_ENTRY_POINTS))
def test_every_cut_entry_point_rejects_a_bad_cut(entry, k):
    with pytest.raises(ConfigError, match=rf"^k must be in \[0, 2\], got {k}$"):
        _CUT_ENTRY_POINTS[entry]((2, 2), k)


def test_verify_injection_rejects_the_top_cut():
    # the top cut is a cut, but has no cut above it to inject into
    with pytest.raises(ConfigError, match=r"^verification needs a cut below the top rank 2, got k=2$"):
        verify_injection((2, 2), 2)


def test_enumeration_budget():
    # the order side has 2 elements, the chain side 14: the face budget counts both
    message = "face budget 5000000 exceeded: the polytope has 9565939 nonempty faces"
    with pytest.raises(BudgetError, match=f"^{message}$"):
        enumerate_normal_forms((14, 1), 1)


def test_enumeration_takes_an_order_side_of_eleven_elements():
    # the 11-chain's order polytope is a simplex with 2^12 - 1 nonempty faces
    assert len(enumerate_normal_forms((1,) * 11, 0)) == 4095
    for k in range(11):
        assert verify_injection((1,) * 11, k).ok, k


@pytest.mark.parametrize("tau, k", [((2, 2), 1), ((2, 1, 2), 0), ((1, 3), 2)])
def test_enumeration_budget_is_the_exact_form_count_checked_first(monkeypatch, tau, k):
    count = len(enumerate_normal_forms(tau, k))
    assert count == sum(f_vector_normal_form(tau, k)) + 1  # the polytope is a form too
    calls = []
    real = normalform.face_partitions
    monkeypatch.setattr(normalform, "face_partitions", lambda tau, k: calls.append(tau) or real(tau, k))
    monkeypatch.setattr(normalform, "MAX_FACES", count)
    assert len(enumerate_normal_forms(tau, k)) == count and len(calls) == 1
    monkeypatch.setattr(normalform, "MAX_FACES", count - 1)
    message = f"face budget {count - 1} exceeded: the polytope has {count} nonempty faces"
    with pytest.raises(BudgetError, match=f"^{message}$"):
        enumerate_normal_forms(tau, k)
    assert len(calls) == 1  # refused before a partition was built



@pytest.mark.parametrize("tau, k", [((2, 2), 1), ((2, 1, 2), 0), ((1, 3), 1)])
def test_audit_checks_the_face_budget_first(monkeypatch, tau, k):
    count = len(enumerate_normal_forms(tau, k))
    calls = []
    _patch_psi(monkeypatch, lambda nf, tau, k, img: calls.append(nf) or img)
    monkeypatch.setattr(normalform, "MAX_FACES", count - 1)
    message = f"face budget {count - 1} exceeded: the polytope has {count} nonempty faces"
    with pytest.raises(BudgetError, match=f"^{message}$"):
        verify_injection(tau, k)
    assert calls == []  # refused before psi saw a form
    monkeypatch.setattr(normalform, "MAX_FACES", count)
    rep = verify_injection(tau, k)
    assert rep.ok and len(calls) == sum(rep.per_codim_counts_src.values()) > 0

def test_uniqueness_against_geometry():
    """Every normal form cuts out a distinct geometric face of equal codim,
    and every face arises: an exact bijection, instance by instance."""
    for tau in compositions_upto(6):
        n = sum(tau)
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            v = zero_one_vertices(h)
            fl = enumerate_faces(incidence_matrix(v, h))
            geo = {}
            for fid in range(fl.n_faces):
                if fid == fl.bottom:
                    continue
                geo[frozenset(fl.face_vertices(fid))] = n - fl.dims[fid]
            seen = {}
            for nf in enumerate_normal_forms(tau, k):
                key = face_vertex_indices(nf, tau, k, v.vertices)
                assert key, (tau, k, nf)
                assert key not in seen, (tau, k, nf, seen[key])
                seen[key] = nf
                assert geo.get(key) == codimension(nf, tau, k), (tau, k, nf)
            assert set(seen) == set(geo), (tau, k)


def _valid_codimension(nf, tau, k):
    """codimension trusts its input: the hand-built forms and the images are
    validated here first."""
    ok, reason = is_valid_normal_form(nf, tau, k)
    assert ok, reason
    return codimension(nf, tau, k)


def test_psi_vertex_example():
    # the vertex x = (0, 1) of the order polytope of the 2-chain
    tau, k = (1, 1), 0
    pi = tuple(sorted([((1, 1),), ((2, 1), (3, 1))]))
    nf = FaceNormalForm(pi, (), (((1, 1),),))
    assert _valid_codimension(nf, tau, k) == 2
    img = psi_map(nf, tau, k)
    ok, reason = is_valid_normal_form(img, tau, k + 1)
    assert ok, reason
    assert codimension(img, tau, k + 1) == 2
    # the image is an actual face of the raised-cut polytope
    h = chain_order_hrep(tau, k + 1)
    v = zero_one_vertices(h)
    fl = enumerate_faces(incidence_matrix(v, h))
    faces = {frozenset(fl.face_vertices(fid)) for fid in range(fl.n_faces) if fid != fl.bottom}
    assert face_vertex_indices(img, tau, k + 1, v.vertices) in faces


def test_psi_generic_all_singletons():
    tau, k = (2, 1), 0
    pi = tuple(sorted([((1, 1),), ((1, 2),), ((2, 1),), ((3, 1),)]))
    nf = FaceNormalForm(pi, (), (((1, 1), (1, 2)),))
    assert _valid_codimension(nf, tau, k) == 2
    img = psi_map(nf, tau, k)
    assert img.zero_sets == ((),)
    assert img.eq_sets == (((1, 1), (1, 2)), ((2, 1),))
    assert _valid_codimension(img, tau, k + 1) == 2


def test_psi_degenerate_height_one_reencodes_block_as_chains():
    tau, k = (2, 2), 0
    block = ((1, 1), (1, 2), (2, 2))
    pi = tuple(sorted([block, ((2, 1),), ((3, 1),)]))
    nf = FaceNormalForm(pi, (), None)
    assert _valid_codimension(nf, tau, k) == 2
    img = psi_map(nf, tau, k)
    # top part (2,2) is not the least-index singleton after the cut, so the
    # block is re-expressed as tight chains
    assert img.eq_sets == (((1, 1), (1, 2)), ((2, 2),))
    assert img.zero_sets == ((),)
    ok, reason = is_valid_normal_form(img, tau, k + 1)
    assert ok, reason
    assert codimension(img, tau, k + 1) == 2


def test_psi_degenerate_height_one_standard():
    tau, k = (2, 2), 0
    block = ((1, 1), (1, 2), (2, 1))
    pi = tuple(sorted([block, ((2, 2),), ((3, 1),)]))
    nf = FaceNormalForm(pi, (), None)
    img = psi_map(nf, tau, k)
    assert img.eq_sets is None
    assert img.zero_sets == (((1, 1), (1, 2)),)
    assert _valid_codimension(img, tau, k + 1) == _valid_codimension(nf, tau, k) == 2


def test_psi_requires_a_cut_below_the_top():
    tau = (1, 1)
    nf = FaceNormalForm((((3, 1),),), ((), ()), None)  # the whole chain polytope, at the top cut
    assert is_valid_normal_form(nf, tau, len(tau)) == (True, None)
    with pytest.raises(ValueError, match="below the top rank"):
        psi_map(nf, tau, len(tau))


def _reference_glued_block(pi, yset):
    hits = [b for b in pi if len(b) > 1 and any(e in yset for e in b)]
    if not hits:
        return None
    if len(hits) > 1:
        raise ValueError("two glued blocks meet one rank; partition is not a face partition")
    return hits[0]


def _reference_psi_map(nf: FaceNormalForm, tau, k: int) -> FaceNormalForm:
    """The cut-raising map on sets of elements, as first written; the
    reference for the rank-arithmetic ``psi_map``."""
    tau = check_tau(tau)
    ell = len(tau)
    if k >= ell:
        raise ValueError("the cut can only be raised below the top rank")
    cod = codimension(nf, tau, k)
    if cod < 2:
        raise ValueError("the injection is defined for codimension at least 2")
    tmax = top_element(tau)
    yk1 = set(rank_elements(tau, k + 1))
    yk2 = set(rank_elements(tau, k + 2)) if k + 2 <= ell else {tmax}

    kept = []
    for b in nf.pi:
        bs = set(b)
        if bs <= yk1 | yk2:
            continue
        kept.append(tuple(e for e in b if e not in yk1))
    ground2 = order_ground(tau, k + 1)
    used = {e for b in kept for e in b}
    pi2 = normalform._canonical_partition(kept + [(e,) for e in ground2 if e not in used])

    glued = _reference_glued_block(nf.pi, yk1)
    a_part = tuple(sorted(set(glued) & yk1)) if glued else ()
    b_part = tuple(sorted(set(glued) & yk2)) if glued else ()
    height1 = glued is not None and max(e[0] for e in glued) == k + 2

    if nf.eq_sets is not None:
        if glued is None:
            # every rank-(k+1) element is isolated: extend the chains upward
            sigma = sorted(e for e in yk2 if (e,) in nf.pi)
            tops2 = (sigma[0],) if sigma else ()
            return FaceNormalForm(pi2, nf.zero_sets + ((),), nf.eq_sets + (tops2,))
        tops2 = b_part if height1 else ()
        return FaceNormalForm(pi2, nf.zero_sets + (a_part,), nf.eq_sets + (tops2,))

    if glued is None:
        return FaceNormalForm(pi2, nf.zero_sets + ((),), None)
    if not height1:
        return FaceNormalForm(pi2, nf.zero_sets + (a_part,), None)
    # height-one glued block: its top part lands in singletons after the cut
    sigma2 = sorted([e for e in yk2 if (e,) in nf.pi] + list(b_part))
    if b_part == (sigma2[0],):
        return FaceNormalForm(pi2, nf.zero_sets + (a_part,), None)
    # re-encode the block as a bundle of tight chains through least-index picks
    eq_new = []
    for i in range(1, k + 1):
        rest = sorted(set(rank_elements(tau, i)) - set(nf.zero_sets[i - 1]))
        eq_new.append((rest[0],) if rest else ())
    eq2 = tuple(eq_new) + (a_part, b_part)
    return FaceNormalForm(pi2, nf.zero_sets + ((),), eq2)


def test_psi_matches_reference_on_small_compositions():
    audited = 0
    for tau in compositions_upto(6):
        for k in range(len(tau)):
            for nf in enumerate_normal_forms(tau, k):
                if codimension(nf, tau, k) >= 2:
                    assert psi_map(nf, tau, k) == _reference_psi_map(nf, tau, k), (tau, k, nf)
                    audited += 1
    assert audited == 31_963



def test_psi_memo_is_order_free():
    # psi's partition half is memoised for the last source partition; forms
    # of mixed cuts and compositions, in no order, must get the reference image
    cases = [
        (nf, tau, k)
        for tau in compositions_upto(5)
        for k in range(len(tau))
        for nf in enumerate_normal_forms(tau, k)
        if codimension(nf, tau, k) >= 2
    ]
    random.Random(2801).shuffle(cases)
    for nf, tau, k in cases:
        assert psi_map(nf, tau, k) == _reference_psi_map(nf, tau, k), (tau, k, nf)
    assert len(cases) == 5_409


def test_psi_of_one_form_at_two_compositions():
    # one source form at cut 1 of (1, 2, 2) and of (3, 2, 2): its glued block
    # is re-encoded through the least free element of rank 1, which tau decides
    nf = FaceNormalForm((((2, 1), (2, 2), (3, 1), (3, 2)), ((4, 1),)), (((1, 1),),), None)
    images = {}
    for tau in [(1, 2, 2), (3, 2, 2), (1, 2, 2), (3, 2, 2)]:
        assert is_valid_normal_form(nf, tau, 1) == (True, None) and codimension(nf, tau, 1) >= 2
        img = psi_map(nf, tau, 1)
        assert img == _reference_psi_map(nf, tau, 1) == images.setdefault(tau, img), tau
    assert images[(1, 2, 2)].eq_sets[0] == () and images[(3, 2, 2)].eq_sets[0] == ((1, 2),)

@st.composite
def _enumerable_tau_and_cut(draw):
    tau = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    k = draw(st.integers(0, len(tau) - 1))
    assume(sum(tau) <= 8)
    return tau, k


@settings(max_examples=25, deadline=None)
@given(_enumerable_tau_and_cut())
def test_psi_is_injective_and_keeps_codimension(tau_k):
    tau, k = tau_k
    forms = [nf for nf in enumerate_normal_forms(tau, k) if codimension(nf, tau, k) >= 2]
    images = [psi_map(nf, tau, k) for nf in forms]
    assert len(set(images)) == len(images)
    assert [_valid_codimension(img, tau, k + 1) for img in images] == [
        codimension(nf, tau, k) for nf in forms
    ]


@pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="about 20 s; set CHAINORDER_SLOW=1")
def test_injection_exhaustive_n8():
    audited = 0
    taus = compositions(8)
    for tau in taus:
        for k in range(len(tau)):
            rep = verify_injection(tau, k)
            assert rep.ok, (tau, k, rep.failures[:3])
            audited += sum(rep.per_codim_counts_src.values())
    assert len(taus) == 128 and audited == 814_979


def test_verify_injection_examples():
    rep = verify_injection((2, 2), 0)
    assert rep.ok and rep.injective and rep.codim_preserved
    rep1 = verify_injection((2, 2), 1)
    assert rep1.ok
    for c, cnt in rep1.per_codim_counts_src.items():
        assert cnt <= rep1.per_codim_counts_img[c]


def test_verify_injection_chain_poset_counts_match():
    # all cuts of a chain give affinely isomorphic polytopes: equality per codim
    for k in range(3):
        rep = verify_injection((1, 1, 1), k)
        assert rep.ok
        for c, n in rep.per_codim_counts_img.items():
            assert rep.per_codim_counts_src.get(c, 0) == n


def test_generator_makes_only_valid_forms():
    # psi_map trusts its source forms, so the generator must never emit an invalid one
    for tau in compositions_upto(5):
        for k in range(len(tau) + 1):
            for nf in enumerate_normal_forms(tau, k):
                ok, reason = is_valid_normal_form(nf, tau, k)
                assert ok, (tau, k, nf, reason)



def test_enumeration_is_canonically_sorted_without_repeats():
    # the forms are built in sort_key order, and the audit relies on it: its
    # failures name the first form of a collision in this order
    for tau in compositions_upto(6):
        for k in range(len(tau) + 1):
            forms = enumerate_normal_forms(tau, k)
            assert forms == sorted(set(forms), key=FaceNormalForm.sort_key), (tau, k)

def _patch_psi(monkeypatch, broken):
    """Replace psi_map with ``broken(nf, tau, k, real_image)``."""
    real = normalform.psi_map
    monkeypatch.setattr(normalform, "psi_map", lambda nf, tau, k: broken(nf, tau, k, real(nf, tau, k)))


@pytest.mark.parametrize("tau", [(2, 2), (2, 1, 2), (1, 2, 1, 1)])
def test_audit_hands_psi_only_codimension_two_or_more(monkeypatch, tau):
    # psi trusts its input, so the audit must filter the forms it passes
    inputs = []

    def record(nf, tau, k, img):
        inputs.append(codimension(nf, tau, k))
        return img

    _patch_psi(monkeypatch, record)
    for k in range(len(tau)):
        inputs.clear()
        rep = verify_injection(tau, k)
        assert rep.ok
        assert min(inputs) >= 2 and len(inputs) == sum(rep.per_codim_counts_src.values())


def test_audit_catches_invalid_image(monkeypatch):
    # the order side at cut 1 of (2, 2), with its two incomparable elements in
    # one block: a partition, but the block is not connected
    pi = (((2, 1), (2, 2)), ((3, 1),))
    _patch_psi(monkeypatch, lambda nf, tau, k, img: FaceNormalForm(pi, img.zero_sets, img.eq_sets))
    rep = verify_injection((2, 2), 0)
    assert not rep.ok
    assert rep.failures and all(f.startswith("invalid image of") for f in rep.failures)
    assert all(f.endswith("pi is not a face partition: block not connected") for f in rep.failures)


def test_audit_catches_collision(monkeypatch):
    first = {}
    _patch_psi(monkeypatch, lambda nf, tau, k, img: first.setdefault(codimension(nf, tau, k), img))
    rep = verify_injection((2, 2), 0)
    assert not rep.ok and not rep.injective and rep.codim_preserved
    assert any(f.startswith("collision:") and "share an image" in f for f in rep.failures)


def test_audit_catches_non_canonical_image(monkeypatch):
    # every second source of a codimension sent onto the image before it with
    # one zero set reversed: the same face, so only a canonical encoding shows
    # the collision
    pending = {}

    def reversed_zeros(nf, tau, k, img):
        i = next((i for i, zeros in enumerate(img.zero_sets) if len(zeros) > 1), None)
        if i is None:
            return img
        cod = codimension(nf, tau, k)
        if cod not in pending:
            pending[cod] = (img, i)
            return img
        earlier, j = pending.pop(cod)
        zero_sets = earlier.zero_sets[:j] + (earlier.zero_sets[j][::-1],) + earlier.zero_sets[j + 1 :]
        return FaceNormalForm(earlier.pi, zero_sets, earlier.eq_sets)

    _patch_psi(monkeypatch, reversed_zeros)
    rep = verify_injection((2, 2, 2), 1)
    assert not rep.ok
    assert rep.failures and all(f.startswith("invalid image of") for f in rep.failures)
    assert all("is not a tuple of its rank's elements in order" in f for f in rep.failures)


def test_audit_catches_unhashable_image(monkeypatch):
    # the same face with its zero sets as a list: not the canonical encoding,
    # and not hashable, so the audit must reject it before it checks for repeats
    _patch_psi(monkeypatch, lambda nf, tau, k, img: FaceNormalForm(img.pi, list(img.zero_sets), img.eq_sets))
    rep = verify_injection((2, 2, 2), 1)
    assert not rep.ok
    assert rep.failures and all(f.startswith("invalid image of") for f in rep.failures)
    assert all(f.endswith("zero_sets must be a tuple of one entry per chain-side rank") for f in rep.failures)


def test_audit_catches_codimension_change(monkeypatch):
    # zeroing one more free chain-side element raises the codimension by one
    def add_zero(nf, tau, k, img):
        if img.eq_sets is not None:
            return img
        for i, zeros in enumerate(img.zero_sets):
            free = [e for e in normalform.rank_elements(tau, i + 1) if e not in zeros]
            if free:
                zero_sets = img.zero_sets[:i] + (tuple(sorted(zeros + (free[0],))),) + img.zero_sets[i + 1 :]
                return FaceNormalForm(img.pi, zero_sets, None)
        return img

    _patch_psi(monkeypatch, add_zero)
    rep = verify_injection((2, 2), 0)
    assert not rep.ok and not rep.codim_preserved
    assert any(f.startswith("codimension changed") for f in rep.failures)
    assert not any(f.startswith("invalid image") for f in rep.failures)


def test_audit_reports_each_bad_form_among_images_sharing_a_partition(monkeypatch):
    # every second image gets a zero set outside its rank; the partition half
    # of each image is checked once per distinct pi, so a verdict cached for a
    # good image must not hide the bad zero set of a later one, or the reverse
    bad_sources, pis = set(), {}

    def bad_zeros_every_second(nf, tau, k, img):
        bad = len(pis.setdefault(img.pi, [])) % 2 == 1
        pis[img.pi].append(bad)
        if not bad:
            return img
        bad_sources.add(nf)
        return FaceNormalForm(img.pi, (((9, 9),),) + img.zero_sets[1:], img.eq_sets)

    _patch_psi(monkeypatch, bad_zeros_every_second)
    for k in range(2):
        bad_sources.clear()
        pis.clear()
        rep = verify_injection((2, 2, 2), k)
        assert not rep.ok and rep.injective and rep.codim_preserved
        assert any(len(set(flags)) == 2 for flags in pis.values())  # good and bad images share a pi
        reason = "zero set of rank 1 is not a tuple of its rank's elements in order"
        assert sorted(rep.failures) == sorted(f"invalid image of {nf}: {reason}" for nf in bad_sources)
    monkeypatch.undo()  # nothing the audit saw carries over to the next audit
    assert verify_injection((2, 2, 2), 1).ok


def test_audit_reports_each_bad_eq_set_among_images_sharing_a_zero_set(monkeypatch):
    # among the images with tight chains that share their zero sets, every
    # second gets a bad eq set, by turns rank 1's own zero set (or an element
    # outside rank 1 where that is empty) or a chain end outside the first
    # order rank; the zero-set and eq-set checks are memoised per rank, so a
    # verdict cached for a good image must not hide the bad eq set of a later
    # one, or the reverse, and each bad image is reported with the reason it
    # has on its own
    reasons, flags = {}, {}

    def bad_eq_sets_every_second(nf, tau, k, img):
        if img.eq_sets is None:
            return img
        shared = flags.setdefault(img.zero_sets, [])
        shared.append(len(shared) % 2 == 1)
        if not shared[-1]:
            return img
        eq = img.eq_sets
        eq = eq[:-1] + (eq[-1] + ((9, 9),),) if len(reasons) % 2 else (img.zero_sets[0] or ((9, 9),),) + eq[1:]
        bad = FaceNormalForm(img.pi, img.zero_sets, eq)
        ok, reasons[nf] = is_valid_normal_form(bad, tau, k + 1)
        assert not ok
        return bad

    _patch_psi(monkeypatch, bad_eq_sets_every_second)
    for k in range(3):
        reasons.clear()
        flags.clear()
        rep = verify_injection((2, 2, 2), k)
        assert not rep.ok and rep.injective and rep.codim_preserved
        assert any(len(shared) > 2 for shared in flags.values())  # good, bad, good on one zero set
        assert len(set(reasons.values())) == 2
        assert sorted(rep.failures) == sorted(f"invalid image of {nf}: {reason}" for nf, reason in reasons.items())
    monkeypatch.undo()
    assert verify_injection((2, 2, 2), 1).ok


def test_audit_memo_does_not_carry_a_verdict_to_another_cut(monkeypatch):
    # the eq set (1, 1), (1, 2) is good at rank 1 of (2, 2, 2), whose audit
    # at cut 1 checks it, and bad at rank 1 of (1, 2, 2), which lacks (1, 2)
    def wide_eq_set_at_rank_1(nf, tau, k, img):
        if img.eq_sets is None:
            return img
        return FaceNormalForm(img.pi, ((),) + img.zero_sets[1:], (((1, 1), (1, 2)),) + img.eq_sets[1:])

    assert verify_injection((2, 2, 2), 1).ok
    _patch_psi(monkeypatch, wide_eq_set_at_rank_1)
    rep = verify_injection((1, 2, 2), 1)
    reason = "eq set of rank 1 is not a tuple of its free elements in order"
    assert rep.failures and all(f.endswith(f": {reason}") for f in rep.failures)


@pytest.mark.parametrize("as_lists", [lambda pi: tuple(map(list, pi)), list], ids=["list-blocks", "list-pi"])
def test_audit_rejects_unhashable_partitions_without_raising(monkeypatch, as_lists):
    _patch_psi(monkeypatch, lambda nf, tau, k, img: FaceNormalForm(as_lists(img.pi), img.zero_sets, img.eq_sets))
    rep = verify_injection((2, 1, 2), 1)
    assert len(rep.failures) == sum(rep.per_codim_counts_src.values()) > 0
    assert all(f.endswith(": pi must be a tuple of blocks, each a tuple") for f in rep.failures)


def test_audit_rejects_an_image_that_is_not_a_form(monkeypatch):
    _patch_psi(monkeypatch, lambda nf, tau, k, img: (img.pi, img.zero_sets, img.eq_sets))
    rep = verify_injection((2, 2), 0)
    assert len(rep.failures) == sum(rep.per_codim_counts_src.values()) > 0
    assert all(f.startswith("invalid image of") and f.endswith(": tuple is not a FaceNormalForm") for f in rep.failures)
    assert is_valid_normal_form(None, (2, 2), 0) == (False, "NoneType is not a FaceNormalForm")
    with pytest.raises(ConfigError):  # a bad cut still raises first
        is_valid_normal_form(None, (2, 2), 3)


def test_injection_reports_digest_upto_6():
    # counts, flags and failures of the audit at every cut of every
    # composition of n <= 6, pinned before the partition memo, which must
    # change no report
    digest = hashlib.sha256()
    for tau in compositions_upto(6):
        for k in range(len(tau)):
            rep = verify_injection(tau, k)
            line = (
                tau,
                k,
                sorted(rep.per_codim_counts_src.items()),
                sorted(rep.per_codim_counts_img.items()),
                rep.injective,
                rep.codim_preserved,
                rep.failures,
            )
            digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == "0bd7a535bd0d3cbb4e3041eda43f791223405d6534651579baf96745c649e4b6"


def test_verify_monotone_small():
    rep = verify_monotone((2, 2, 2))
    assert rep.monotone
    assert sorted(rep.f_vectors) == [0, 1, 2, 3]
    fs = [rep.f_vectors[k] for k in range(4)]
    for lo, hi in zip(fs, fs[1:]):
        assert all(a <= b for a, b in zip(lo, hi))


def test_verify_monotone_counts_each_cut_once_by_f_vector_normal_form(monkeypatch):
    tau = (3, 1, 2, 2)
    expected = {k: f_vector_normal_form(tau, k) for k in range(len(tau) + 1)}
    counted, count = [], normalform.f_vector_normal_form

    def recorded(tau, k):
        counted.append((tau, k))
        return count(tau, k)

    monkeypatch.setattr(normalform, "f_vector_normal_form", recorded)
    rep = verify_monotone(list(tau))
    assert counted == [(tau, k) for k in range(len(tau) + 1)]
    assert (rep.f_vectors, rep.monotone, rep.failures) == (expected, True, [])


def test_verify_monotone_equals_the_per_cut_counts_upto_10():
    cuts = 0
    for tau in compositions_upto(10):
        rep = verify_monotone(tau)
        assert rep.f_vectors == {k: f_vector_normal_form(tau, k) for k in range(len(tau) + 1)}, tau
        cuts += len(rep.f_vectors)
    assert cuts == 6143


def test_verify_monotone_reports_a_drop(monkeypatch):
    monkeypatch.setattr(normalform, "f_vector_normal_form", lambda tau, k: (5 - k, 7))
    rep = verify_monotone((2, 1))
    assert not rep.monotone
    assert rep.failures == [
        "f_0 drops from 5 to 4 between cuts 0 and 1",
        "f_0 drops from 4 to 3 between cuts 1 and 2",
    ]


@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param(lambda n, x: x ** (n + 1), "has unexpected high-codimension terms", id="two-empty-faces"),
        pytest.param(lambda n, x: x ** (n + 2), "has unexpected high-codimension terms", id="past-the-empty-face"),
        pytest.param(lambda n, x: -1, "lost the whole polytope", id="no-polytope"),
    ],
)
def test_counter_asserts_its_extreme_coefficients(monkeypatch, extra, message):
    real_fold, real_digits = normalform._fold, normalform._f_vector_digits
    # every count of one cut is one fold
    monkeypatch.setattr(normalform, "_fold", lambda tau, k, x: real_fold(tau, k, x) + extra(sum(tau), x))
    with pytest.raises(AssertionError, match=f"^normal-form count {message}$"):
        f_vector_normal_form((2, 1, 2), 1)
    # the walk closes its folds at the leaves, and reads each by the same digits
    monkeypatch.setattr(normalform, "_f_vector_digits", lambda total, w, n: real_digits(total + extra(n, 1 << w), w, n))
    with pytest.raises(AssertionError, match=f"^normal-form count {message}$"):
        list(partition_f_vectors(5))


def _rank_one_gaps(rank_matrix, ts, xs):
    """Where M_c - M_o != p (x, -1)^T (1, -1) entrywise, with p the m10 of
    M_o: the (t, x) at which g - 1 != x p or c - s != p."""
    gaps = []
    for x in xs:
        for t in ts:
            (g, c01), (c10, c) = rank_matrix(t, True, x)
            (o00, o01), (p, s) = rank_matrix(t, False, x)
            diff = ((g - o00, c01 - o01), (c10 - p, c - s))
            if diff != ((x * p, -x * p), (-p, p)):
                gaps.append((t, x))
    return gaps


def test_rank_matrix_difference_is_rank_one():
    ts, xs = range(201), (1, 2, 2**42)
    assert _rank_one_gaps(normalform._rank_matrix, ts, xs) == []

    def stay_plus_one(t, chain, x):  # a mutant M_o with s + 1
        (m00, m01), (m10, m11) = normalform._rank_matrix(t, chain, x)
        return (m00, m01), (m10, m11 + (not chain))

    assert _rank_one_gaps(stay_plus_one, ts, xs) == [(t, x) for x in xs for t in ts]


def test_partition_walk_builds_each_matrix_once_per_walk(monkeypatch):
    calls = []
    real = normalform._rank_matrix

    def counted(t, chain, x):
        calls.append((t, chain, x))
        return real(t, chain, x)

    monkeypatch.setattr(normalform, "_rank_matrix", counted)
    assert sum(1 for _ in partition_f_vectors(12)) == 77  # p(12), every partition `table --n 12` walks
    assert {x for _, _, x in calls} == {1 << (2 * 3**12).bit_length()}  # one x, and no pass at x = 1
    # one matrix per (size, side): every size 1..12 is a part of some partition
    keys = sorted((t, chain) for t, chain, _ in calls)
    assert keys == sorted((t, chain) for t in range(1, 13) for chain in (False, True))


def test_rank_matrices_at_one_bound_the_digit_width():
    # entries >= 0 and row sums <= 3^t at x = 1, so a fold from (1, 1) totals at most 2 * 3^n
    for t in range(1, 201):
        for chain in (False, True):
            rows = normalform._rank_matrix(t, chain, 1)
            assert all(m >= 0 for row in rows for m in row), (t, chain)
            assert all(sum(row) <= 3**t for row in rows), (t, chain)


def test_fold_at_one_is_at_most_twice_three_to_the_n():
    for n in range(1, 11):
        top = 0
        for tau in compositions(n):
            for k in range(len(tau) + 1):
                total = normalform._fold(tau, k, 1)
                assert total <= 2 * 3**n, (tau, k)
                top = max(top, total)
        assert top == 3**n + 1  # reached at tau = (n,), both cuts
        assert normalform._fold((n,), 0, 1) == normalform._fold((n,), 1, 1) == top


def test_partition_walk_lists_every_partition_once_in_order():
    for n in range(1, 31):
        walked = [tau for tau, _, _ in partition_f_vectors(n)]
        assert walked == sorted(set(partitions(n))), n  # each once, lexicographic
        assert [tau for tau in walked if cli._in_table(tau)] == table_taus(n), n


def test_partition_walk_counts_both_end_cuts():
    for n in range(1, 13):
        for tau, order, chain in partition_f_vectors(n):
            assert order == f_vector_normal_form(tau, 0), tau
            assert chain == f_vector_normal_form(tau, len(tau)), tau


@pytest.mark.parametrize(
    "cuts",
    [
        # every cut of 2,2,1 has one f-vector; 2,2,2 and 2,1,2 have two, split between k = 1 and 2
        pytest.param([((2, 2, 1), 0), ((2, 2, 1), 2), ((2, 2, 1), 1)], id="same-tau-other-k"),
        pytest.param([((2, 2, 2), 0), ((2, 2, 2), 2), ((2, 2, 2), 1), ((2, 1, 2), 3), ((2, 1, 2), 1)], id="k-across-the-split"),
        pytest.param([((2, 1, 2), 2), ((2, 1, 2), 3), ((2, 1, 2), 2), ((2, 1, 2), 2)], id="side-changes-and-repeats"),
        pytest.param([((3, 1, 2), 1), ((3, 1), 1), ((3, 1, 2, 2), 3), ((3,), 0), ((1,), 1)], id="prefixes-unsorted"),
    ],
)
def test_batch_shares_a_rank_only_on_the_same_side_of_both_cuts(cuts):
    # cuts that a count sharing ranks between cuts must keep apart, each counted on its own
    assert [f_vector_normal_form(tau, k) for tau, k in cuts] == [_reference_f_vector_normal_form(tau, k) for tau, k in cuts]


# ---------------------------------------------------------------------------
# reference counter: list-polynomial arithmetic, term by term
# ---------------------------------------------------------------------------


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return out


def _binom_poly(t: int) -> list[int]:
    return [comb(t, j) for j in range(t + 1)]


def _pick_poly(t: int) -> list[int]:
    """Nonempty subset choices of a t-set, graded by size-1."""
    return [comb(t, j + 1) for j in range(t)]


def _chain_rank_poly(t: int) -> list[int]:
    """Zero/eq choices of one chain-side rank of size t, graded by codimension.

    Either the whole rank is zeroed, or a proper zero subset is chosen along
    with a nonempty eq subset of the remainder.
    """
    poly = [0] * (t + 1)
    poly[t] = 1
    for a in range(t):
        sub = _pick_poly(t - a)
        for j, c in enumerate(sub):
            poly[a + j] += comb(t, a) * c
    return poly


def _order_side_classes(tau, k: int) -> list[tuple[list[int], int, bool]]:
    """Partition generating polynomials grouped by the first-order-rank split.

    Returns triples (poly, s, full_glue): poly counts partitions by total
    block-size deficiency, s is the number of first-rank singletons, and
    full_glue marks the classes whose glued block swallows the entire first
    order rank (the only ones where tight chains may end blockwise).
    """
    ell = len(tau)
    sizes = [tau[r - 1] for r in range(k + 2, ell + 1)] + [1]
    closed, open0 = [1], [0]
    for t in reversed(sizes):
        opened = [0] + _pick_poly(t)  # nonempty bottom subsets, graded by size
        new_closed = _poly_add(closed, _poly_mul(opened, open0))
        # keep absorbing, or close with a nonempty top part and maybe reopen
        new_open0 = _poly_mul([0] * t + [1], open0)
        close_then = [0] * max(t, 1)
        for b in range(1, t + 1):
            coeff = comb(t, b)
            term = closed[:]
            if t - b >= 1:
                term = _poly_add(term, _poly_mul([0] + _pick_poly(t - b), open0))
            for j, c in enumerate(term):
                while b - 1 + j >= len(close_then):
                    close_then.append(0)
                close_then[b - 1 + j] += coeff * c
        new_open0 = _poly_add(new_open0, close_then)
        closed, open0 = new_closed, new_open0
    t1 = tau[k]
    classes: list[tuple[list[int], int, bool]] = [(closed, t1, False)]
    for a in range(1, t1 + 1):
        poly = [0] * a + [comb(t1, a)]
        classes.append((_poly_mul(poly, open0), t1 - a, a == t1))
    return classes


def _reference_f_vector_normal_form(tau, k: int) -> tuple[int, ...]:
    """f-vector of the chain-order polytope at cut k, by counting normal forms.

    Choices factor: a face partition of the order side, independent zero/eq
    data per chain-side rank, and the chain-end choice coupled only to the
    partition through its first-order-rank statistics.  Everything is counted
    by codimension with integer polynomial arithmetic, so this scales far
    beyond explicit enumeration.  The single overdetermined combination (all
    chain ranks zeroed, chain end pinned to one) lands at codimension n+1 and
    is removed; its coefficient is asserted to be exactly 1.
    """
    tau = check_tau(tau)
    ell = len(tau)
    if not 0 <= k <= ell:
        raise ValueError(f"k must be in [0, {ell}], got {k}")
    n = sum(tau)
    chain_prod = [1]
    for i in range(k):
        chain_prod = _poly_mul(chain_prod, _chain_rank_poly(tau[i]))
    if k == ell:
        part_total = [1]
        tops_total = [1]  # the adjoined maximum is the only possible chain end
        chains_core = chain_prod
    else:
        classes = _order_side_classes(tau, k)
        part_total = [0]
        tops_total = [0]
        for poly, s, full_glue in classes:
            part_total = _poly_add(part_total, poly)
            tops = _pick_poly(s)
            if full_glue:
                tops = _poly_add(tops, [1])
            tops_total = _poly_add(tops_total, _poly_mul(poly, tops))
        chains_core = _poly_mul(chain_prod, tops_total)
    no_chains = _poly_mul(_binom_poly(sum(tau[:k])), part_total)
    total = _poly_add(no_chains, [0] + chains_core)
    while len(total) <= n + 1:
        total.append(0)
    if total[n + 1] != 1 or any(total[d] for d in range(n + 2, len(total))):
        raise AssertionError("normal-form count has unexpected high-codimension terms")
    if total[0] != 1:
        raise AssertionError("normal-form count lost the whole polytope")
    return tuple(total[n - i] for i in range(n))


def test_counting_matches_reference_on_small_compositions():
    for tau in compositions_upto(9):
        for k in range(len(tau) + 1):
            assert f_vector_normal_form(tau, k) == _reference_f_vector_normal_form(tau, k), (tau, k)


@st.composite
def _tau_and_cut(draw, largest=12, ranks=8):
    tau = tuple(draw(st.lists(st.integers(1, largest), min_size=1, max_size=ranks)))
    return tau, draw(st.integers(0, len(tau)))


@given(_tau_and_cut())
def test_counting_matches_reference_on_random_tau(tau_k):
    tau, k = tau_k
    assert f_vector_normal_form(tau, k) == _reference_f_vector_normal_form(tau, k)


@given(_tau_and_cut(largest=40, ranks=6))
def test_fold_at_one_is_at_most_twice_three_to_the_n_on_large_ranks(tau_k):
    tau, k = tau_k
    assert normalform._fold(tau, k, 1) <= 2 * 3 ** sum(tau)
