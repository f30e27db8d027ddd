"""Acceptance suite: one test per criterion, exact integer equality throughout.

Golden f-vectors are frozen from the published tables for the size-10 ground
set and for the running example (5,2,1,4,2,3).
"""

import random

from conftest import affine_rank, compositions_upto, random_poset

from chainorder.cli import _in_table, main
from chainorder.facelattice import enumerate_faces, f_vector, incidence_matrix
from chainorder.normalform import f_vector_normal_form, partition_f_vectors, verify_injection, verify_monotone
from chainorder.polytopes import (
    chain_order_hrep,
    chain_polytope_dd,
    lattice_point_count,
    order_polytope_dd,
    vertex_enum_exact,
    zero_one_vertices,
)
from chainorder.posets import make_maximal_ranked

# --------------------------------------------------------------------------
# frozen golden data: (tau) -> (order f-vector, chain f-vector), n = 10
# --------------------------------------------------------------------------
FIGURE_TABLE = {
    (2, 2, 1, 1, 1, 1, 1, 1): (
        (13, 74, 245, 526, 770, 784, 554, 265, 81, 14),
        (13, 74, 245, 526, 770, 784, 554, 265, 81, 14),
    ),
    (2, 2, 2, 1, 1, 1, 1): (
        (14, 85, 297, 665, 1002, 1035, 730, 342, 100, 16),
        (14, 85, 298, 673, 1029, 1085, 785, 378, 113, 18),
    ),
    (2, 2, 2, 2, 1, 1): (
        (15, 97, 358, 838, 1304, 1371, 967, 443, 123, 18),
        (15, 97, 361, 863, 1392, 1541, 1162, 576, 173, 26),
    ),
    (2, 2, 2, 2, 2): (
        (16, 110, 429, 1052, 1695, 1817, 1281, 572, 150, 20),
        (16, 110, 435, 1105, 1893, 2222, 1770, 920, 285, 42),
    ),
    (3, 2, 1, 1, 1, 1, 1): (
        (16, 102, 359, 792, 1162, 1162, 792, 359, 102, 16),
        (16, 102, 359, 792, 1162, 1162, 792, 359, 102, 16),
    ),
    (3, 2, 2, 1, 1, 1): (
        (17, 116, 433, 998, 1504, 1518, 1026, 453, 123, 18),
        (17, 116, 437, 1028, 1598, 1678, 1186, 547, 153, 22),
    ),
    (3, 2, 2, 2, 1): (
        (18, 131, 519, 1257, 1964, 2021, 1364, 586, 150, 20),
        (18, 131, 528, 1329, 2205, 2459, 1831, 878, 249, 34),
    ),
    (3, 3, 1, 1, 1, 1): (
        (19, 139, 533, 1230, 1830, 1810, 1194, 513, 135, 19),
        (19, 139, 533, 1230, 1830, 1810, 1194, 513, 135, 19),
    ),
    (3, 3, 2, 1, 1): (
        (20, 156, 641, 1576, 2466, 2518, 1674, 703, 174, 22),
        (20, 156, 645, 1606, 2564, 2696, 1866, 825, 216, 28),
    ),
    (3, 3, 2, 2): (
        (21, 174, 761, 1972, 3196, 3310, 2182, 887, 207, 24),
        (21, 174, 773, 2078, 3578, 4036, 2970, 1377, 369, 46),
    ),
    (3, 3, 3, 1): (
        (23, 205, 933, 2430, 3866, 3878, 2462, 965, 219, 25),
        (23, 205, 949, 2542, 4206, 4446, 3018, 1281, 315, 37),
    ),
    (4, 2, 1, 1, 1, 1): (
        (23, 163, 589, 1285, 1824, 1739, 1118, 474, 125, 18),
        (23, 163, 589, 1285, 1824, 1739, 1118, 474, 125, 18),
    ),
    (4, 2, 2, 1, 1): (
        (24, 184, 710, 1620, 2354, 2252, 1427, 587, 148, 20),
        (24, 184, 721, 1697, 2577, 2600, 1744, 756, 197, 26),
    ),
    (4, 2, 2, 2): (
        (25, 206, 850, 2048, 3091, 3011, 1898, 756, 179, 22),
        (25, 206, 873, 2221, 3630, 3914, 2778, 1256, 333, 42),
    ),
    (4, 3, 1, 1, 1): (
        (26, 221, 890, 2051, 2963, 2797, 1741, 700, 171, 22),
        (26, 221, 890, 2051, 2963, 2797, 1741, 700, 171, 22),
    ),
    (4, 3, 2, 1): (
        (27, 245, 1066, 2632, 4002, 3885, 2420, 944, 216, 25),
        (27, 245, 1077, 2709, 4236, 4277, 2806, 1166, 285, 34),
    ),
    (4, 3, 3): (
        (30, 315, 1548, 4069, 6263, 5927, 3503, 1272, 267, 28),
        (30, 315, 1592, 4355, 7067, 7159, 4599, 1836, 423, 46),
    ),
    (4, 4, 1, 1): (
        (33, 352, 1513, 3485, 4878, 4388, 2578, 972, 221, 26),
        (33, 352, 1513, 3485, 4878, 4388, 2578, 972, 221, 26),
    ),
    (4, 4, 2): (
        (34, 383, 1813, 4565, 6852, 6445, 3835, 1406, 295, 30),
        (34, 383, 1824, 4642, 7086, 6848, 4254, 1664, 381, 42),
    ),
    (5, 2, 1, 1, 1): (
        (38, 285, 1015, 2125, 2856, 2559, 1540, 610, 150, 20),
        (38, 285, 1015, 2125, 2856, 2559, 1540, 610, 150, 20),
    ),
    (5, 2, 2, 1): (
        (39, 321, 1228, 2687, 3680, 3289, 1941, 744, 175, 22),
        (39, 321, 1254, 2856, 4130, 3931, 2475, 1005, 245, 30),
    ),
    (5, 3, 1, 1): (
        (41, 388, 1562, 3463, 4733, 4195, 2445, 920, 210, 25),
        (41, 388, 1562, 3463, 4733, 4195, 2445, 920, 210, 25),
    ),
    (5, 3, 2): (
        (42, 427, 1875, 4472, 6422, 5820, 3371, 1224, 261, 28),
        (42, 427, 1901, 4641, 6898, 6553, 4030, 1570, 360, 40),
    ),
    (5, 4, 1): (
        (48, 624, 2694, 5943, 7841, 6616, 3645, 1290, 275, 30),
        (48, 624, 2694, 5943, 7841, 6616, 3645, 1290, 275, 30),
    ),
    (6, 2, 1, 1): (
        (69, 520, 1774, 3502, 4408, 3690, 2075, 769, 177, 22),
        (69, 520, 1774, 3502, 4408, 3690, 2075, 769, 177, 22),
    ),
    (6, 2, 2): (
        (70, 587, 2160, 4446, 5672, 4710, 2587, 926, 204, 24),
        (70, 587, 2217, 4788, 6504, 5792, 3411, 1298, 297, 34),
    ),
    (6, 3, 1): (
        (72, 716, 2778, 5795, 7396, 6116, 3333, 1176, 252, 28),
        (72, 716, 2778, 5795, 7396, 6116, 3333, 1176, 252, 28),
    ),
    (7, 2, 1): (
        (132, 964, 3097, 5708, 6692, 5222, 2744, 953, 206, 24),
        (132, 964, 3097, 5708, 6692, 5222, 2744, 953, 206, 24),
    ),
}

RUNNING_EXAMPLE = (5, 2, 1, 4, 2, 3)
RUNNING_ORDER = (
    61, 1306, 13459, 79115, 296362, 759353, 1393462, 1887296, 1922781,
    1488969, 878903, 393545, 131842, 32207, 5492, 607, 38,
)
RUNNING_CHAIN = (
    61, 1306, 13935, 87979, 364142, 1053486, 2220180, 3500405, 4196664,
    3857441, 2720641, 1462271, 589116, 172550, 34780, 4336, 257,
)


def geometric_f_vector(tau, k):
    h = chain_order_hrep(tau, k)
    v = zero_one_vertices(h)
    return f_vector(enumerate_faces(incidence_matrix(v, h))), v, h


def test_c1_golden_rows_both_pipelines():
    targets = [
        ((2, 2, 1, 1, 1, 1, 1, 1), 0), ((2, 2, 1, 1, 1, 1, 1, 1), 8),
        ((2, 2, 2, 2, 2), 0), ((2, 2, 2, 2, 2), 5),
        ((3, 3, 3, 1), 4),
        ((7, 2, 1), 0), ((7, 2, 1), 3),
    ]
    for tau, k in targets:
        expected = FIGURE_TABLE[tau][0 if k == 0 else 1]
        geo, _, _ = geometric_f_vector(tau, k)
        nf = f_vector_normal_form(tau, k)
        assert geo == expected, (tau, k, geo)
        assert nf == expected, (tau, k, nf)
    print("PASS criterion 1: golden rows match on both pipelines")


def test_c2_full_table_reproduction(capsys):
    # the rows the program lists: its walk over the partitions, filtered
    assert [tau for tau, _, _ in partition_f_vectors(10) if _in_table(tau)] == sorted(FIGURE_TABLE)
    assert main(["table", "--n", "10", "--method", "both"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.strip().splitlines()]
    assert len(rows) == 56
    got = {}
    for line in rows:
        tau_text, rest = line.rsplit('",', 1) if line.startswith('"') else (None, None)
        tau = tuple(int(x) for x in tau_text.strip('"').split(","))
        fields = rest.split(",")
        k, label = int(fields[0]), fields[1]
        got[(tau, label)] = tuple(int(x) for x in fields[2:])
    for tau, (f_order, f_chain) in FIGURE_TABLE.items():
        assert got[(tau, "order")] == f_order, tau
        assert got[(tau, "chain")] == f_chain, tau
    with capsys.disabled():
        print("PASS criterion 2: full size-10 table reproduced, both polytopes")


def test_c3_running_example_normal_form():
    ell = len(RUNNING_EXAMPLE)
    assert f_vector_normal_form(RUNNING_EXAMPLE, ell) == RUNNING_CHAIN
    assert f_vector_normal_form(RUNNING_EXAMPLE, 0) == RUNNING_ORDER
    print("PASS criterion 3: running-example f-vectors exact at both trivial cuts")


def test_c4_cross_pipeline_oracle():
    checked = 0
    for tau in compositions_upto(7):
        for k in range(len(tau) + 1):
            geo, _, _ = geometric_f_vector(tau, k)
            assert geo == f_vector_normal_form(tau, k), (tau, k)
            checked += 1
    assert checked == 575
    print(f"PASS criterion 4: geometric == normal form on {checked} instances")


def test_c5_injection_and_monotonicity():
    pairs = 0
    for tau in compositions_upto(7):
        rep = verify_monotone(tau)
        assert rep.monotone, (tau, rep.failures)
        # the two trivial cuts bound the family; first entry stays constant
        f0s = {fv[0] for fv in rep.f_vectors.values()}
        assert len(f0s) == 1, tau
        for k in range(len(tau)):
            irep = verify_injection(tau, k)
            assert irep.injective and irep.codim_preserved and not irep.failures, (
                tau, k, irep.failures[:3],
            )
            for c, cnt in irep.per_codim_counts_src.items():
                assert cnt <= irep.per_codim_counts_img[c], (tau, k, c)
            pairs += 1
    print(f"PASS criterion 5: injection verified on {pairs} cut pairs, f-vectors monotone")


def _corpus_posets():
    posets = [make_maximal_ranked(tau) for tau in compositions_upto(8)]
    rng = random.Random(20240831)
    for _ in range(100):
        posets.append(random_poset(rng, rng.randrange(1, 9)))
    return posets


def test_c6_vertex_and_dilation_count_equality():
    posets = _corpus_posets()
    assert len(posets) == 355
    for p in posets:
        vo, ho = order_polytope_dd(p)
        vc, hc = chain_polytope_dd(p)
        assert vo.n == vc.n, p.elements
        if p.n == 0:
            continue
        for t in (1, 2, 3):
            assert lattice_point_count(ho, t) == lattice_point_count(hc, t), (p.elements, t)
    print(f"PASS criterion 6: vertex-count and dilation-count equality on {len(posets)} posets")


def test_c7_structural_suite():
    rng = random.Random(7)
    lattices = 0
    for tau in compositions_upto(7):
        n = sum(tau)
        for k in range(len(tau) + 1):
            h = chain_order_hrep(tau, k)
            v = zero_one_vertices(h)
            # 0/1 vertex assumption against the exact rational oracle
            assert set(vertex_enum_exact(h)) == set(v.vertices), (tau, k)
            fl = enumerate_faces(incidence_matrix(v, h))
            fv = f_vector(fl)
            lattices += 1
            # Euler relation
            assert sum((-1) ** i * fv[i] for i in range(n)) == 1 + (-1) ** (n - 1), (tau, k)
            # every inequality row is a facet
            assert fv[-1] == len(h.ineqs), (tau, k)
            # graded dimension equals exact affine rank (all faces when small,
            # a sample beyond two thousand)
            fids = [f for f in range(fl.n_faces) if f != fl.bottom]
            if len(fids) > 2000:
                fids = rng.sample(fids, 250)
            for fid in fids:
                pts = [v.vertices[i] for i in fl.face_vertices(fid)]
                assert affine_rank(pts) == fl.dims[fid], (tau, k, fid)
    # partial dominance of the chain polytope over the order polytope
    for tau in compositions_upto(7):
        fo = f_vector_normal_form(tau, 0)
        fc = f_vector_normal_form(tau, len(tau))
        assert fo[-1] <= fc[-1], tau
        if len(fo) >= 2:
            assert fo[1] <= fc[1], tau
    for fo, fc in FIGURE_TABLE.values():
        assert fo[-1] <= fc[-1] and fo[1] <= fc[1]
    print(f"PASS criterion 7: structural checks on {lattices} lattices")
