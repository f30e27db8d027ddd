"""Mutants of the package, each caught by the tests named with it.

Each mutant is one source substitution in a module of the package.  The
package is copied to a temporary directory with the substituted module, and
the named tests run against that copy in a fresh interpreter, at their
Tier-1 size.  A mutant passes this check when the substitution applies
exactly once and every named test fails; a named test may be a corpus
digest of ``test_corpus.py``.  A control run of the unchanged copy must pass
every named test, so that a test failing for another reason is not taken
for a catch.  Opt-in: about 55 s; set CHAINORDER_SLOW=1.
"""

import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainorder"

pytestmark = pytest.mark.skipif(os.environ.get("CHAINORDER_SLOW") != "1", reason="about 55 s; set CHAINORDER_SLOW=1")

POLY = "tests/test_polytopes.py::"
HREPS = "tests/test_corpus.py::test_corpus_digest[hrep_counters]"
NF = "tests/test_normalform.py::"
LATTICE = "tests/test_facelattice.py::"
CLI = "tests/test_cli.py::"
POSETS = "tests/test_posets.py::"
PARTITIONS = "tests/test_corpus.py::test_corpus_digest[partition_checks]"

# name: (module, source, substitute, the tests that catch it)
MUTANTS = {
    "lattice floors not scaled by t": (
        "polytopes",
        "(srcs[0], srcs[1:], t * lo, live)",
        "(srcs[0], srcs[1:], lo, live)",
        [POLY + "test_lattice_counts_equal_ideal_multichains", HREPS],
    ),
    "lattice minimum over the first source only": (
        "polytopes",
        "for p, c in rest:",
        "for p, c in ():",
        [POLY + "test_lattice_point_count_examples", HREPS],
    ),
    "lattice running maximum": (
        "polytopes",
        "if (v := state[p] - c * x) < b:",
        "if (v := state[p] - c * x) > b:",
        [POLY + "test_lattice_point_count_examples", HREPS],
    ),
    "adjacency with hits >= 2": (
        "polytopes",
        "if hits == 2:",
        "if hits >= 2:",
        [POLY + "test_vertex_enum_exact_matches_brute_force_on_compositions", HREPS],
    ),
    "adjacency with hits == 1": (
        "polytopes",
        "if hits == 2:",
        "if hits == 1:",
        [POLY + "test_vertex_enum_exact_unit_square", HREPS],
    ),
    "generator values miss the row's first entry": (
        "polytopes",
        "for i, a in support:\n                v += a * l[i]",
        "for i, a in support[1:]:\n                v += a * l[i]",
        [POLY + "test_vertex_enum_exact_unit_square", HREPS],
    ),
    "ray values miss the row's first entry": (
        "polytopes",
        "for i, a in support:\n                v += a * r[i]",
        "for i, a in support[1:]:\n                v += a * r[i]",
        [POLY + "test_vertex_enum_exact_simplex", HREPS],
    ),
    "0/1 bound check with >=": (
        "polytopes",
        "if sums[j] > most:",
        "if sums[j] >= most:",
        [POLY + "test_zero_one_vertices_cube", HREPS],
    ),
    "0/1 leaf takes every row as tight": (
        "polytopes",
        "if s == r:",
        "if s <= r:",
        [POLY + "test_zero_one_vertices_diamond", HREPS],
    ),
    "0/1 search without the GF(2) shortcut": (
        "polytopes",
        "if _gf2_rank(masks, n) == n or",
        "if False or",
        [POLY + "test_zero_one_vertices_ask_for_the_integer_rank_only_past_gf2"],
    ),
    "lattice covers unsorted": (
        "facelattice",
        "return tuple(sorted((fid[c], u) for u, low in enumerate(self.lower) for c in low))",
        "return tuple((fid[c], u) for u, low in enumerate(self.lower) for c in low)",
        [
            LATTICE + "test_lower_covers_give_the_sorted_cover_pairs",
            LATTICE + "test_lattice_matches_brute_force_on_compositions",
        ],
    ),
    "order-side transfer matrix with s + 1": (
        "normalform",
        "(both - 2 * grow + 1) // x + x**t)",
        "(both - 2 * grow + 1) // x + x**t + 1)",
        [NF + "test_rank_matrix_difference_is_rank_one", NF + "test_counting_matches_reference_on_small_compositions"],
    ),
    "output check that truncates": (
        "cli",
        "os.close(os.open(path, os.O_WRONLY))",
        "os.close(os.open(path, os.O_WRONLY | os.O_TRUNC))",
        [
            CLI + "test_table_budget_leaves_an_existing_output_untouched",
            CLI + "test_side_file_and_output_are_checked_before_the_work[argv0---export-lattice-_pipelines_fvector]",
            CLI + "test_side_file_and_output_are_checked_before_the_work[argv1---json-verify_monotone]",
        ],
    ),
    "face partitions with their blocks unsorted": (
        "normalform",
        "return [tuple(sorted(closed)) for closed, _ in states]",
        "return [closed for closed, _ in states]",
        [NF + "test_face_partitions_are_canonical_without_repeats_upto_7", NF + "test_generator_makes_only_valid_forms"],
    ),
    "chain ends read at rank k + 2": (
        "normalform",
        "singles = tuple([b[0] for b in pi if len(b) == 1 and b[0][0] == k + 1])",
        "singles = tuple([b[0] for b in pi if len(b) == 1 and b[0][0] == k + 2])",
        [
            NF + "test_chain_end_facts_and_psi_partition_on_every_face_partition_upto_6",
            NF + "test_enumeration_matches_counting",
        ],
    ),
    "block search keeps only the first member's sets": (
        "posets",
        "up |= above[i]\n            down |= below[i]",
        "up = up or above[i]\n            down = down or below[i]",
        [
            POSETS + "test_validate_face_partition_against_brute_force",
            POSETS + "test_validate_face_partition_reasons_on_every_partition[tau0-reasons0]",
            POSETS + "test_validate_face_partition_reasons_on_every_partition[tau1-reasons1]",
            POSETS + "test_validate_face_partition_against_brute_force_on_natural_posets_upto_4",
            PARTITIONS,
        ],
    ),
    "no outside element between two members": (
        "posets",
        "if any(up & down & ~m for m, up, down in merged) or _topological_order(succ) is None:",
        "if _topological_order(succ) is None:",
        [
            POSETS + "test_validate_face_partition_against_brute_force",
            POSETS + "test_validate_face_partition_reasons_on_every_partition[tau0-reasons0]",
            POSETS + "test_validate_face_partition_reasons_on_every_partition[tau1-reasons1]",
            POSETS + "test_validate_face_partition_against_brute_force_on_natural_posets_upto_4",
            PARTITIONS,
        ],
    ),
    "order side keeps the cut rank": (
        "normalform",
        "tuple(e for e in p.elements if e[0] > k), tuple(c for c in p.covers if c[0][0] > k)",
        "tuple(e for e in p.elements if e[0] >= k), tuple(c for c in p.covers if c[0][0] >= k)",
        [
            NF + "test_worked_codimension_five_configuration",
            NF + "test_face_partitions_match_brute_force[tau3-1]",
            NF + "test_induced_order_poset_matches_the_reference_upto_7",
        ],
    ),
    "gen covers rank i to rank i + 2": (
        "cli",
        "for lower, upper in zip(ranks, ranks[1:]):",
        "for lower, upper in zip(ranks, ranks[2:]):",
        [CLI + "test_gen_bytes_equal_the_standard_encoder", CLI + "test_gen_tau_40_40_digest"],
    ),
    "one-rank gen writes an open covers list": (
        "cli",
        '("\\n  ]" if len(tau) > 1 else "]")',
        '"\\n  ]"',
        [CLI + "test_gen_bytes_equal_the_standard_encoder"],
    ),
    "codimension counts the order side from rank k + 2": (
        "normalform",
        "len(order_ground(tuple(tau), k))",
        "len(order_ground(tuple(tau), k + 1))",
        [NF + "test_worked_codimension_five_configuration", NF + "test_injection_reports_digest_upto_6"],
    ),
    "glued block read by the rank it ends at": (
        "normalform",
        "len(b) > 1 and b[0][0] == r",
        "len(b) > 1 and b[-1][0] == r",
        [
            NF + "test_chain_end_facts_and_psi_partition_on_every_face_partition_upto_6",
            NF + "test_psi_matches_reference_on_small_compositions",
        ],
    ),
}


def _run(tmp_path: Path, tests: list[str]) -> dict[str, bool]:
    """Each test's pass (True) or failure (False) against the package under
    ``tmp_path``, run at its Tier-1 size in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "CHAINORDER_SLOW"}
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), *filter(None, [os.environ.get("PYTHONPATH")])])
    report = tmp_path / "report.xml"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr  # 1: some test failed; else not a clean run
    outcome = {}
    for case in ET.parse(report).iter("testcase"):
        name = case.get("name")
        path = case.get("classname").replace(".", "/") + ".py"
        assert case.find("skipped") is None and case.find("error") is None, (path, name)
        outcome[f"{path}::{name}"] = case.find("failure") is None
    assert sorted(outcome) == sorted(tests), proc.stdout
    return outcome


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(PACKAGE, tmp_path / "chainorder", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "chainorder"


def test_control_copy_passes_every_named_test(tmp_path):
    _copy(tmp_path)
    tests = sorted({t for *_, catchers in MUTANTS.values() for t in catchers})
    assert all(_run(tmp_path, tests).values())


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, name):
    module, source, substitute, catchers = MUTANTS[name]
    path = _copy(tmp_path) / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(source) == 1, f"{source!r} is not in {module}.py exactly once"
    path.write_text(text.replace(source, substitute), encoding="utf-8")
    outcome = _run(tmp_path, catchers)
    assert not any(outcome.values()), f"not caught by {[t for t, ok in outcome.items() if ok]}"
