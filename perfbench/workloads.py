"""The benchmark's four workloads: inputs, expected values and one pass each.

Every input and every expected value is generated here, from the workload's
definition and the seed, and never imported from the test suite, so that an
edit to the tests cannot change what a workload runs or is checked against.
The expected values come from closed formulas, the paper's golden table, a
brute-force count done here, or counts pinned at the seed commit; the rest of
the checks compare two independent computations of the program.

Calls into chainorder look the function up on its module at call time
(``polytopes.zero_one_vertices(h)``), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import sys
import traceback
from dataclasses import dataclass, field

from chainorder import cli, facelattice, normalform, polytopes
from chainorder.posets import Poset

from golden import TABLE_10

# Instance-family size per workload: (full, tiny).  A full pass takes about 1
# to 5 seconds, so that a run holds several, except table-geo's: the paper's
# n = 10 table is one CLI call of 25 to 40 seconds.  Tiny sizes are for the
# self-test.
SIZES = {
    "table-geo": (10, 7),
    "table-nf": (26, 12),
    "injection": (5, 3),
    "oracle": (6, 3),
}
ORACLE_POSETS = {6: 100, 3: 8}
RANDOM_POSET_MAX_SIZE = 8

# Forms of codimension >= 2 that verify_injection audits over every cut of
# every composition of n <= N, pinned at the seed commit.
AUDITED_FORMS = {3: 112, 5: 5_409}

FAILURE_LOG_LIMIT = 5


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    work: int = 0  # items of the workload's throughput unit done in the pass
    observed: dict[str, int] = field(default_factory=dict)  # per-layer counts seen by the benchmark


class Workload:
    """One pass is a closed loop: each instance starts after the previous one returns."""

    work_unit = "instances"
    throughput_name = "instances_per_s"

    def __init__(self):
        self._failures_logged = 0

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def corrupt_expected(self) -> None:
        """Change one expected value, so that a correct program fails its check."""
        raise NotImplementedError

    def _check(self, res: PassResult, what: str, check, *args) -> bool:
        """Run and count one instance's check; an exception is a failure too.

        Failures never stop the pass; the first few are described on stderr.
        """
        res.attempted += 1
        detail = ""
        try:
            ok = check(*args)
        except Exception:
            ok, detail = False, traceback.format_exc()
        if not ok:
            res.failed += 1
            if self._failures_logged < FAILURE_LOG_LIMIT:
                sys.stderr.write(f"check failed: {what}\n{detail}")
            self._failures_logged += 1
        return ok


# --------------------------------------------------------------------------
# input generators
# --------------------------------------------------------------------------


def compositions_upto(n_max: int) -> list[tuple[int, ...]]:
    """Every composition (ordered tuple of positive parts) of every n <= n_max."""
    out = []
    for n in range(1, n_max + 1):
        for cuts in range(1 << (n - 1)):  # bit i set: a part ends after unit i
            parts, run = [], 1
            for i in range(n - 1):
                if (cuts >> i) & 1:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            out.append(tuple(parts))
    return out


def table_rows(n: int) -> list[tuple[int, ...]]:
    """Rank sizes of the f-vector table: partitions of n into at least three
    parts, at least two of them >= 2."""

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    return [t for t in partitions(n, n) if len(t) >= 3 and sum(x >= 2 for x in t) >= 2]


def random_order(rng: random.Random, n: int, p: float = 0.3) -> list[int]:
    """Strict up-set bitmask of each of n elements of a random order.

    Each pair i < j is related with probability p, then closed transitively.
    """
    above = [0] * n
    for i in reversed(range(n)):
        m = 0
        for j in range(i + 1, n):
            if rng.random() < p:
                m |= (1 << j) | above[j]
        above[i] = m
    return above


def poset_of(above: list[int]) -> Poset:
    names = tuple(f"x{i}" for i in range(len(above)))
    covers = []
    for i, up in enumerate(above):
        for j in range(len(above)):
            if (up >> j) & 1 and not any((up >> w) & 1 and (above[w] >> j) & 1 for w in range(len(above))):
                covers.append((names[i], names[j]))
    return Poset(names, tuple(covers))


def count_antichains(above: list[int]) -> int:
    """Antichains (the empty one included), by brute force over all subsets."""
    n = len(above)
    related = [above[i] | sum(1 << j for j in range(n) if (above[j] >> i) & 1) for i in range(n)]
    count = 0
    for subset in range(1 << n):
        m = subset
        while m:
            low = m & -m
            if related[low.bit_length() - 1] & subset:
                break
            m ^= low
        else:
            count += 1
    return count


def vertex_count(tau) -> int:
    """Vertices of every chain-order polytope of tau: its antichains, which
    lie within one rank."""
    return 1 + sum(2**t - 1 for t in tau)


# --------------------------------------------------------------------------
# table-geo and table-nf: the CLI table command
# --------------------------------------------------------------------------


@dataclass
class RowExpectation:
    """What one table row must satisfy; ``f`` is the golden f-vector, if known."""

    label: str
    euler: int  # alternating sum of the f-vector
    f0: int  # vertices
    facets: int
    f: tuple[int, ...] | None = None

    def holds(self, label: str, fv: tuple[int, ...]) -> bool:
        return (
            label == self.label
            and len(fv) >= 1
            and sum((-1) ** i * x for i, x in enumerate(fv)) == self.euler
            and fv[0] == self.f0
            and fv[-1] == self.facets
            and (self.f is None or fv == self.f)
        )


def row_expectation(tau, k: int, golden=None) -> RowExpectation:
    n = sum(tau)
    if k == 0:  # order polytope: one facet per cover of the poset with 0 and 1 adjoined
        facets = tau[0] + sum(a * b for a, b in zip(tau, tau[1:])) + tau[-1]
    else:  # chain polytope: nonnegativity plus one facet per maximal chain
        facets = n + math.prod(tau)
    f = None if golden is None else golden[tau][0 if k == 0 else 1]
    return RowExpectation("order" if k == 0 else "chain", 1 + (-1) ** (n - 1), vertex_count(tau), facets, f)


class TableWorkload(Workload):
    """``chainorder table --n N`` through ``cli.main``: one instance for its exit
    status and row count, and one per expected row."""

    def __init__(self, n: int, method: str, golden=None):
        super().__init__()
        self.argv = ["table", "--n", str(n), "--method", method]
        self.expected = {
            (tau, k): row_expectation(tau, k, golden)
            for tau in table_rows(n)
            for k in (0, len(tau))
        }

    def row_work(self, fv: tuple[int, ...]) -> int:
        return 1

    def corrupt_expected(self) -> None:
        first = next(iter(self.expected.values()))
        first.f0 += 1

    def run_pass(self) -> PassResult:
        res = PassResult()
        rows: dict = {}

        def call_cli() -> bool:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(self.argv)
            res.observed["cli.output_bytes"] = len(out.getvalue().encode())
            for row in csv.reader(io.StringIO(out.getvalue())):
                tau = tuple(int(x) for x in row[0].split(","))
                rows[(tau, int(row[1]))] = (row[2], tuple(int(x) for x in row[3:]))
            sys.stderr.write(err.getvalue())
            return status == 0 and len(rows) == len(self.expected)

        self._check(res, f"exit status and row count of {' '.join(self.argv)}", call_cli)
        for key, exp in self.expected.items():
            got = rows.get(key)
            if self._check(res, f"row tau={key[0]} k={key[1]}: {got}", lambda: got and exp.holds(*got)):
                res.work += self.row_work(got[1])
        return res


class TableGeoWorkload(TableWorkload):
    work_unit = "faces"
    throughput_name = "faces_per_s"

    def __init__(self, n: int):
        super().__init__(n, "both", TABLE_10 if n == 10 else None)

    def row_work(self, fv: tuple[int, ...]) -> int:
        return sum(fv) + 2  # the lattice's faces, the empty face and the polytope included


class TableNfWorkload(TableWorkload):
    work_unit = "f-vectors"
    throughput_name = "fvectors_per_s"

    def __init__(self, n: int):
        super().__init__(n, "normalform")


# --------------------------------------------------------------------------
# injection: the paper's main theorem, machine-checked
# --------------------------------------------------------------------------


class InjectionWorkload(Workload):
    """verify_monotone per composition and verify_injection at each of its cuts."""

    work_unit = "forms"
    throughput_name = "forms_per_s"

    def __init__(self, n_max: int, rng: random.Random):
        super().__init__()
        self.taus = compositions_upto(n_max)
        rng.shuffle(self.taus)
        self.expected_forms = AUDITED_FORMS[n_max]

    def corrupt_expected(self) -> None:
        self.expected_forms += 1

    def _monotone_ok(self, tau) -> bool:
        rep = normalform.verify_monotone(tau)
        return rep.monotone and all(fv[0] == vertex_count(tau) for fv in rep.f_vectors.values())

    def _injection_ok(self, tau, k: int, res: PassResult) -> bool:
        rep = normalform.verify_injection(tau, k)
        src, img = rep.per_codim_counts_src, rep.per_codim_counts_img
        res.work += sum(src.values())
        return rep.ok and all(cnt <= img.get(c, 0) for c, cnt in src.items())

    def run_pass(self) -> PassResult:
        res = PassResult()
        for tau in self.taus:
            self._check(res, f"verify_monotone{tau}", self._monotone_ok, tau)
            for k in range(len(tau)):
                self._check(res, f"verify_injection{tau}, k={k}", self._injection_ok, tau, k, res)
        total = res.work
        self._check(res, f"{total} forms audited, {self.expected_forms} pinned", lambda: total == self.expected_forms)
        return res


# --------------------------------------------------------------------------
# oracle: exact vertices, cross-pipeline f-vectors, random-poset polytopes
# --------------------------------------------------------------------------


class OracleWorkload(Workload):
    """One instance per (tau, cut) and one per random poset."""

    def __init__(self, n_max: int, n_posets: int, rng: random.Random):
        super().__init__()
        self.cuts = [(tau, k) for tau in compositions_upto(n_max) for k in range(len(tau) + 1)]
        rng.shuffle(self.cuts)
        self.expected_vertices = {tau: vertex_count(tau) for tau, _ in self.cuts}
        # sizes cycle through 1..8, so that the seed changes only the structure
        orders = [random_order(rng, 1 + i % RANDOM_POSET_MAX_SIZE) for i in range(n_posets)]
        self.posets = [(poset_of(above), count_antichains(above)) for above in orders]

    def corrupt_expected(self) -> None:
        tau = self.cuts[0][0]
        self.expected_vertices[tau] += 1

    def _cut_ok(self, tau, k: int) -> bool:
        h = polytopes.chain_order_hrep(tau, k)
        v = polytopes.zero_one_vertices(h)
        if v.n != self.expected_vertices[tau]:
            return False
        if set(polytopes.vertex_enum_exact(h)) != set(v.vertices):
            return False
        lattice = facelattice.enumerate_faces(facelattice.incidence_matrix(v, h))
        return facelattice.f_vector(lattice) == normalform.f_vector_normal_form(tau, k)

    def _poset_ok(self, p: Poset, antichains: int) -> bool:
        vo, ho = polytopes.order_polytope_dd(p)
        vc, hc = polytopes.chain_polytope_dd(p)
        if not vo.n == vc.n == antichains:
            return False
        for t in (1, 2, 3):
            points = polytopes.lattice_point_count(ho, t)
            if points != polytopes.lattice_point_count(hc, t) or (t == 1 and points != antichains):
                return False
        return True

    def run_pass(self) -> PassResult:
        res = PassResult()
        for tau, k in self.cuts:
            if self._check(res, f"cut tau={tau} k={k}", self._cut_ok, tau, k):
                res.work += 1
        for p, antichains in self.posets:
            if self._check(res, f"poset with covers {p.covers}", self._poset_ok, p, antichains):
                res.work += 1
        return res


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The named workload at its full or tiny size, with inputs from the seed.

    The seed fixes the random posets of ``oracle`` and the order in which
    ``injection`` and ``oracle`` issue their instances.  The table workloads
    are one CLI call each and do not use it.
    """
    n = SIZES[name][0 if size == "full" else 1]
    rng = random.Random(seed)
    if name == "table-geo":
        return TableGeoWorkload(n)
    if name == "table-nf":
        return TableNfWorkload(n)
    if name == "injection":
        return InjectionWorkload(n, rng)
    return OracleWorkload(n, ORACLE_POSETS[n], rng)
