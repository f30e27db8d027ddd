"""Outside-in tracing: spans and counters around calls into chainorder.

The benchmark changes nothing under ``src/``.  A traced run replaces public
functions by timing wrappers at the module attribute their caller looks up:
``chainorder.cli.enumerate_faces`` for the table command,
``chainorder.facelattice.enumerate_faces`` for the benchmark's own calls,
``chainorder.normalform.psi_map`` for calls inside ``normalform``.  Each call
through a wrapper records one span (name, start, end, parent).  Counters are
read from arguments and return values after the span has ended.  Untraced runs
install nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

MARK = "_perfbench_span"

LAYERS = ("cli", "facelattice", "polytopes", "linalg", "normalform", "posets", "cliques")

# Counters derived from a call's arguments by formula, not counted by the program.
COMPUTED = (
    "facelattice.incidence_pairs",
    "polytopes.exact_subsets",
    "polytopes.points_scanned",
    "polytopes.lattice_points_scanned",
)


def _faces(counts, args, lattice):
    counts["facelattice.faces"] += lattice.n_faces
    counts["facelattice.cover_edges"] += len(lattice.covers)


def _incidence(counts, args, inc):
    counts["facelattice.incidence_pairs"] += inc.n_vertices * inc.n_facets


def _hrep_rows(counts, args, h):
    counts["polytopes.hrep_rows"] += len(h.ineqs) + len(h.eqs)


def _zero_one(counts, args, v):
    counts["polytopes.points_scanned"] += 1 << args[0].n_vars
    counts["polytopes.vertices_kept"] += v.n


def _exact(counts, args, vertices):
    h = args[0]
    counts["polytopes.exact_subsets"] += math.comb(len(h.ineqs), h.n_vars - len(h.eqs))
    counts["polytopes.exact_vertices"] += len(vertices)


def _lattice(counts, args, kept):
    h, t = args
    counts["polytopes.lattice_points_scanned"] += (t + 1) ** h.n_vars
    counts["polytopes.lattice_points_kept"] += kept


def _forms(counts, args, forms):
    counts["normalform.forms_generated"] += len(forms)


def _audit(counts, args, rep):
    audited = sum(rep.per_codim_counts_src.values())
    bad = sum(1 for f in rep.failures if f.startswith(("invalid image", "collision")))
    counts["normalform.forms_audited"] += audited
    counts["normalform.valid_distinct_images"] += audited - bad


def _independent_sets(counts, args, sets):
    counts["cliques.independent_sets_found"] += len(sets)


# (span name, module whose attribute is replaced, attribute, counter hook).
# A span name is "<layer>.<function>"; induced_order_poset lives in normalform
# but is charged to posets, because its cost is building a validated Poset.
TARGETS = (
    ("cli.run", "chainorder.cli", "run", None),
    # the table command's steps, where cli looks them up
    ("polytopes.chain_order_hrep", "chainorder.cli", "chain_order_hrep", _hrep_rows),
    ("polytopes.zero_one_vertices", "chainorder.cli", "zero_one_vertices", _zero_one),
    ("facelattice.incidence_matrix", "chainorder.cli", "incidence_matrix", _incidence),
    ("facelattice.enumerate_faces", "chainorder.cli", "enumerate_faces", _faces),
    ("facelattice.f_vector", "chainorder.cli", "f_vector", None),
    ("normalform.f_vector_normal_form", "chainorder.cli", "f_vector_normal_form", None),
    # the benchmark's own calls and the calls between modules
    ("polytopes.chain_order_hrep", "chainorder.polytopes", "chain_order_hrep", _hrep_rows),
    ("polytopes.zero_one_vertices", "chainorder.polytopes", "zero_one_vertices", _zero_one),
    ("polytopes.vertex_enum_exact", "chainorder.polytopes", "vertex_enum_exact", _exact),
    ("polytopes.order_polytope_dd", "chainorder.polytopes", "order_polytope_dd", None),
    ("polytopes.chain_polytope_dd", "chainorder.polytopes", "chain_polytope_dd", None),
    ("polytopes.lattice_point_count", "chainorder.polytopes", "lattice_point_count", _lattice),
    ("linalg.int_matrix_rank", "chainorder.polytopes", "int_matrix_rank", None),
    ("posets.maximal_antichains", "chainorder.polytopes", "maximal_antichains", None),
    ("cliques.maximal_independent_sets", "chainorder.cliques", "maximal_independent_sets", _independent_sets),
    ("facelattice.incidence_matrix", "chainorder.facelattice", "incidence_matrix", _incidence),
    ("facelattice.enumerate_faces", "chainorder.facelattice", "enumerate_faces", _faces),
    ("facelattice.f_vector", "chainorder.facelattice", "f_vector", None),
    # normalform calls these through its own module globals
    ("normalform.f_vector_normal_form", "chainorder.normalform", "f_vector_normal_form", None),
    ("normalform.enumerate_normal_forms", "chainorder.normalform", "enumerate_normal_forms", _forms),
    ("normalform.codimension", "chainorder.normalform", "codimension", None),
    ("normalform.psi_map", "chainorder.normalform", "psi_map", None),
    ("normalform.is_valid_normal_form", "chainorder.normalform", "is_valid_normal_form", None),
    ("normalform.verify_injection", "chainorder.normalform", "verify_injection", _audit),
    ("normalform.verify_monotone", "chainorder.normalform", "verify_monotone", None),
    ("posets.induced_order_poset", "chainorder.normalform", "induced_order_poset", None),
    ("posets.validate_face_partition", "chainorder.normalform", "validate_face_partition", None),
)

# per-layer metric -> span names whose total (inclusive) time it sums
TIME_METRICS = {
    "facelattice.enumerate_faces_s": ("facelattice.enumerate_faces",),
    "facelattice.incidence_matrix_s": ("facelattice.incidence_matrix",),
    "facelattice.f_vector_s": ("facelattice.f_vector",),
    "polytopes.vertex_enum_exact_s": ("polytopes.vertex_enum_exact",),
    "polytopes.zero_one_vertices_s": ("polytopes.zero_one_vertices",),
    "polytopes.chain_order_hrep_s": ("polytopes.chain_order_hrep",),
    "polytopes.poset_dd_s": ("polytopes.order_polytope_dd", "polytopes.chain_polytope_dd"),
    "polytopes.lattice_point_count_s": ("polytopes.lattice_point_count",),
    "linalg.int_matrix_rank_s": ("linalg.int_matrix_rank",),
    "normalform.is_valid_normal_form_s": ("normalform.is_valid_normal_form",),
    "normalform.psi_map_s": ("normalform.psi_map",),
    "normalform.codimension_s": ("normalform.codimension",),
    "normalform.verify_injection_s": ("normalform.verify_injection",),
    "normalform.enumerate_normal_forms_s": ("normalform.enumerate_normal_forms",),
    "normalform.f_vector_normal_form_s": ("normalform.f_vector_normal_form",),
    "normalform.verify_monotone_s": ("normalform.verify_monotone",),
    "posets.induced_order_poset_s": ("posets.induced_order_poset",),
    "posets.validate_face_partition_s": ("posets.validate_face_partition",),
    "posets.maximal_antichains_s": ("posets.maximal_antichains",),
    "cliques.maximal_independent_sets_s": ("cliques.maximal_independent_sets",),
    "cli.run_s": ("cli.run",),
}

# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "linalg.int_matrix_rank_calls": "linalg.int_matrix_rank",
    "normalform.validations": "normalform.is_valid_normal_form",
    "normalform.psi_calls": "normalform.psi_map",
    "normalform.f_vector_normal_form_calls": "normalform.f_vector_normal_form",
    "posets.poset_builds": "posets.induced_order_poset",
    "posets.validate_face_partition_calls": "posets.validate_face_partition",
}

COUNT_METRICS = (
    "facelattice.faces",
    "facelattice.cover_edges",
    "facelattice.incidence_pairs",
    "polytopes.exact_subsets",
    "polytopes.exact_vertices",
    "polytopes.points_scanned",
    "polytopes.vertices_kept",
    "polytopes.hrep_rows",
    "polytopes.lattice_points_scanned",
    "polytopes.lattice_points_kept",
    "normalform.forms_generated",
    "normalform.forms_audited",
    "cliques.independent_sets_found",
    "cli.output_bytes",
)


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_yield", "_per_form", "_frac")):
        return "ratio"
    if metric == "cli.output_bytes":
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def installed_wrappers() -> list[str]:
    """Targets that currently hold a tracing wrapper."""
    return [
        f"{mod}.{attr}"
        for _, mod, attr, _ in TARGETS
        if hasattr(getattr(importlib.import_module(mod), attr), MARK)
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        setattr(traced, MARK, name)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for name, modname, attr, hook in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def per_layer(self, passes: int, observed: Counter) -> dict[str, float]:
        """Per-layer metrics per traced pass; ``observed`` adds counts the
        benchmark saw itself, summed over the same passes."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        total: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            total[name] += duration
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += duration - child[i]
        counts = self.counts + observed

        out: dict[str, float] = {}
        for metric, spans in TIME_METRICS.items():
            out[metric] = sum(total[s] for s in spans) / passes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / passes
        for metric, span in CALL_METRICS.items():
            out[metric] = calls[span] / passes
        for metric in COUNT_METRICS:
            out[metric] = counts[metric] / passes
        out["facelattice.faces_per_s"] = _ratio(out["facelattice.faces"], out["facelattice.enumerate_faces_s"])
        out["polytopes.vertex_yield"] = _ratio(counts["polytopes.vertices_kept"], counts["polytopes.points_scanned"])
        out["normalform.validations_per_form"] = _ratio(out["normalform.validations"], out["normalform.forms_audited"])
        out["normalform.audit_yield"] = _ratio(
            counts["normalform.valid_distinct_images"], counts["normalform.forms_audited"]
        )
        out["trace.spans"] = len(self.names) / passes
        return out

    def write_spans(self, path) -> None:
        """Spans as parallel columns; times in microseconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        data = {
            "names": names,
            "name": [index[n] for n in self.names],
            "parent": self.parents,
            "start_us": [round((t - t0) * 1e6) for t in self.starts],
            "end_us": [round((t - t0) * 1e6) for t in self.ends],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
