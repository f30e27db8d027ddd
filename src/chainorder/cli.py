"""Command-line interface: generate posets, emit double descriptions, compute
f-vectors by either pipeline, verify the injection/monotonicity claims, and
reproduce the full two-pipeline f-vector table for a given ground-set size.

Exit codes: 0 success, 1 verification failure, 2 invalid input or configuration,
including files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import BudgetError, ConfigError
from .facelattice import MAX_FACES, count_faces, enumerate_faces, f_vector, incidence_matrix
from .normalform import f_vector_normal_form, verify_injection, verify_monotone
from .polytopes import MAX_POINTS, chain_order_dd
from .polytopes import chain_order_hrep, zero_one_vertices  # unused: perfbench targets (ROADMAP item 1)
from .posets import (
    Poset,
    check_cut,
    check_tau,
    element_name,
    make_maximal_ranked,
    poset_from_json,
    poset_to_json,
)


def _parse_tau(text: str | None) -> tuple[int, ...] | None:
    if not text:  # an absent or empty --tau gives no tau
        return None
    try:
        return check_tau(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad tau {text!r}: {exc}") from exc


def _tau_label(tau) -> str:
    return ",".join(map(str, tau))


def _polytope_label(tau, k: int) -> str:
    if k == 0:
        return "order"
    if k == len(tau):
        return "chain"
    return "chain-order"


def _load_poset(args: argparse.Namespace) -> Poset | None:
    """The --poset file's poset, or None for --tau input; one of the two must be given."""
    if args.poset_file and args.tau is not None:
        raise ConfigError(f"{args.command} takes --tau or --poset, not both")
    if not args.poset_file:
        if args.tau is None:
            raise ConfigError(f"{args.command} needs --tau or --poset")
        return None
    try:
        with open(args.poset_file, "r", encoding="utf-8") as fh:
            return poset_from_json(fh.read())
    # ValueError covers decoding, JSON and poset errors; OSError is left to main
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ConfigError(f"bad poset file {args.poset_file}: {exc}") from exc


def _dd_for(args: argparse.Namespace, tau, k: int | None, poset: Poset | None):
    """(VRep, HRep) for the requested polytope by `chain_order_dd`: the cut k
    of P_tau, or the order or chain polytope of the poset; --budget-points
    bounds its rows and its vertices."""
    if poset is None:
        tau = check_cut(tau, k)
        poset, chain_part = make_maximal_ranked(tau), (1 << sum(tau[:k])) - 1
    else:
        chain_part = (1 << poset.n) - 1 if args.polytope == "chain" else 0
    return chain_order_dd(poset, chain_part, max_points=args.budget_points)


def _geometric_fvector(args: argparse.Namespace, tau, k: int | None, poset: Poset | None):
    """(f-vector, lattice); the whole lattice is built only for export."""
    inc = incidence_matrix(*_dd_for(args, tau, k, poset))
    if args.export_lattice:
        lattice = enumerate_faces(inc, max_faces=args.budget_faces)
        return f_vector(lattice), lattice
    return count_faces(inc, max_faces=args.budget_faces), None


def _pipelines_fvector(args: argparse.Namespace, tau, k: int | None, poset: Poset | None):
    """(f-vector, lattice, agree) by the configured method.

    With ``--method both`` a disagreement is reported on stderr, and the
    geometric f-vector is returned with ``agree`` false.
    """
    geo = norm = lattice = None
    if args.method in ("geometric", "both"):
        geo, lattice = _geometric_fvector(args, tau, k, poset)
    if args.method in ("normalform", "both"):
        norm = f_vector_normal_form(tau, k)
    agree = args.method != "both" or geo == norm
    if not agree:
        sys.stderr.write(
            f"pipeline mismatch at tau={_tau_label(tau)}, k={k}: geometric {geo} vs normal form {norm}\n"
        )
    return (geo if geo is not None else norm), lattice, agree


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_rows(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _export_lattice(path: str, lattice) -> None:
    data = {
        "faces": [
            {"vertices": list(lattice.face_vertices(fid)), "dim": lattice.dims[fid]}
            for fid in range(lattice.n_faces)
        ],
        "covers": [list(edge) for edge in lattice.covers],
        "bottom": lattice.bottom,
        "top": lattice.top,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


def _fvector_command(args: argparse.Namespace) -> int:
    if args.export_lattice and args.method == "normalform":
        raise ConfigError("--export-lattice needs --method geometric or both")
    poset = _load_poset(args)
    tau, k = args.tau, args.k
    if poset is None:
        if k is None:
            raise ConfigError("fvector with --tau needs --k")
        if args.polytope:
            raise ConfigError("--polytope is for --poset input; --tau input takes --k")
        label = _polytope_label(tau, k)
    else:
        if args.method != "geometric":
            raise ConfigError("--poset input supports only --method geometric")
        if k is not None:
            raise ConfigError("--k is for --tau input; --poset input takes --polytope")
        label = args.polytope or "order"

    fv, lattice, agree = _pipelines_fvector(args, tau, k, poset)
    if not agree:
        return 1
    if lattice is not None:
        _export_lattice(args.export_lattice, lattice)
    tau_field = _tau_label(tau) if tau else args.poset_file
    k_field = k if k is not None else ""
    if args.format == "json":
        _emit(args, json.dumps({"tau": tau_field, "k": k_field, "polytope": label, "f": list(fv)}, sort_keys=True) + "\n")
    else:
        _emit(args, _csv_rows([[tau_field, k_field, label, *fv]]))
    return 0


def table_taus(n: int) -> list[tuple[int, ...]]:
    """Rank-size rows of the f-vector table: partitions of n with at least
    three ranks and at least two ranks of size >= 2, in lexicographic order."""

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    rows = [
        t
        for t in partitions(n, n)
        if len(t) >= 3 and sum(1 for x in t if x >= 2) >= 2
    ]
    return sorted(rows)


def _table_command(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"table needs --n >= 1, got {args.n}")
    rows_out: list[list] = []
    status = 0
    for tau in table_taus(args.n):
        for k in (0, len(tau)):
            try:
                fv, _, agree = _pipelines_fvector(args, tau, k, None)
            except BudgetError as exc:
                raise BudgetError(f"at tau={_tau_label(tau)}, k={k} ({_polytope_label(tau, k)}): {exc}") from exc
            if not agree:
                status = 1
            rows_out.append([_tau_label(tau), k, _polytope_label(tau, k), *fv])
    if args.format == "json":
        payload = [
            {"tau": r[0], "k": r[1], "polytope": r[2], "f": list(r[3:])} for r in rows_out
        ]
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, _csv_rows(rows_out))
    return status


def _verify_command(args: argparse.Namespace) -> int:
    tau = args.tau
    if tau is None:
        raise ConfigError("verify needs --tau")
    lines: list[str] = []
    payload: dict = {"tau": list(tau)}
    ok = True
    if args.what == "injectivity":
        ks = [args.k] if args.k is not None else list(range(len(tau)))
        reports = []
        for k in ks:
            rep = verify_injection(tau, k)
            reports.append(rep)
            lines.append(
                f"cut {k} -> {k + 1}: injective={rep.injective} "
                f"codim_preserved={rep.codim_preserved} failures={len(rep.failures)}"
            )
            for c in sorted(rep.per_codim_counts_src):
                lines.append(
                    f"  codim {c}: {rep.per_codim_counts_src[c]} -> "
                    f"{rep.per_codim_counts_img.get(c, 0)} available"
                )
            ok = ok and rep.ok
        payload["reports"] = [
            {
                "k": rep.k,
                "injective": rep.injective,
                "codim_preserved": rep.codim_preserved,
                "per_codim_src": rep.per_codim_counts_src,
                "per_codim_img": rep.per_codim_counts_img,
                "failures": rep.failures,
            }
            for rep in reports
        ]
    else:  # monotone
        if args.k is not None:
            raise ConfigError("verify monotone checks every cut; --k is for injectivity")
        rep = verify_monotone(tau)
        for k in sorted(rep.f_vectors):
            lines.append(f"k={k}: f = {rep.f_vectors[k]}")
        lines.append(f"monotone={rep.monotone}")
        lines.extend(rep.failures)
        ok = rep.monotone
        payload["f_vectors"] = {str(k): list(v) for k, v in rep.f_vectors.items()}
        payload["monotone"] = rep.monotone
        payload["failures"] = rep.failures
    payload["ok"] = ok
    _emit(args, "\n".join(lines) + "\n")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0 if ok else 1


def _dd_command(args: argparse.Namespace) -> int:
    if args.k is not None and args.polytope != "chain-order":
        raise ConfigError("--k is for --polytope chain-order")
    poset = _load_poset(args)
    if args.polytope == "chain-order":
        if poset is not None or args.k is None:
            raise ConfigError("chain-order needs --tau and --k")
        v, h = _dd_for(args, args.tau, args.k, None)
    else:
        v, h = _dd_for(args, None, None, make_maximal_ranked(args.tau) if poset is None else poset)
    data = {
        "vars": [element_name(e) for e in h.var_names],
        "ineqs": [{"coeffs": list(c), "rhs": r} for c, r in h.ineqs],
        "eqs": [],
        "vertices": [list(vert) for vert in v.vertices],
    }
    _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def _gen_command(args: argparse.Namespace) -> int:
    if args.tau is None:
        raise ConfigError("gen needs --tau")
    _emit(args, poset_to_json(make_maximal_ranked(args.tau)) + "\n")
    return 0


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed arguments to their command; returns the process exit code."""
    handlers = {
        "gen": _gen_command,
        "dd": _dd_command,
        "fvector": _fvector_command,
        "verify": _verify_command,
        "table": _table_command,
    }
    return handlers[args.command](args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainorder",
        description="Exact f-vectors of order, chain, and chain-order polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tau_required=False):
        p.add_argument("--tau", type=str, required=tau_required, help="comma-separated rank sizes, e.g. 5,2,1,4,2,3")
        p.add_argument("--output", type=str, default=None)

    g = sub.add_parser("gen", help="write a ranked poset as JSON")
    common(g, tau_required=True)

    d = sub.add_parser("dd", help="double description (vertices and inequalities)")
    common(d)
    d.add_argument("--polytope", choices=["order", "chain", "chain-order"], default="order")
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--poset", dest="poset_file", type=str, default=None)
    d.add_argument("--budget-points", type=int, default=MAX_POINTS)

    f = sub.add_parser("fvector", help="f-vector by one or both pipelines")
    common(f)
    f.add_argument("--k", type=int, default=None)
    f.add_argument("--poset", dest="poset_file", type=str, default=None)
    f.add_argument("--polytope", choices=["order", "chain"], default=None, help="for --poset input")
    f.add_argument("--method", choices=["geometric", "normalform", "both"], default="both")
    f.add_argument("--format", choices=["csv", "json"], default="csv")
    f.add_argument("--export-lattice", dest="export_lattice", type=str, default=None)
    f.add_argument("--budget-faces", type=int, default=MAX_FACES)
    f.add_argument("--budget-points", type=int, default=MAX_POINTS)

    v = sub.add_parser("verify", help="machine-check the injection or monotonicity")
    v.add_argument("what", choices=["injectivity", "monotone"])
    common(v, tau_required=True)
    v.add_argument("--k", type=int, default=None)
    v.add_argument("--json", dest="json_out", type=str, default=None)

    t = sub.add_parser("table", help="order and chain f-vectors for all table rows of size n")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--method", choices=["geometric", "normalform", "both"], default="both")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--output", type=str, default=None)
    t.add_argument("--budget-faces", type=int, default=MAX_FACES)
    t.add_argument("--budget-points", type=int, default=MAX_POINTS)
    t.set_defaults(export_lattice=None)  # the table never exports a lattice
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("budget_faces", "budget_points"):  # fvector, table and dd
            if getattr(args, flag, 0) < 0:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
        if hasattr(args, "tau"):  # every command but table
            args.tau = _parse_tau(args.tau)
        return run(args)
    except (ConfigError, OSError) as exc:  # OSError: unreadable or unwritable files
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
