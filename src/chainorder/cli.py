"""Command-line interface: generate posets, emit double descriptions, compute
f-vectors by either pipeline, verify the injection/monotonicity claims, and
reproduce the full two-pipeline f-vector table for a given ground-set size.

Exit codes: 0 success, 1 verification failure, 2 invalid input or configuration,
including files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .errors import MAX_FACES, MAX_POINTS, BudgetError, ConfigError
from .facelattice import count_faces, enumerate_faces, f_vector, incidence_matrix
from .normalform import f_vector_normal_form, f_vectors_normal_form, verify_injection, verify_monotone
from .polytopes import chain_order_dd
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
    return "order" if k == 0 else "chain" if k == len(tau) else "chain-order"


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


def _pipelines_fvector(args: argparse.Namespace, tau, k: int | None, poset: Poset | None, norm):
    """(f-vector, lattice, agree) by the configured method, given ``norm``,
    the normal-form f-vector already counted, or None for ``--method geometric``;
    the whole lattice is built only for ``--export-lattice``.  With ``--method
    both`` a disagreement is reported on stderr, and the geometric f-vector is
    returned with ``agree`` false."""
    if args.method == "normalform":
        return norm, None, True
    inc = incidence_matrix(*_dd_for(args, tau, k, poset))
    lattice = enumerate_faces(inc, max_faces=args.budget_faces) if args.export_lattice else None
    geo = f_vector(lattice) if lattice is not None else count_faces(inc, max_faces=args.budget_faces)
    agree = args.method == "geometric" or geo == norm
    if not agree:
        sys.stderr.write(f"pipeline mismatch at tau={_tau_label(tau)}, k={k}: geometric {geo} vs normal form {norm}\n")
    return geo, lattice, agree


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    """The open ``--output`` file, or stdout, which is left open."""
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", encoding="utf-8") as fh:
        yield fh


def _emit(args: argparse.Namespace, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _write_rows(args: argparse.Namespace, rows) -> None:
    """Write f-vector rows ``[tau, k, polytope, *f]`` as each comes, as CSV
    lines or as JSON: fvector's one row as one compact object, table's rows as
    the bytes of ``json.dumps(rows, indent=2, sort_keys=True)``, one object at
    a time.  The output is opened before the first row is asked for."""
    with _output(args) as out:
        if args.format == "csv":
            csv.writer(out, lineterminator="\n").writerows(rows)
            return
        objs = ({"tau": tau, "k": k, "polytope": label, "f": fv} for tau, k, label, *fv in rows)
        if args.command == "fvector":
            out.write(json.dumps(next(objs), sort_keys=True) + "\n")
            return
        sep = "[\n  "
        for obj in objs:  # each object indented one level deeper, as inside the list
            out.write(sep + json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  "))
            sep = ",\n  "
        out.write("[]\n" if sep == "[\n  " else "\n]\n")


def _export_lattice(path: str, lattice) -> None:
    data = {
        "faces": [{"vertices": list(lattice.face_vertices(f)), "dim": lattice.dims[f]} for f in range(lattice.n_faces)],
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
    norm = f_vector_normal_form(tau, k) if args.method != "geometric" else None
    fv, lattice, agree = _pipelines_fvector(args, tau, k, poset, norm)
    if not agree:
        return 1
    if lattice is not None:
        _export_lattice(args.export_lattice, lattice)
    _write_rows(args, [[_tau_label(tau) if tau else args.poset_file, "" if k is None else k, label, *fv]])
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

    return sorted(t for t in partitions(n, n) if len(t) >= 3 and sum(1 for x in t if x >= 2) >= 2)


def _check_table_rows(n: int, budget: int) -> None:
    """Refuse ``table --n n`` past ``budget`` rows before any is built.  The
    table has two rows for each partition of n that `table_taus` keeps: all
    but the n with at most one part above 1 and the floor(n/2) - 1 with just
    two parts, both above 1, so p(n) - n - floor(n/2) + 1 of them for n >= 3.
    p is counted upward by Euler's pentagonal recurrence; the row count never
    falls as m grows, so it stops at the first m <= n already past the budget."""
    p = [1]
    for m in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= m:  # the pentagonal numbers g and g + j
            sign = 1 if j % 2 else -1
            total += sign * (p[m - g] + (p[m - g - j] if g + j <= m else 0))
            j += 1
        p.append(total)
        rows = 2 * (total - m - m // 2 + 1) if m >= 3 else 0
        if rows > budget:
            raise BudgetError(f"{'' if m == n else 'at least '}{rows} table rows exceed the point budget {budget}")


def _table_command(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"table needs --n >= 1, got {args.n}")
    _check_table_rows(args.n, args.budget_points)
    taus = table_taus(args.n)
    status = 0

    def rows():
        nonlocal status
        batches = [((tau, 0) for tau in taus), ((tau, len(tau)) for tau in taus)]  # order rows, chain rows
        counted = [f_vectors_normal_form(b) if args.method != "geometric" else [None] * len(taus) for b in batches]
        for tau, *norms in zip(taus, *counted):
            label = _tau_label(tau)  # one label for both of its rows
            for k, norm in zip((0, len(tau)), norms):
                try:
                    fv, _, agree = _pipelines_fvector(args, tau, k, None, norm)
                except BudgetError as exc:
                    raise BudgetError(f"at tau={label}, k={k} ({_polytope_label(tau, k)}): {exc}") from exc
                if not agree:
                    status = 1
                yield [label, k, _polytope_label(tau, k), *fv]

    # normal-form rows stream; a geometric row can spend a budget, and exit 2
    # must leave the output empty, so those rows are all built first
    _write_rows(args, rows() if args.method == "normalform" else list(rows()))
    return status


def _verify_command(args: argparse.Namespace) -> int:
    tau, payload = args.tau, {"tau": list(args.tau)}
    if args.what == "injectivity":
        reports = [verify_injection(tau, k) for k in ([args.k] if args.k is not None else range(len(tau)))]
        lines, payload["reports"] = [], []
        for rep in reports:
            lines.append(
                f"cut {rep.k} -> {rep.k + 1}: injective={rep.injective} "
                f"codim_preserved={rep.codim_preserved} failures={len(rep.failures)}"
            )
            lines.extend(
                f"  codim {c}: {n} -> {rep.per_codim_counts_img.get(c, 0)} available"
                for c, n in sorted(rep.per_codim_counts_src.items())
            )
            payload["reports"].append(
                {"k": rep.k, "injective": rep.injective, "codim_preserved": rep.codim_preserved, "failures": rep.failures,
                 "per_codim_src": rep.per_codim_counts_src, "per_codim_img": rep.per_codim_counts_img}
            )
        ok = all(rep.ok for rep in reports)
    else:  # monotone
        if args.k is not None:
            raise ConfigError("verify monotone checks every cut; --k is for injectivity")
        rep = verify_monotone(tau)
        lines = [f"k={k}: f = {rep.f_vectors[k]}" for k in sorted(rep.f_vectors)]
        lines += [f"monotone={rep.monotone}", *rep.failures]
        ok = rep.monotone
        payload.update(f_vectors={str(k): list(v) for k, v in rep.f_vectors.items()}, monotone=ok, failures=rep.failures)
    payload["ok"] = ok
    if args.json_out:  # before the report, so that a bad path leaves stdout empty
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _dd_command(args: argparse.Namespace) -> int:
    if args.k is not None and args.polytope != "chain-order":
        raise ConfigError("--k is for --polytope chain-order")
    poset = _load_poset(args)
    if args.polytope == "chain-order" and (poset is not None or args.k is None):
        raise ConfigError("chain-order needs --tau and --k")
    ends = {"order": 0, "chain": len(args.tau or ())}  # P_tau's order and chain polytopes are its end cuts
    v, h = _dd_for(args, args.tau, ends.get(args.polytope, args.k), poset)
    data = {
        "vars": [element_name(e) for e in h.var_names],
        "ineqs": [{"coeffs": list(c), "rhs": r} for c, r in h.ineqs],
        "eqs": [],
        "vertices": [list(vert) for vert in v.vertices],
    }
    _emit(args, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


def _gen_command(args: argparse.Namespace) -> int:
    _emit(args, poset_to_json(make_maximal_ranked(args.tau)) + "\n")
    return 0


def run(args: argparse.Namespace) -> int:
    """Run the parsed command; returns the process exit code."""
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainorder", description="Exact f-vectors of order, chain, and chain-order polytopes."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {  # the flags that more than one command takes
        "--tau": dict(help="comma-separated rank sizes, e.g. 5,2,1,4,2,3"),
        "--output": {},
        "--k": dict(type=int),
        "--poset": dict(dest="poset_file"),
        "--method": dict(choices=["geometric", "normalform", "both"], default="both"),
        "--format": dict(choices=["csv", "json"], default="csv"),
        "--budget-faces": dict(type=int, default=MAX_FACES),
        "--budget-points": dict(type=int, default=MAX_POINTS),
    }

    def command(name, handler, help, *flags):
        """A subcommand taking ``flags`` in order: each a shared flag, or (flag, its own keywords)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in flags:
            flag, own = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**shared.get(flag, {}), **own})
        return p

    tau_required = ("--tau", dict(required=True))
    command("gen", _gen_command, "write a ranked poset as JSON", tau_required, "--output")
    command(
        "dd", _dd_command, "double description (vertices and inequalities)", "--tau", "--output",
        ("--polytope", dict(choices=["order", "chain", "chain-order"], default="order")),
        "--k", "--poset", "--budget-points",
    )
    command(
        "fvector", _fvector_command, "f-vector by one or both pipelines", "--tau", "--output", "--k", "--poset",
        ("--polytope", dict(choices=["order", "chain"], help="for --poset input")),
        "--method", "--format", ("--export-lattice", {}), "--budget-faces", "--budget-points",
    )
    command(
        "verify", _verify_command, "machine-check the injection or monotonicity",
        ("what", dict(choices=["injectivity", "monotone"])), tau_required, "--output", "--k",
        ("--json", dict(dest="json_out")),
    )
    command(
        "table", _table_command, "order and chain f-vectors for all table rows of size n",
        ("--n", dict(type=int, required=True)), "--method", "--format", "--output", "--budget-faces", "--budget-points",
    ).set_defaults(export_lattice=None)  # the table never exports a lattice
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("budget_faces", "budget_points"):  # fvector, table and dd
            if getattr(args, flag, 0) < 0:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
        if hasattr(args, "tau"):  # every command but table
            args.tau = _parse_tau(args.tau)
            if args.tau is None and not hasattr(args, "poset_file"):  # gen and verify; _load_poset checks the others
                raise ConfigError(f"{args.command} needs --tau")
        return run(args)
    except (ConfigError, OSError) as exc:  # OSError: unreadable or unwritable files
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
