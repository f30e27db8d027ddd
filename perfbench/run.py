"""chainorder benchmark: four fixed workloads, checked outputs, metrics by name.

Run from the repository root:

    python3 perfbench/run.py --workload table-geo --seed 1 --seconds 20 --trace 0

Workloads (sizes in workloads.py):

  table-geo   ``table --n 10 --method both`` checked against the golden table;
              almost all ``facelattice.enumerate_faces``.
  table-nf    ``table --n 26 --method normalform``, each row checked by closed
              formulas; almost all ``normalform.f_vector_normal_form``.
  injection   verify_monotone and verify_injection at every cut of every
              composition of n <= 5; normalform and posets only.
  oracle      exact vertices and cross-pipeline f-vectors on compositions of
              n <= 6, then 100 random posets from the seed; the only workload
              reaching vertex_enum_exact, lattice_point_count and cliques.

A run starts fresh interpreters one at a time, never two together.  With
``--trace 0`` it times several set-ups (interpreter start, importing chainorder,
building the inputs and expected values), then runs one worker that issues the
workload's passes back to back, a closed loop with one caller, until
``--seconds`` are used up (at least one pass), and prints the end-to-end
metrics: ``wall_s`` is the median pass at a fixed reference speed of the host
(see ``at_reference_speed``), ``items_per_s`` the workload's items
(faces, f-vectors, audited forms or oracle instances) per second of it,
``setup_s`` the median set-up and ``peak_rss_mib`` the worker's peak resident
memory.  Each round of passes runs on the CPU where a short fixed loop is
fastest at that moment, because a co-tenant on a shared host can slow one CPU
for minutes, and samples the host's speed as it runs.  With ``--trace 1`` the
worker alternates untraced passes with passes traced at each module boundary,
and prints the per-layer metrics, each module's self time and the tracing
overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the metrics
for a reader, with the run header.  The exit code is 0 when every output
passed its check, 1 when some did not, and 2 when the benchmark could not run.
Summaries and traced spans go to ``perfbench/out/``.  ``perfbench/selftest.py``
checks the benchmark itself at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "chainorder"
OUT = HERE / "out"

WORKLOADS = ("table-geo", "table-nf", "injection", "oracle")
SETUP_PROBES = 6  # set-up-only interpreters per untraced run, besides the worker's own
DEADLINE_S = 170  # a worker still running then is killed


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header() -> dict:
    return {
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.platform()}",
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))),
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread, as a single caller
    return env


def start_worker(args, extra: list[str]) -> tuple[float, dict, str]:
    """Run worker.py to completion; returns (seconds to ready, ready, result line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, *extra,
    ]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            ready_line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0 or not ready_line:
        raise BenchError(f"worker exited with code {code}")
    return setup, json.loads(ready_line), rest.strip()


# The worker's fixed loop's time at full speed on the host the benchmark was
# written on (Intel Xeon at 2.1 GHz, CPython 3.11); wall_s is given at that speed.
REFERENCE_LOOP_S = 0.0004


def at_reference_speed(untraced: dict) -> list[float]:
    """Each pass's seconds, scaled from the host's speed during the pass to the
    reference speed.

    On a shared host the speed of the machine swings by up to half, for under a
    second or for minutes, which can cover a whole run: the fastest or median
    pass of a run moves with it.  Such a slowdown slows the fixed loop sampled
    during the pass as much as the pass, and dividing by the loop's mean time
    takes it out.  A change to chainorder leaves the loop alone, so it shows in
    full.
    """
    return [wall * REFERENCE_LOOP_S / loop for wall, loop in zip(untraced["walls"], untraced["loop_means"])]


def end_to_end(untraced: dict, peak_rss_kib: int, setups: list[float]) -> dict:
    wall = statistics.median(at_reference_speed(untraced))
    per_pass = untraced["work"] / len(untraced["walls"])
    return {
        "wall_s": (wall, "s"),
        "items_per_s": (per_pass / wall, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }


def per_layer(result: dict) -> dict:
    untraced = min(result["untraced"]["walls"])
    traced = min(result["traced"]["walls"])
    metrics = {name: (value, tracing.unit(name)) for name, value in result["per_layer"].items()}
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def run(args) -> tuple[dict, int, int, dict]:
    """(metrics, attempted, failed, details) of one run."""
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no chainorder package at {PACKAGE}; run from a checkout of the repository")
    probes = 0 if args.trace else SETUP_PROBES
    # half the set-up probes before the worker and half after, so that the
    # median spans the run rather than one moment of a shared host
    setups = [start_worker(args, ["--setup-only"])[0] for _ in range(probes // 2)]
    setup, ready, result_line = start_worker(args, [])
    setups.append(setup)
    setups += [start_worker(args, ["--setup-only"])[0] for _ in range(probes - probes // 2)]
    result = json.loads(result_line)
    if result["wrappers_left"]:
        raise BenchError(f"tracing wrappers left installed: {result['wrappers_left']}")
    passes = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result["untraced"], result["peak_rss_kib"], setups)
    details = {
        "chainorder_file": ready["chainorder_file"],
        "work_unit": result["work_unit"],
        "throughput_name": result["throughput_name"],
        "setup_samples": setups,
        "untraced_walls": result["untraced"]["walls"],
        "loop_means": result["untraced"]["loop_means"],
        "traced_walls": result.get("traced", {}).get("walls"),
        "spans_file": result.get("spans_file"),
        "computed_counters": list(tracing.COMPUTED) if args.trace else [],
    }
    return metrics, attempted, failed, details


def report(args, header, metrics, attempted, failed, details) -> None:
    """The human-readable lines that precede the JSON result."""
    print(f"# chainorder benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, size {args.size}")
    print(f"# python {header['python']}, {header['machine']}, nproc {header['nproc']}, "
          f"commit {header['commit']}, src_loc {header['src_loc']} (metadata)")
    print(f"# chainorder {details['chainorder_file']}")
    walls = details["untraced_walls"]
    loops = details["loop_means"]
    print(f"# untraced passes: {len(walls)}, seconds as measured min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f}")
    print(f"# fixed loop, mean per pass: min {min(loops) * 1e3:.4f} median {statistics.median(loops) * 1e3:.4f} "
          f"max {max(loops) * 1e3:.4f} ms; reference {REFERENCE_LOOP_S * 1e3:.4f} ms")
    if details["traced_walls"]:
        print(f"# traced passes: {len(details['traced_walls'])}, spans in {details['spans_file']}")
    for name, (value, unit) in metrics.items():
        note = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{name:40s} {value:16.6g} {unit}{note}")
        if name == "items_per_s":
            print(f"{details['throughput_name']:40s} {value:16.6g} {unit}  ({details['work_unit']} per second)")
        if name == "wall_s":
            print(f"{'':40s} median of {len(walls)} passes, at the reference speed")
        if name == "setup_s":
            print(f"{'':40s} median of {len(details['setup_samples'])} interpreter starts")
    print(f"{'fail_frac':40s} {failed / attempted:16.6g} ratio  ({failed} of {attempted} instances failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chainorder benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="change one expected value, to show that the checks fail (self-test)")
    args = ap.parse_args(argv)
    try:
        header = run_header()
        metrics, attempted, failed, details = run(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    report(args, header, metrics, attempted, failed, details)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, "args": vars(args), **result, **details}, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
