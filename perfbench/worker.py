"""One workload in one fresh interpreter: set up, report ready, run passes.

run.py starts this script and reads two JSON lines from its stdout: ``ready``
once chainorder is imported and the inputs and expected values are built,
and ``result`` after the passes.  Passes run back to back, one caller and one
thread, within the time given; at least one pass always runs.  Each round of
passes runs on the CPU that is fastest when it starts, and the untraced passes
sample the host's speed as they run.  With ``--trace 1`` untraced and traced
passes alternate, and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainorder"
OUT = Path(__file__).resolve().parent / "out"


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def import_chainorder():
    """Import chainorder from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import chainorder

    found = Path(chainorder.__file__).resolve().parent
    if found != PACKAGE.resolve():
        raise SystemExit(f"chainorder resolves to {found}, not {PACKAGE}; refusing to run")
    return chainorder


SAMPLE_INTERVAL_S = 0.05


def time_loop() -> float:
    """Seconds of one run of a fixed pure-Python loop, about half a millisecond.

    It hashes 2,000 integers into a set and reads them back.  Of the loops
    tried (integer arithmetic, dict lookups, list walks, sets), a host slowdown
    slowed this one most nearly as much as it slowed each workload.
    """
    t0 = time.perf_counter()
    seen = set()
    for i in range(0, 6000, 3):
        seen.add(i * 2654435761 % 100003)
    sum(1 for x in seen if x & 1)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the speed of the host while a pass runs.

    On a shared host a co-tenant slows the machine by up to half, for under a
    second or for minutes, which can cover a whole run.  While a pass runs, a
    timer interrupts it every ``SAMPLE_INTERVAL_S`` to time a fixed loop; the
    mean loop time tells how fast the host ran during the pass.  The time
    spent in the loop is taken out of the pass's time.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.loops.append(time_loop())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        self.loops, self.spent = [], 0.0
        self._tick()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick()


class Tally:
    """Times, instance counts and work of the passes run so far.

    With a ``HostSpeed``, each pass's time excludes the sampling, and
    ``loop_means`` holds the mean loop time during each pass.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.loop_means: list[float] = []
        self.attempted = self.failed = self.work = 0

    def run_pass(self, workload, observed: Counter | None = None, host: HostSpeed | None = None) -> None:
        with host.sampling() if host else nullcontext():
            spent = host.spent if host else 0.0
            t0 = time.perf_counter()
            res = workload.run_pass()
            wall = time.perf_counter() - t0
            if host:
                wall -= host.spent - spent  # the samples taken during the pass
        if host:
            self.loop_means.append(statistics.fmean(host.loops))
        self.walls.append(wall)
        self.attempted += res.attempted
        self.failed += res.failed
        self.work += res.work
        if observed is not None:
            observed.update(res.observed)


class CpuPicker:
    """Pins each round of passes to the CPU where a short fixed loop runs fastest.

    On a shared host a co-tenant can slow one CPU for minutes at a time; a
    round that starts on the fastest CPU keeps such a slowdown from covering a
    whole run.  Does nothing where the process may use only one CPU.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def pin(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {min(self.cpus, key=self._loop_time)})

    @staticmethod
    def _loop_time(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(time_loop() for _ in range(6))


def another_round(start: float, seconds: float, *tallies: Tally) -> bool:
    """Whether a round of one pass per tally is expected to end within
    ``seconds`` of ``start``; the first round always runs."""
    if not tallies[0].walls:
        return True
    expected = sum(statistics.median(t.walls) for t in tallies)
    return time.perf_counter() - start + expected <= seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt-expected", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after reporting ready")
    args = ap.parse_args(argv)

    chainorder = import_chainorder()
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    if args.corrupt_expected:
        workload.corrupt_expected()
    _emit({"event": "ready", "chainorder_file": chainorder.__file__})
    if args.setup_only:
        return 0

    wrapped = tracing.installed_wrappers()
    if wrapped:
        raise SystemExit(f"tracing wrappers installed before the run: {wrapped}")
    result = {
        "event": "result",
        "work_unit": workload.work_unit,
        "throughput_name": workload.throughput_name,
    }
    untraced = Tally()
    picker, host = CpuPicker(), HostSpeed()
    start = time.perf_counter()
    if not args.trace:
        while another_round(start, args.seconds, untraced):
            picker.pin()
            untraced.run_pass(workload, host=host)
        result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # untraced and traced passes alternate, so that a change in the
        # speed of a shared host falls on both alike
        traced, tracer, observed = Tally(), tracing.Tracer(), Counter()
        while another_round(start, args.seconds, untraced, traced):
            picker.pin()
            untraced.run_pass(workload, host=host)
            with tracer.installed():
                traced.run_pass(workload, observed)
        result["traced"] = vars(traced)
        result["per_layer"] = tracer.per_layer(len(traced.walls), observed)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["untraced"] = vars(untraced)
    result["wrappers_left"] = tracing.installed_wrappers()
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
