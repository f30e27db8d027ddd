"""Self-test of the benchmark, every workload at its tiny size.

    python3 perfbench/selftest.py

Checks that, for every workload:

* a pass of the correct program passes every check;
* with tracing off no wrapper is installed (``chainorder.normalform.psi_map``
  is the original function), and a traced pass removes its wrappers again;
* a pass that samples the host's speed takes samples, and leaves no timer or
  signal handler behind;
* one corrupted expected value gives failed checks, and ``run.py`` then prints
  a result with ``failed`` > 0 and exits nonzero;
* ``run.py`` prints exactly the end-to-end metrics of BENCHMARK.json with
  ``--trace 0`` and exactly its per-layer metrics with ``--trace 1``.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

from worker import ROOT, HostSpeed, Tally, import_chainorder

HERE = Path(__file__).resolve().parent


def check_in_process(name: str, problems: list[str]) -> None:
    import tracing
    import workloads
    from chainorder import normalform

    original_psi = normalform.psi_map
    workload = workloads.build(name, seed=1, size="tiny")
    res = workload.run_pass()
    if res.attempted < 1 or res.failed:
        problems.append(f"{name}: correct pass failed {res.failed} of {res.attempted}")
    if tracing.installed_wrappers() or normalform.psi_map is not original_psi:
        problems.append(f"{name}: wrapper installed with tracing off")
    handler, tally, host = signal.getsignal(signal.SIGALRM), Tally(), HostSpeed()
    tally.run_pass(workload, host=host)
    if len(host.loops) < 2 or not tally.loop_means or tally.failed:
        problems.append(f"{name}: sampled pass took {len(host.loops)} samples, failed {tally.failed}")
    if signal.getsignal(signal.SIGALRM) is not handler or signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append(f"{name}: sampled pass left its timer or signal handler behind")
    tracer = tracing.Tracer()
    with tracer.installed():
        if normalform.psi_map is original_psi or not tracing.installed_wrappers():
            problems.append(f"{name}: traced pass installed no wrappers")
        workload.run_pass()
    if not tracer.names:
        problems.append(f"{name}: traced pass recorded no spans")
    if tracing.installed_wrappers() or normalform.psi_map is not original_psi:
        problems.append(f"{name}: wrappers left after the traced pass")
    workload.corrupt_expected()
    if workload.run_pass().failed == 0:
        problems.append(f"{name}: corrupted expected value went unnoticed")


def run_bench(name: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_command(name: str, spec: dict, problems: list[str]) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_bench(name, trace)
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        if code != 0 or result is None or not result["correct"]:
            problems.append(f"{name}: correct run with --trace {trace} exited {code}: {result}")
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            problems.append(f"{name}: --trace {trace} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    code, result = run_bench(name, 0, "--corrupt-expected")
    if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
        problems.append(f"{name}: corrupted run exited {code} with {result}")


def main() -> int:
    import_chainorder()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.SIZES):
        print(f"BENCHMARK.json workloads {names} differ from {sorted(workloads.SIZES)}")
        return 1
    problems: list[str] = []
    for name in names:
        check_in_process(name, problems)
        check_command(name, spec, problems)
        print(f"{name}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
