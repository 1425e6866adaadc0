"""Service benchmark: end-to-end metrics, or per-layer metrics from a trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-batch --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0

The system under test runs in server processes of its own (``python -m
repro.cli serve``, with ``--shards 2`` for ``routed-mixed``); this
process is the load generator and checker.  With ``--trace 0`` the last
stdout line carries every end-to-end metric; with ``--trace 1`` the
workload runs twice with the same seed, untraced and then under
``traced_serve.py``, each pass half of ``--seconds`` long, and the last
line carries every per-layer metric plus the tracing overhead on each
end-to-end metric.  The line before it holds the run's details (host,
versions, seed, rate, sample counts, check results, known defects of the
program the run observed).  Any failed correctness check exits 1; a
checkout without ``src/repro`` exits 2 before doing anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("single-open", "dense-batch", "routed-mixed")


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran
    around this run (it drifts on shared machines; not a metric)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[2]


def _host() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit()}


def _measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns the result line and its details."""
    import workloads

    reference_ms = [_host_reference_ms()]
    workdir = ROOT / ".perfbench-work" / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # A traced run measures the workload twice; each pass gets half of
    # --seconds so the run takes about as long as an untraced one.
    if trace:
        seconds = max(1, seconds // 2)
    plain = workloads.run(workload, ROOT, workdir / "plain", seed, seconds,
                          None)
    results = [plain]
    end_to_end = workloads.metrics(plain)
    if trace:
        import tracing

        traced = workloads.run(workload, ROOT, workdir / "traced", seed,
                               seconds, workdir / "trace")
        results.append(traced)
        metrics = tracing.per_layer(traced, end_to_end,
                                    workloads.metrics(traced))
    else:
        metrics = end_to_end
    reference_ms.append(_host_reference_ms())
    problems, known = [], []
    for result in results:
        problems += workloads.problems(result)
        known += workloads.known_defects(result)
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, **_host(), "host_reference_ms": reference_ms,
               "runs": [workloads.describe(r) for r in results],
               "problems": problems, "known_defects": known}
    attempted = sum(workloads.attempted(r) for r in results)
    failed = sum(workloads.failed(r) for r in results)
    line = {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    shutil.rmtree(workdir, ignore_errors=True)
    return {"line": line, "details": details}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run, print details and the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A waiting thread gets the interpreter lock within 0.1 ms instead
    # of the default 5 ms: the stats poller's stamps of routed-mixed must
    # not wait for the adversary thread.
    sys.setswitchinterval(1e-4)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    from procs import IdleSpinners

    for name in names:
        try:
            with IdleSpinners():
                outcome = _measure(name, args.seed, args.seconds,
                                   bool(args.trace))
        except Exception:
            traceback.print_exc()
            print(f"perfbench: {name} failed a check or could not run",
                  file=sys.stderr)
            return 1
        for defect in outcome["details"]["known_defects"]:
            print(f"perfbench: {name}: known defect of the program: {defect}",
                  file=sys.stderr)
        print(json.dumps({"details": outcome["details"]}), flush=True)
        print(json.dumps(outcome["line"]), flush=True)
        if not outcome["line"]["correct"]:
            print(f"perfbench: {name}: " + "; ".join(
                outcome["details"]["problems"]), file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
