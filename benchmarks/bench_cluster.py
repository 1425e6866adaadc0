"""Scaling gate for the sharded cluster: updates/sec at 4 shards vs 1.

At 1 and then 4 shards this starts a full cluster — real worker
processes behind a :class:`~repro.cluster.runner.BackgroundCluster`
router — and drives it with four concurrent load-generator *processes*,
each running the deterministic multi-session loadgen over its own slice
of the session space (disjoint ``--session-offset`` ranges).
Throughput is the loadgens' summed applied updates over the longest
loadgen's own elapsed window, so interpreter start-up is not timed.

The gate: 4 shards must reach at least 2x single-shard throughput.  It
is enforced only when the host has >= 4 CPUs (the precedent of
``bench_engine.py``: on fewer cores the curve is recorded but cannot
show parallel speedup).  Replay identity, placement determinism and
graceful worker exits are gated by the tests under ``tests/cluster/``.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py \
        --output results/bench_cluster.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.cluster.runner import BackgroundCluster
from repro.cluster.supervisor import _worker_env

#: The scaling gate: updates/sec at 4 shards vs. 1 shard.
REQUIRED_SPEEDUP_AT_4 = 2.0

#: Cores needed before the scaling gate is meaningful (and enforced).
MIN_CPUS_FOR_GATE = 4

#: The two shard counts the gate compares.
SHARD_COUNTS = (1, 4)

#: Concurrent loadgen processes, and the sessions each one drives.
CLIENTS = 4
SESSIONS_PER_CLIENT = 2


def measure(shards: int, steps: int, seed: int) -> float | None:
    """Updates/sec of a ``shards``-shard cluster under the loadgen burst."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with BackgroundCluster(shards=shards,
                               journal_dir=root / "journals") as cluster:
            procs = [
                subprocess.Popen([
                    sys.executable, "-m", "repro.service.loadgen",
                    "--host", str(cluster.host), "--port", str(cluster.port),
                    "--session", "bench",
                    "--sessions", str(SESSIONS_PER_CLIENT),
                    "--session-offset", str(k * SESSIONS_PER_CLIENT),
                    "--steps", str(steps),
                    "--seed", str(seed),
                    "--out", str(root / f"client-{k}.json"),
                ], env=_worker_env())
                for k in range(CLIENTS)
            ]
            failures = [k for k, proc in enumerate(procs)
                        if proc.wait(timeout=600) != 0]
        if failures:
            raise RuntimeError(f"loadgen client(s) {failures} failed "
                               f"at {shards} shard(s)")
        reports = [json.loads((root / f"client-{k}.json").read_text())
                   for k in range(CLIENTS)]
    applied = sum(report["applied"] for report in reports)
    elapsed = max(report["elapsed_seconds"] for report in reports)
    return round(applied / elapsed, 1) if elapsed > 0 else None


def scaling_gate(curve: dict[int, float | None], cpu_count: int) -> dict:
    """Judge a ``shards -> updates/sec`` curve against the 4-shard gate.

    The gate is enforced only with both a 1- and a 4-shard point and at
    least :data:`MIN_CPUS_FOR_GATE` CPUs; otherwise it is recorded only
    and ``passed`` is true.
    """
    one, four = curve.get(1), curve.get(4)
    speedup = round(four / one, 2) if one and four else None
    enforced = speedup is not None and cpu_count >= MIN_CPUS_FOR_GATE
    return {
        "speedup_at_4_shards": speedup,
        "required_speedup": REQUIRED_SPEEDUP_AT_4,
        "gate_enforced": enforced,
        "passed": not enforced or speedup >= REQUIRED_SPEEDUP_AT_4,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=300,
                        help="updates per session (default 300)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root loadgen seed (default 0)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    curve = {shards: measure(shards, args.steps, args.seed)
             for shards in SHARD_COUNTS}
    scaling = scaling_gate(curve, cpu_count)
    report = {
        "benchmark": "sharded cluster scaling (4 shards vs 1)",
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "seed": args.seed,
        "clients": CLIENTS,
        "sessions": CLIENTS * SESSIONS_PER_CLIENT,
        "steps_per_session": args.steps,
        "updates_per_second": {str(shards): ups
                               for shards, ups in curve.items()},
        "scaling": scaling,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    if not scaling["passed"]:
        print(f"4-shard speedup {scaling['speedup_at_4_shards']}x below "
              f"the required {REQUIRED_SPEEDUP_AT_4}x on a "
              f"{cpu_count}-CPU host", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
