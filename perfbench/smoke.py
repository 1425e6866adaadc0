"""The benchmark's own smoke test.

Runs every workload of ``BENCHMARK.json`` at a short length, untraced
and traced, and asserts that

* each run exits 0 and reports ``correct: true`` with ``attempted >= 1``;
* the result line names exactly the end-to-end metrics (``--trace 0``)
  or the per-layer metrics (``--trace 1``) of ``BENCHMARK.json``, each
  with its declared unit and a finite value;
* the correctness checks actually ran: journals were replayed against
  the served state, matchings were checked, requests were counted;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

It also asserts that two known defects of the program (README.md,
"Known defects") are still as recorded: the router's ``cluster_stats``
limit that bounds ``routed-mixed`` still breaks the router, and the
traced ``dense-batch`` run still counts updates over the Theorem 3.5
work cap.  Both are expected failures: once the program is fixed the
smoke test fails, so that the benchmark is updated with the fix.

Usage, from the root of a checkout (about three minutes)::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 1
#: Traced runs that must still observe the work-cap defect (README.md,
#: "Known defects"): the run reports it and does not fail on it.
WORK_CAP_DEFECT = "exceeded the Theorem 3.5 work cap"
WORK_CAP_WORKLOADS = {"dense-batch"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> None:
    """One short run: metric names, units, and that the checks ran."""
    proc = _run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, (
        f"{workload}: exit {proc.returncode}, no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert proc.returncode == 0 and result["correct"], (
        f"{workload}: exit {proc.returncode}, problems "
        f"{details['problems']}\n{proc.stderr}")
    work_cap = [d for d in details["known_defects"] if WORK_CAP_DEFECT in d]
    assert details["known_defects"] == work_cap, details["known_defects"]
    if trace and workload in WORK_CAP_WORKLOADS:
        assert work_cap, (
            f"{workload}: no update exceeded the Theorem 3.5 work cap: the "
            "known defect is gone, so update README.md and this check")
    for defect in work_cap:
        print(f"known defect: {workload} --trace {trace}: {defect}",
              flush=True)
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload}: metrics differ: {set(got) ^ set(want)}"
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), f"{workload}: {name} not finite"
    for run in details["runs"]:
        checks = run["checks"]
        assert checks["replayed_sessions"] >= 1, checks
        assert checks["replayed_updates"] > 0, checks
        assert checks["matchings_checked"] >= 1, checks
        assert sum(run["requests"]["attempted"].values()) >= result[
            "attempted"] / len(details["runs"]), run["requests"]
    print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
          f"{details['runs'][0]['checks']['replayed_updates']} updates "
          "replayed", flush=True)


def check_bare_directory(spec: dict) -> None:
    """Without the program's sources the benchmark must refuse to run."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare directory: benchmark exited 0"
    assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
    print("ok  bare directory refused", flush=True)


def check_router_stats_limit() -> None:
    """Reproduce the defect that caps how long ``routed-mixed`` runs.

    The router reads a shard's ``shard_stats`` reply with asyncio's
    64 KiB line limit, and the reply carries every latency sample the
    shard holds.  Past about 8-9 thousand samples one ``cluster_stats``
    breaks the router's link to that shard for good.  Asserted as an
    expected failure: once the program is fixed this check fails, so
    that ``routed-mixed`` is lengthened (``ROUTED_UPDATES_PER_S``) and
    this check removed together.
    """
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).parent)]
    import streams
    from loadgen import Connection, pipelined
    from procs import ServerProcess

    work = ROOT / ".perfbench-work" / "stats-limit"
    shutil.rmtree(work, ignore_errors=True)
    server = ServerProcess(ROOT, work / "journals", 1, None)
    try:
        server.wait_ready()
        conn = Connection(server.host, server.port, id_base=0)
        universe = streams.clique_universe(4, 16)
        conn.checked({"op": "create", "session": "limit", "num_vertices": 64,
                      "beta": 1, "epsilon": 0.4, "seed": 1})
        churn = [["insert", u, v] for u, v in universe]
        churn += [[op, u, v] for _ in range(12)
                  for edge in universe for op, u, v in
                  (("delete", *edge), ("insert", *edge))]
        batches = [{"op": "batch", "session": "limit",
                    "updates": churn[k:k + 32]}
                   for k in range(0, len(churn), 32)]
        pipelined(conn, batches, 4)
        stats, _ok, _dt = conn.call({"op": "cluster_stats"})
        after, _ok, _dt = conn.call({"op": "query_matching",
                                     "session": "limit"})
        conn.close()
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)
    assert not (stats.get("ok") and after.get("ok")), (
        f"cluster_stats through the router survives {len(churn)} samples "
        "on one shard: the known defect is gone, so lengthen routed-mixed "
        "and drop this check")
    print(f"known defect: after {len(churn)} updates on one shard, "
          f"cluster_stats answered {stats.get('error') or 'ok'} "
          f"(unreachable shards {stats.get('unreachable')}) and the "
          f"next routed request {after.get('error') or 'ok'}", flush=True)


def main() -> int:
    """Run every check; the first failure raises."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory(spec)
    check_router_stats_limit()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
