"""The three workloads: deployments, measured windows, probe, checks.

A run is ``DEPLOYMENTS`` (or, for long ``routed-mixed`` runs, more)
independent deployments of the system under test, one after another.
Each one

1. is set up and timed (``setup_s`` is the median): start the server
   processes, create the sessions, prefill them to steady-state density;
2. runs its measured window: a fixed share of the run's work, which is a
   fixed amount per second of ``--seconds`` (calibrated so the windows
   add up to about that long on a 2-CPU host), so the served state at the
   end is a function of the seed alone;
3. is checked off the clock: snapshot every session (matching ratio,
   validity), run its share of the read probe, read peak RSS, stop the
   servers gracefully, replay the journals against the served state,
   check the request counts.

Every input of every deployment is generated from the seed before the
first clock starts.  The metrics pool the deployments: latency samples
are concatenated and each metric is taken from the fastest slice of
them (:func:`fastest_slice_percentile`).  Separate windows sample
separate moments of a shared host whose speed drifts, and
``routed-mixed`` cannot run one long window anyway (see README.md).
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import SimpleQueue
from typing import Callable

import numpy as np

from repro.cluster.hashing import place
from repro.dynamic.adversaries import AdaptiveAdversary
from repro.matching.matching import Matching
from repro.service.metrics import percentile_sorted

import checks
import streams
from loadgen import Connection, OpCounts, ProtocolBreak, open_loop, pipelined
from procs import ServerProcess

#: Independent deployments per run (at least); their set-up times give
#: ``setup_s``.
DEPLOYMENTS = 3
#: ``single-open`` offered rate (requests/s): half of what one connection
#: sustains in a closed loop when the host runs slow (~0.8 ms per insert
#: round trip; ~0.47 ms when it runs fast).  At 1000/s a slow phase
#: saturated the open loop (README.md).
SINGLE_RATE = 600.0
#: Updates per second of ``--seconds`` in the closed-loop workloads.
DENSE_UPDATES_PER_S = 1700
ROUTED_UPDATES_PER_S = 2400
#: A ``routed-mixed`` deployment applies at most this many updates, so
#: each shard stays below the sample count at which ``cluster_stats``
#: breaks the router (README.md); longer runs add deployments.
ROUTED_MAX_UPDATES = 8000
#: Read probe per deployment of ``single-open`` and ``dense-batch``.
PROBE_QUERIES = 3000
PROBE_STATS = 150
#: ``routed-mixed``: one ``cluster_stats`` poll every this many batches.
ROUTED_POLL_EVERY = 6
#: Each deployment's samples of one kind are cut into at most this many
#: consecutive slices of at least ``SLICE_MIN_SAMPLES``; a latency metric
#: is the fastest slice's percentile and the throughput of a closed loop
#: the fastest slice's.
SLICES_PER_DEPLOYMENT = 8
SLICE_MIN_SAMPLES = 50
#: The open loop's late-sender check takes the median over slices of at
#: least this many sends.
LATE_SLICE_SAMPLES = 1000
#: An open-loop run whose sender ran later than this at p99 is invalid.
LATE_P99_BOUND_MS = 5.0
#: End-to-end metrics where a larger value is better.
HIGHER_IS_BETTER = frozenset({"update_throughput_ups", "matching_ratio"})
PREFILL_BATCH = 32
PREFILL_DEPTH = 4


@dataclass
class RunResult:
    """Raw measurements of one run, turned into metrics by :func:`metrics`."""

    setup_s: list = field(default_factory=list)
    update_ms: list = field(default_factory=list)
    query_ms: list = field(default_factory=list)
    stats_ms: list = field(default_factory=list)
    updates_applied: int = 0
    window_s: float = 0.0
    #: Closed loops, per deployment: ``(seconds into the window, updates
    #: applied)`` of each answered update request, in answer order.
    progress: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    client_cpu_s: float = 0.0
    ratios: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    #: ``(trace_dir, first_ns, last_ns)`` of each deployment's measured
    #: requests, for the trace analysis.
    windows: list = field(default_factory=list)
    counts: OpCounts = field(default_factory=OpCounts)
    bad_updates: int = 0
    #: Updates over the Theorem 3.5 work cap, whole server lifetime
    #: (counted only in traced runs, where the work meter is on).  A
    #: known defect of the program, reported and not failed on: every
    #: answer and replay is still checked (README.md, "Known defects").
    budget_violations: int = 0
    checks: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def percentile(values: list, q: float, failed_value: float) -> float:
    """Nearest-rank percentile; ``None`` entries (failed requests) rank
    above every latency and read as ``failed_value``."""
    value = percentile_sorted(
        sorted(float("inf") if v is None else v for v in values), q)
    return failed_value if value == float("inf") else value


def _slices(values: list, count: int) -> list[list]:
    count = max(1, min(count, len(values)))
    size = len(values) // count
    return [values[k * size:(k + 1) * size] for k in range(count)]


def fastest_slice_percentile(values: list, q: float, failed_value: float,
                             deployments: int) -> float:
    """The lowest percentile over up to ``SLICES_PER_DEPLOYMENT``
    consecutive slices of at least ``SLICE_MIN_SAMPLES`` per deployment
    (samples are appended deployment by deployment).

    The shared host switches between a fast and a slow phase (about 1.5x
    on every time) for a fraction of a second to over a minute at a time,
    independently of the benchmark.  A slice is a second or less of
    traffic and so usually sits in one phase; the fastest slice is the
    service's latency with the host at full speed, which varies far less
    from run to run than the whole window's (README.md, "Steadiness on
    the build host").  A refused or failed request still ranks above
    every latency of its slice.
    """
    return min(percentile(part, q, failed_value)
               for part in _slices(values, slice_count(values, deployments)))


def slice_count(values: list, deployments: int) -> int:
    """How many slices :func:`fastest_slice_percentile` cuts."""
    return max(1, min(SLICES_PER_DEPLOYMENT * deployments,
                      len(values) // SLICE_MIN_SAMPLES))


def fastest_slice_throughput(result: RunResult) -> float:
    """Applied updates per second of the fastest of
    ``SLICES_PER_DEPLOYMENT`` consecutive slices of each deployment's
    answered update requests (see :func:`fastest_slice_percentile`)."""
    best = 0.0
    for points in result.progress:
        since = 0.0
        for part in _slices(points, SLICES_PER_DEPLOYMENT):
            until = part[-1][0]
            best = max(best, sum(n for _t, n in part) / (until - since))
            since = until
    return best


# ---------------------------------------------------------------------- #
# Deployments                                                            #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SessionSpec:
    """One session: its shape and the generated prefill order."""

    name: str
    num_cliques: int
    clique_size: int
    epsilon: float
    seed: int
    prefill: list

    @property
    def num_vertices(self) -> int:
        """Vertex count of the clique union."""
        return self.num_cliques * self.clique_size


def _session(name: str, num_cliques: int, clique_size: int, epsilon: float,
             rng: np.random.Generator) -> SessionSpec:
    universe = streams.clique_universe(num_cliques, clique_size)
    return SessionSpec(name, num_cliques, clique_size, epsilon,
                       int(rng.integers(2**31)),
                       streams.prefill_order(universe, rng))


def _prefill(conn: Connection, spec: SessionSpec) -> None:
    conn.checked({"op": "create", "session": spec.name,
                  "num_vertices": spec.num_vertices, "beta": 1,
                  "epsilon": spec.epsilon, "seed": spec.seed})
    batches = [
        {"op": "batch", "session": spec.name,
         "updates": [["insert", u, v]
                     for u, v in spec.prefill[k:k + PREFILL_BATCH]]}
        for k in range(0, len(spec.prefill), PREFILL_BATCH)
    ]

    def applied_all(index: int, response: dict) -> None:
        if response.get("applied") != len(batches[index]["updates"]):
            raise ProtocolBreak(f"prefill of {spec.name} failed: {response}")

    records = pipelined(conn, batches, PREFILL_DEPTH, applied_all)
    if not all(ok for _s, _a, ok in records):
        raise ProtocolBreak(f"prefill of {spec.name} was refused")


class Deployment:
    """One running system under test plus the load generator's side.

    The constructor is the timed set-up; leaving the ``with`` block
    always stops the server processes.
    """

    def __init__(self, root: Path, workdir: Path, sessions: list,
                 shards: int | None, trace_dir: Path | None,
                 result: RunResult, id_base: int) -> None:
        """Start the servers, create and prefill the sessions (timed)."""
        self.shards = shards
        # A single server gets a CPU of its own and the load generator
        # the other; a router and its shards share both.
        cpus = sorted(os.sched_getaffinity(0))
        self._loadgen_cpus = set(cpus)
        server_cpus = None
        if shards is None and len(cpus) >= 2:
            server_cpus = {cpus[-1]}
            os.sched_setaffinity(0, set(cpus[:-1]))
        self.sessions = sessions
        self.result = result
        self.journal_dir = workdir / "journals"
        self.trace_dir = trace_dir
        self._id_base = id_base
        self.connections: list[Connection] = []
        if trace_dir is not None:
            trace_dir.mkdir(parents=True)
        start = time.perf_counter()
        self.server = ServerProcess(root, self.journal_dir, shards, trace_dir,
                                    server_cpus)
        try:
            self.server.wait_ready()
            self.conn = self.connect()
            for spec in sessions:
                _prefill(self.conn, spec)
        except BaseException:
            self.__exit__()
            raise
        result.setup_s.append(time.perf_counter() - start)

    def __enter__(self) -> "Deployment":
        """The deployment is up (set-up happened in the constructor)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Never leave server processes behind, whatever happened."""
        self.server.stop()
        os.sched_setaffinity(0, self._loadgen_cpus)

    def connect(self) -> Connection:
        """A connection (at most two per deployment: nproc on the host)."""
        id_base = self._id_base + (len(self.connections) << 32)
        conn = Connection(self.server.host, self.server.port, id_base)
        self.connections.append(conn)
        return conn

    def finish(self, window_start: float, probe: bool) -> None:
        """Off the clock: snapshot, probe, RSS, graceful stop, replay."""
        result = self.result
        served = [checks.fetch_served(self.conn, spec.name)
                  for spec in self.sessions]
        result.ratios += [checks.matching_ratio(s) for s in served]
        if probe:
            self.read_probe(PROBE_QUERIES, PROBE_STATS)
        # Traced runs analyse every measured request, the probe's too.
        result.windows.append((self.trace_dir, int(window_start * 1e9),
                               time.perf_counter_ns()))
        result.rss_mb.append(self.server.peak_rss_mb())
        for conn in self.connections:
            checks.verify_counts(conn.counts, conn.sent)
            result.counts.merge(conn.counts)
            conn.close()
        code = self.server.stop()
        if code != 0:
            raise AssertionError(f"server exited with code {code}")
        if self.shards is None:
            replayed = checks.verify_single(self.journal_dir, served)
        else:
            replayed = checks.verify_routed(self.journal_dir, served)
        replayed["matchings_checked"] = len(served)
        journals = list(self.journal_dir.rglob("*.jsonl"))
        replayed["journal_bytes"] = sum(j.stat().st_size for j in journals)
        replayed["journal_header_bytes"] = sum(
            len(j.read_bytes().split(b"\n", 1)[0]) + 1 for j in journals)
        for key, value in replayed.items():
            result.checks[key] = result.checks.get(key, 0) + value

    def read_probe(self, queries: int, polls: int) -> None:
        """Closed-loop reads: ``queries`` ``query_matching`` with ``polls``
        ``cluster_stats`` spread evenly among them, so both kinds of
        sample span the whole probe rather than two bursts."""
        name = self.sessions[0].name
        every = (queries + polls) // polls if polls else 0
        for k in range(queries + polls):
            if every and k % every == every - 1:
                _r, ok, dt = self.conn.call({"op": "cluster_stats"})
                self.result.stats_ms.append(dt * 1e3 if ok else None)
            else:
                _r, ok, dt = self.conn.call({"op": "query_matching",
                                             "session": name})
                self.result.query_ms.append(dt * 1e3 if ok else None)


def _count_bad_updates(response: dict) -> int:
    if not response.get("ok"):
        return 0
    return sum(1 for r in response.get("results", ()) if "error" in r)


# ---------------------------------------------------------------------- #
# Workloads: ``plan`` generates a deployment's inputs, ``drive`` runs its #
# measured window and returns when it started and ended.                 #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """How to generate, deploy and drive one workload."""

    shards: int | None
    probe: bool
    plan: Callable
    drive: Callable
    details: dict


def _single_plan(seed: int, rep: int, seconds: int, deployments: int):
    spec = _session("single", 4, 16, 0.4, _rng(seed, rep, 0))
    universe = streams.clique_universe(4, 16)
    count = int(SINGLE_RATE * seconds) // deployments
    updates = streams.oblivious_stream(universe, universe, count,
                                       _rng(seed, rep, 1))
    offsets = streams.poisson_offsets(SINGLE_RATE, count,
                                      _rng(seed, rep, 2)).tolist()
    requests = [{"op": op, "session": spec.name, "u": u, "v": v}
                for op, u, v in updates]
    return [spec], (requests, offsets)


def _single_drive(deployment: Deployment, plan, result: RunResult):
    requests, offsets = plan
    start, actual, answered, succeeded = open_loop(
        deployment.conn, requests, offsets)
    result.update_ms += [(a - o) * 1e3 if ok else None
                         for a, o, ok in zip(answered, offsets, succeeded)]
    result.late_ms += [(a - o) * 1e3 for a, o in zip(actual, offsets)]
    result.updates_applied += sum(succeeded)
    return start, start + max(answered)


DENSE_BATCH, DENSE_IN_FLIGHT = 32, 4
#: ``dense-batch`` runs its probe queries in this many shares, one after
#: each equal part of the window, so that they sample the whole run
#: rather than one moment of the host after it (README.md).  Its
#: ``cluster_stats`` polls follow the window: their cost grows with the
#: latency samples the server holds.
DENSE_PROBE_PARTS = 8


def _dense_plan(seed: int, rep: int, seconds: int, deployments: int):
    spec = _session("dense", 2, 64, 0.8, _rng(seed, rep, 0))
    universe = streams.clique_universe(2, 64)
    count = (DENSE_UPDATES_PER_S * seconds // deployments
             // DENSE_BATCH * DENSE_BATCH)
    updates = streams.oblivious_stream(universe, universe, count,
                                       _rng(seed, rep, 1))
    requests = [{"op": "batch", "session": spec.name,
                 "updates": [list(x) for x in updates[k:k + DENSE_BATCH]]}
                for k in range(0, count, DENSE_BATCH)]
    return [spec], requests


def _dense_drive(deployment: Deployment, requests, result: RunResult):
    bad = 0

    def on_response(_index: int, response: dict) -> None:
        nonlocal bad
        bad += _count_bad_updates(response)

    records, progress, window = [], [], 0.0
    size = -(-len(requests) // DENSE_PROBE_PARTS)
    start = time.perf_counter()
    for part in range(DENSE_PROBE_PARTS):
        begin = time.perf_counter()
        done = pipelined(deployment.conn, requests[part * size:
                                                   (part + 1) * size],
                         DENSE_IN_FLIGHT, on_response)
        # Window time excludes the probe shares.
        progress += [(window + a - begin, DENSE_BATCH if ok else 0)
                     for _s, a, ok in done]
        window += time.perf_counter() - begin
        records += done
        deployment.read_probe(PROBE_QUERIES // DENSE_PROBE_PARTS, 0)
    deployment.read_probe(0, PROBE_STATS)
    result.update_ms += [(a - s) * 1e3 if ok else None
                         for s, a, ok in records]
    result.progress.append(progress)
    result.updates_applied += (
        sum(DENSE_BATCH for _s, _a, ok in records if ok) - bad)
    result.bad_updates += bad
    return start, start + window


ROUTED_SHARDS, ROUTED_SESSIONS, ROUTED_BATCH = 2, 4, 16


def _routed_names() -> list[str]:
    """Session names that split evenly over the shards."""
    per_shard: dict[int, list[str]] = {k: [] for k in range(ROUTED_SHARDS)}
    want = ROUTED_SESSIONS // ROUTED_SHARDS
    index = 0
    while any(len(names) < want for names in per_shard.values()):
        name = f"mixed-{index}"
        bucket = per_shard[place(name, ROUTED_SHARDS)]
        if len(bucket) < want:
            bucket.append(name)
        index += 1
    return sorted(name for names in per_shard.values() for name in names)


def _routed_plan(seed: int, rep: int, seconds: int, deployments: int):
    specs = [_session(name, 4, 16, 0.4, _rng(seed, rep, k))
             for k, name in enumerate(_routed_names())]
    batches = ROUTED_UPDATES_PER_S * seconds // deployments // ROUTED_BATCH
    adversary_rngs = [_rng(seed, rep, 100 + k) for k in range(len(specs))]
    return specs, (batches, adversary_rngs)


def _routed_drive(deployment: Deployment, plan, result: RunResult):
    total_batches, adversary_rngs = plan
    conn = deployment.conn
    universe = streams.clique_universe(4, 16)
    observed: dict[str, Matching] = {}
    adversaries = []
    for spec, rng in zip(deployment.sessions, adversary_rngs):
        adversary = AdaptiveAdversary(
            universe, observe=lambda name=spec.name: observed[name],
            attack_probability=0.25, rng=rng)
        adversary.preload(universe)
        adversaries.append(adversary)
        edges = conn.checked({"op": "query_matching",
                              "session": spec.name})["edges"]
        observed[spec.name] = Matching.from_edges(spec.num_vertices, edges)

    poller_conn = deployment.connect()
    polls: SimpleQueue = SimpleQueue()

    def poller() -> None:
        while polls.get() is not None:
            _r, ok, dt = poller_conn.call({"op": "cluster_stats"})
            result.stats_ms.append(dt * 1e3 if ok else None)

    thread = threading.Thread(target=poller, daemon=True)
    thread.start()
    progress = []
    result.progress.append(progress)
    start = time.perf_counter()
    try:
        for b in range(total_batches):
            k = b % len(adversaries)
            spec, adversary = deployment.sessions[k], adversaries[k]
            updates = []
            for _ in range(ROUTED_BATCH):
                update = adversary.next_update()
                updates.append([update.op, update.u, update.v])
            response, ok, dt = conn.call({"op": "batch",
                                          "session": spec.name,
                                          "updates": updates})
            result.update_ms.append(dt * 1e3 if ok else None)
            bad = _count_bad_updates(response)
            result.bad_updates += bad
            result.updates_applied += (ROUTED_BATCH - bad) if ok else 0
            progress.append((time.perf_counter() - start,
                             (ROUTED_BATCH - bad) if ok else 0))
            response, ok, dt = conn.call({"op": "query_matching",
                                          "session": spec.name})
            result.query_ms.append(dt * 1e3 if ok else None)
            if ok:
                observed[spec.name] = Matching.from_edges(
                    spec.num_vertices, response["edges"])
            if (b + 1) % ROUTED_POLL_EVERY == 0:
                polls.put(True)
    finally:
        polls.put(None)
        thread.join()
    end = time.perf_counter()
    result.details["attacks"] = (result.details.get("attacks", 0)
                                 + sum(a.attacks for a in adversaries))
    return start, end


WORKLOADS = {
    "single-open": Workload(
        None, True, _single_plan, _single_drive,
        {"loop": "open", "offered_rate_rps": SINGLE_RATE, "connections": 1}),
    "dense-batch": Workload(
        None, False, _dense_plan, _dense_drive,
        {"loop": "closed", "in_flight": DENSE_IN_FLIGHT,
         "batch": DENSE_BATCH, "connections": 1}),
    "routed-mixed": Workload(
        ROUTED_SHARDS, False, _routed_plan, _routed_drive,
        {"loop": "closed", "shards": ROUTED_SHARDS,
         "sessions": ROUTED_SESSIONS, "batch": ROUTED_BATCH,
         "poll_every_batches": ROUTED_POLL_EVERY, "connections": 2}),
}


def run(name: str, root: Path, workdir: Path, seed: int, seconds: int,
        trace_dir: Path | None) -> RunResult:
    """All deployments of one workload; inputs are generated first."""
    workload = WORKLOADS[name]
    count = DEPLOYMENTS
    if workload.shards is not None:
        count = max(count, -(-ROUTED_UPDATES_PER_S * seconds
                              // ROUTED_MAX_UPDATES))
    result = RunResult(details=dict(workload.details, deployments=count))
    plans = [workload.plan(seed, rep, seconds, count) for rep in range(count)]
    for rep, (sessions, plan) in enumerate(plans):
        rep_trace = None if trace_dir is None else trace_dir / f"rep-{rep}"
        with Deployment(root, workdir / f"rep-{rep}", sessions,
                        workload.shards, rep_trace, result,
                        id_base=rep << 40) as deployment:
            cpu = time.process_time()
            start, end = workload.drive(deployment, plan, result)
            result.client_cpu_s += time.process_time() - cpu
            result.window_s += end - start
            deployment.finish(start, workload.probe)
    return result


# ---------------------------------------------------------------------- #
# Metrics and run summary                                                #
# ---------------------------------------------------------------------- #
def metrics(result: RunResult) -> dict:
    """The end-to-end metrics of one run (name -> (value, unit))."""
    def fastest(values: list, q: float) -> float:
        return fastest_slice_percentile(values, q, result.window_s * 1e3,
                                        len(result.setup_s))

    # An open loop applies updates at the offered rate, fast host or not.
    throughput = (fastest_slice_throughput(result)
                  if result.details["loop"] == "closed"
                  else result.updates_applied / result.window_s)
    return {
        "setup_s": (statistics.median(result.setup_s), "s"),
        "update_p50_ms": (fastest(result.update_ms, 50), "ms"),
        "update_p90_ms": (fastest(result.update_ms, 90), "ms"),
        "update_throughput_ups": (throughput, "1/s"),
        "query_p50_ms": (fastest(result.query_ms, 50), "ms"),
        "query_p90_ms": (fastest(result.query_ms, 90), "ms"),
        "stats_p90_ms": (fastest(result.stats_ms, 90), "ms"),
        "matching_ratio": (statistics.fmean(result.ratios), "ratio"),
        "server_rss_mb": (statistics.median(result.rss_mb), "MiB"),
    }


def attempted(result: RunResult) -> int:
    """Measured requests: the windows' plus the read probe's."""
    return len(result.update_ms) + len(result.query_ms) + len(result.stats_ms)


def failed(result: RunResult) -> int:
    """Measured requests that were refused or failed."""
    return sum(v is None for samples in (result.update_ms, result.query_ms,
                                         result.stats_ms) for v in samples)


def late_p99_ms(result: RunResult) -> float:
    """How late the open-loop sender ran at p99, sliced like every tail
    (0 for closed loops)."""
    if not result.late_ms:
        return 0.0
    return statistics.median(
        percentile(part, 99, 0.0) for part in _slices(
            result.late_ms, len(result.late_ms) // LATE_SLICE_SAMPLES))


def journal_bytes_per_update(result: RunResult) -> float:
    """Journal bytes per applied update (headers excluded)."""
    body = (result.checks["journal_bytes"]
            - result.checks["journal_header_bytes"])
    return body / result.checks["replayed_updates"]


def problems(result: RunResult) -> list[str]:
    """Reasons the run cannot be trusted (empty when it can)."""
    found = []
    bad = result.bad_updates + result.counts.errors.get("bad-update", 0)
    if bad:
        found.append(f"{bad} updates refused as bad-update: the served "
                     "graph diverged from the generated stream")
    if late_p99_ms(result) > LATE_P99_BOUND_MS:
        found.append(f"open loop invalid: sender late by "
                     f"{late_p99_ms(result):.2f} ms at p99 "
                     f"(bound {LATE_P99_BOUND_MS} ms)")
    return found


def known_defects(result: RunResult) -> list[str]:
    """Defects of the program the run observed but does not fail on
    (README.md, "Known defects"; ``smoke.py`` asserts they still show)."""
    if not result.budget_violations:
        return []
    return [f"{result.budget_violations} updates exceeded the Theorem 3.5 "
            "work cap (contracts.check_work_budget)"]


def describe(result: RunResult) -> dict:
    """Everything behind the metrics: counts, samples, checks."""
    failed_ms = result.window_s * 1e3
    return {
        **result.details,
        "setup_s": result.setup_s,
        "window_s": result.window_s,
        "updates_applied": result.updates_applied,
        "samples": {"update": len(result.update_ms),
                    "query": len(result.query_ms),
                    "stats": len(result.stats_ms)},
        "slices": {kind: slice_count(values, len(result.setup_s))
                   for kind, values in (("update", result.update_ms),
                                        ("query", result.query_ms),
                                        ("stats", result.stats_ms))},
        # Not metrics: too unsteady on a shared VM (README.md).
        "update_p99_ms": fastest_slice_percentile(
            result.update_ms, 99, failed_ms, len(result.setup_s)),
        "query_p99_ms": fastest_slice_percentile(
            result.query_ms, 99, failed_ms, len(result.setup_s)),
        "stats_p50_ms": fastest_slice_percentile(
            result.stats_ms, 50, failed_ms, len(result.setup_s)),
        "whole_window": {
            "update_p50_ms": percentile(result.update_ms, 50, failed_ms),
            "update_p90_ms": percentile(result.update_ms, 90, failed_ms),
            "update_throughput_ups": (result.updates_applied
                                      / result.window_s)},
        "late_p99_ms": late_p99_ms(result),
        "client_cpu_s": result.client_cpu_s,
        "matching_ratios": result.ratios,
        "peak_rss_mb": result.rss_mb,
        "requests": result.counts.as_dict(),
        "checks": result.checks,
    }
