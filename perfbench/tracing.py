"""Span tracing of the server's layers, from outside the program.

Two halves:

* :func:`install` runs inside a server process (via ``traced_serve.py``).
  It wraps each layer's per-request entry points with spans, patching
  every name where its caller looks it up — ``server.py`` imported
  ``parse_request`` and ``encode`` into its own namespace, so those are
  patched on ``repro.service.server`` (and ``repro.cluster.router``),
  not only on the protocol module.  Spans live in memory as
  ``[name, start_ns, end_ns, parent, root]``; each request's root span
  carries the client's request id.  :meth:`Recorder.dump` writes them
  out when the server shuts down.
* :func:`per_layer` runs in the benchmark process.  It reads the dumps,
  keeps the requests received inside the measured window, derives each
  layer's self time (span duration minus the part its children cover)
  and turns them into the per-layer metrics.

A batch of updates is applied by the session's batch worker, not by the
request task, so ``_enqueue`` remembers which request queued each update
and ``session.apply`` spans are parented to that request's
``batching.submit`` span; a journal flush, done once per batch, is shared
evenly among the requests in the batch.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import deque
from contextvars import ContextVar
from pathlib import Path

from repro.service.metrics import percentile

_NOW = time.perf_counter_ns
#: (span index, root index) of the innermost open span of this task.
_CURRENT: ContextVar = ContextVar("perfbench_span", default=None)
#: Matcher rebuild stage of each work-meter site.
STAGE_OF_SITE = {
    "incremental_rebuild.sample": "sample",
    "DynamicGraph.sample_neighbors": "sample",
    "incremental_rebuild.build_adj": "build_adj",
    "incremental_rebuild.greedy": "greedy",
    "incremental_rebuild.augment": "augment",
}
STAGES = ("sample", "build_adj", "greedy", "augment")
_UPDATE_OPS = ("insert", "delete", "batch")


class Recorder:
    """In-memory spans of one server process."""

    def __init__(self) -> None:
        """Start empty."""
        self.spans: list[list] = []
        self.roots: dict[int, dict] = {}
        self.extra: dict[int, dict] = {}
        self.flushes: list[tuple] = []
        self.batches: list[tuple] = []
        self.enqueued: dict = {}
        self.apply_owners: deque | None = None
        self.batch_roots: list | None = None
        self.rejected = 0
        self.samples_held = 0
        self.violations: list[int] = []

    def open(self, name: str, parent: int, root: int) -> int:
        """Start a span; returns its index."""
        self.spans.append([name, _NOW(), 0, parent, root])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End a span."""
        self.spans[index][2] = _NOW()

    def dump(self, path: Path, role: str) -> None:
        """Write everything out (called once, at shutdown)."""
        path.write_text(json.dumps({
            "role": role, "spans": self.spans,
            "roots": [[k, v] for k, v in self.roots.items()],
            "extra": [[k, v] for k, v in self.extra.items()],
            "flushes": self.flushes, "batches": self.batches,
            "rejected": self.rejected, "samples_held": self.samples_held,
            "violations": self.violations,
        }))


# ---------------------------------------------------------------------- #
# Wrappers (server side)                                                 #
# ---------------------------------------------------------------------- #
def _sync_span(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = _CURRENT.get()
        if current is None:
            return fn(*args, **kwargs)
        index = rec.open(name, current[0], current[1])
        token = _CURRENT.set((index, current[1]))
        try:
            result = fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            rec.close(index)
        if after is not None:
            after(index, current[1], args, result)
        return result
    return wrapper


def _async_span(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        current = _CURRENT.get()
        if current is None:
            return await fn(*args, **kwargs)
        index = rec.open(name, current[0], current[1])
        token = _CURRENT.set((index, current[1]))
        try:
            return await fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            rec.close(index)
    return wrapper


def _metered(rec: Recorder, name: str, fn, workmeter, sites: bool):
    """A span that also records the work meter's counts inside it."""
    @functools.wraps(fn)
    def wrapper(self, *args):
        current = _CURRENT.get()
        meter = workmeter.active()
        if current is None or meter is None:
            return fn(self, *args)
        before_ops = meter.total_ops
        before_stages = _stage_ops(meter) if sites else None
        rebuilds = getattr(self, "rebuilds_completed", 0)
        index = rec.open(name, current[0], current[1])
        token = _CURRENT.set((index, current[1]))
        try:
            return fn(self, *args)
        finally:
            _CURRENT.reset(token)
            rec.close(index)
            extra = {"ops": meter.total_ops - before_ops}
            if sites:
                extra["rebuilds"] = self.rebuilds_completed - rebuilds
                extra["chunks"] = self.work_log[-1] if self.work_log else 0
                for stage, ops in _stage_ops(meter).items():
                    extra[stage] = ops - before_stages[stage]
            rec.extra[index] = extra
    return wrapper


def _stage_ops(meter) -> dict:
    totals = dict.fromkeys(STAGES, 0)
    for (_category, site), count in meter.sites.items():
        stage = STAGE_OF_SITE.get(site)
        if stage is not None:
            totals[stage] += count
    return totals


class _TracedWriter:
    """Stamps each response line as it is handed to the transport."""

    def __init__(self, rec: Recorder, writer, order: deque) -> None:
        self._rec = rec
        self._writer = writer
        self._order = order

    def write(self, data: bytes) -> None:
        root = self._order.popleft()
        info = self._rec.roots[root]
        info["bytes_out"] = len(data)
        self._writer.write(data)
        now = _NOW()
        if "encoded" in info:
            wait = self._rec.open("server.write_wait", root, root)
            self._rec.spans[wait][1] = info["encoded"]
            self._rec.spans[wait][2] = now
        self._rec.spans[root][2] = now

    def __getattr__(self, name):
        return getattr(self._writer, name)


def _traced_pipe(rec: Recorder, original):
    @functools.wraps(original)
    async def pipe_connection(reader, writer, respond, max_inflight):
        order: deque = deque()

        async def run(line: str, root: int):
            _CURRENT.set((root, root))
            return await respond(line)

        def traced_respond(line: str):
            # Called as the line is read: this is "request received".
            root = rec.open("request", -1, -1)
            rec.spans[root][4] = root
            rec.roots[root] = {"bytes_in": len(line)}
            order.append(root)
            return run(line, root)

        await original(reader, _TracedWriter(rec, writer, order),
                       traced_respond, max_inflight)
    return pipe_connection


def install(trace_dir: Path, launcher: Path) -> Recorder:
    """Wrap every layer's entry points in this process; returns the
    recorder to dump at shutdown."""
    import subprocess
    import types

    from repro.cluster import link, metrics, router, supervisor
    from repro.contracts import ContractViolation
    from repro.dynamic.dynamic_sparsifier import DynamicSparsifier
    from repro.dynamic.incremental import DEFAULT_CHUNK
    from repro.dynamic.lazy_rebuild import LazyRebuildMatching
    from repro.instrument import workmeter
    from repro.service import batching, journal, server, session

    rec = Recorder()

    def parsed(_index, root, _args, request):
        info = rec.roots[root]
        info["rid"] = request.get("id")
        info["op"] = request["op"]
        if request["op"] == "batch":
            info["updates"] = len(request["updates"])
        elif request["op"] in ("insert", "delete"):
            info["updates"] = 1

    def encoded(index, root, _args, _result):
        rec.roots[root]["encoded"] = rec.spans[index][2]

    for module in (server, router):
        module.pipe_connection = _traced_pipe(rec, module.pipe_connection)
        module.parse_request = _sync_span(rec, "protocol.parse",
                                          module.parse_request, parsed)
        module.encode = _sync_span(rec, "protocol.encode", module.encode,
                                   encoded)

    service = server.MatchingService
    service.handle_request = _async_span(rec, "server.dispatch",
                                         service.handle_request)

    def held(_index, _root, _args, payload):
        rec.samples_held = max(rec.samples_held,
                               len(payload["latency"]["samples_sorted_ms"]))

    service.shard_stats_payload = _sync_span(
        rec, "metrics.shard_stats", service.shard_stats_payload, held)
    metrics.aggregate_cluster_stats = _sync_span(
        rec, "metrics.aggregate", metrics.aggregate_cluster_stats)

    batcher = batching.MicroBatcher
    batcher.submit = _async_span(rec, "batching.submit", batcher.submit)
    batcher.submit_batch = _async_span(rec, "batching.submit",
                                       batcher.submit_batch)
    original_enqueue = batcher._enqueue
    original_apply_batch = batcher._apply_batch
    original_reject = batcher._reject

    def _enqueue(self, op, u, v):
        future = original_enqueue(self, op, u, v)
        current = _CURRENT.get()
        if current is not None:
            rec.enqueued[future] = (current[0], current[1], _NOW())
        return future

    def _apply_batch(self, batch):
        start = _NOW()
        owners = [rec.enqueued.pop(item[3], None) for item in batch]
        rec.batches.append((start, len(batch),
                            [start - o[2] for o in owners if o]))
        rec.apply_owners = deque(owners)
        rec.batch_roots = sorted({o[1] for o in owners if o})
        token = _CURRENT.set(None)
        try:
            return original_apply_batch(self, batch)
        finally:
            _CURRENT.reset(token)
            rec.apply_owners = rec.batch_roots = None

    def _reject(self, count, detail):
        rec.rejected += count
        return original_reject(self, count, detail)

    batcher._enqueue = _enqueue
    batcher._apply_batch = _apply_batch
    batcher._reject = _reject

    sess = session.Session
    original_apply = sess.apply

    def apply(self, op, u, v):
        owners = rec.apply_owners
        owner = owners.popleft() if owners else None
        meter = workmeter.active()
        if owner is None or meter is None:
            return original_apply(self, op, u, v)
        before = meter.total_ops
        index = rec.open("session.apply", owner[0], owner[1])
        token = _CURRENT.set((index, owner[1]))
        try:
            return original_apply(self, op, u, v)
        finally:
            _CURRENT.reset(token)
            rec.close(index)
            ops = meter.total_ops - before
            rec.extra[index] = {
                "ops": ops,
                "constant": ops / (self.work_budget * DEFAULT_CHUNK)}

    sess.apply = apply
    original_check = session.check_work_budget

    def check_work_budget(ops, budget_chunks, **kwargs):
        # Record, don't raise: a violation raised inside Session.apply
        # would fail the update after the matcher has already applied
        # it, so the traced server would serve a different history than
        # the untraced one.  Violations are reported as
        # matcher.budget_violations and in the details line's
        # known_defects, and smoke.py asserts they still occur.
        try:
            return original_check(ops, budget_chunks, **kwargs)
        except ContractViolation:
            rec.violations.append(_NOW())
            return ops / (budget_chunks * DEFAULT_CHUNK)

    session.check_work_budget = check_work_budget
    sess._validate = _sync_span(rec, "session.validate", sess._validate)
    sess._advance_certificate = _sync_span(rec, "session.certificate",
                                           sess._advance_certificate)
    sess.matching_payload = _sync_span(rec, "session.query",
                                       sess.matching_payload)
    sess.snapshot_payload = _sync_span(rec, "session.snapshot",
                                       sess.snapshot_payload)
    DynamicSparsifier.update = _metered(rec, "sparsifier.update",
                                        DynamicSparsifier.update, workmeter,
                                        sites=False)
    LazyRebuildMatching.update = _metered(rec, "matcher.update",
                                          LazyRebuildMatching.update,
                                          workmeter, sites=True)

    replay = journal.ReplayJournal
    replay.record = _sync_span(rec, "journal.record", replay.record)
    original_flush = replay.flush

    def flush(self):
        roots = rec.batch_roots
        if not roots:
            return original_flush(self)
        start = _NOW()
        try:
            return original_flush(self)
        finally:
            rec.flushes.append((start, _NOW(), roots))

    replay.flush = flush

    cluster = router.ClusterRouter
    cluster._fan_out = _async_span(rec, "router.fanout", cluster._fan_out)
    cluster.handle_cluster_op = _async_span(rec, "router.cluster_op",
                                            cluster.handle_cluster_op)
    link.ShardLink.request = _async_span(rec, "router.link",
                                         link.ShardLink.request)

    def popen(command, **kwargs):
        # Shard workers start through this launcher too, so every
        # server process of the cluster is traced.
        if command[1:3] == ["-m", "repro.cli"]:
            command = [command[0], str(launcher), "--trace-dir",
                       str(trace_dir)] + command[3:]
        return subprocess.Popen(command, **kwargs)

    supervisor.subprocess = types.SimpleNamespace(
        Popen=popen, PIPE=subprocess.PIPE,
        TimeoutExpired=subprocess.TimeoutExpired)
    return rec


# ---------------------------------------------------------------------- #
# Analysis (benchmark side)                                              #
# ---------------------------------------------------------------------- #
_LAYER = {
    "protocol.parse": "protocol", "protocol.encode": "protocol",
    "server.dispatch": "uncovered.dispatch",
    "server.write_wait": "uncovered.write_wait",
    "batching.submit": "batching",
    "session.apply": "session", "session.validate": "session",
    "session.certificate": "session", "session.query": "session",
    "session.snapshot": "session",
    "sparsifier.update": "sparsifier", "matcher.update": "matcher",
    "journal.record": "journal",
    "metrics.shard_stats": "metrics", "metrics.aggregate": "metrics",
    "router.fanout": "router", "router.cluster_op": "router",
    "router.link": "router",
}


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


class _Process:
    """One server process's dump, cut to the measured window."""

    def __init__(self, data: dict, window: tuple, deployment: int) -> None:
        lo, hi = window
        self.deployment = deployment
        self.role = data["role"]
        self.spans = data["spans"]
        roots = {k: v for k, v in data["roots"]}
        self.extra = {k: v for k, v in data["extra"]}
        self.roots = {k: v for k, v in roots.items()
                      if lo <= self.spans[k][1] <= hi and self.spans[k][2]}
        self.flushes = [f for f in data["flushes"] if lo <= f[0] <= hi]
        self.batches = [b for b in data["batches"] if lo <= b[0] <= hi]
        self.rejected = data["rejected"]
        self.violations = sum(lo <= t <= hi for t in data["violations"])
        self.lifetime_violations = len(data["violations"])
        self.samples_held = data["samples_held"]
        self.by_name: dict[str, list[int]] = {}
        child_time = [0] * len(self.spans)
        for index, (name, start, end, parent, root) in enumerate(self.spans):
            if root not in self.roots or index == root:
                continue
            self.by_name.setdefault(name, []).append(index)
            child_time[parent] += end - start
        self.self_ns = {
            index: self.spans[index][2] - self.spans[index][1]
            - child_time[index]
            for indices in self.by_name.values() for index in indices}

    def duration(self, index: int) -> int:
        return self.spans[index][2] - self.spans[index][1]

    def durations_us(self, name: str) -> list[float]:
        return [self.duration(i) / 1e3 for i in self.by_name.get(name, ())]

    def extras(self, name: str) -> list[dict]:
        return [self.extra[i] for i in self.by_name.get(name, ())
                if i in self.extra]

    def layer_ns(self) -> dict:
        """Self time per layer over the window's requests, plus ``total``
        (their in-server time).  A journal flush runs while the batch's
        requests wait in ``batching.submit``; it moves to the journal."""
        out = {"total": sum(self.duration(root) for root in self.roots)}
        for index, own in self.self_ns.items():
            layer = _LAYER[self.spans[index][0]]
            out[layer] = out.get(layer, 0) + own
        flushed = sum(end - start for start, end, _roots in self.flushes)
        out["batching"] = out.get("batching", 0) - flushed
        out["journal"] = out.get("journal", 0) + flushed
        return out


def _load(windows: list) -> list[_Process]:
    """Every server process of every deployment, cut to its window."""
    processes = []
    for deployment, (trace_dir, lo, hi) in enumerate(windows):
        for path in sorted(trace_dir.glob("spans-*.json")):
            processes.append(_Process(json.loads(path.read_text()),
                                      (lo, hi), deployment))
    return processes


def _layer_metrics(servers: list[_Process]) -> dict:
    def durations(name):
        return [d for p in servers for d in p.durations_us(name)]

    def extras(name):
        return [e for p in servers for e in p.extras(name)]

    roots = [(p, r, info) for p in servers for r, info in p.roots.items()]
    update_roots = [(p, r, i) for p, r, i in roots
                    if i.get("op") in _UPDATE_OPS]
    updates = sum(i.get("updates", 0) for _p, _r, i in update_roots) or 1
    n_apply = sum(len(p.by_name.get("session.apply", ()))
                  for p in servers) or 1
    apply_self = [p.self_ns[i] / 1e3 for p in servers
                  for i in p.by_name.get("session.apply", ())]
    waits = [w / 1e6 for p in servers for b in p.batches for w in b[2]]
    sizes = [b[1] for p in servers for b in p.batches]
    sparsifier = extras("sparsifier.update")
    matcher = extras("matcher.update")
    n_matcher = len(matcher) or 1
    flushes = [(f[1] - f[0]) / 1e3 for p in servers for f in p.flushes]
    stats_roots = [(p, r, i) for p, r, i in roots
                   if i.get("op") in ("shard_stats", "cluster_stats")]

    def update_durations(name):
        return [p.duration(i) / 1e3 for p in servers
                for i in p.by_name.get(name, ())
                if p.roots[p.spans[i][4]].get("op") in _UPDATE_OPS]

    out = {
        "protocol.parse_us": (_mean(update_durations("protocol.parse")),
                              "us"),
        "protocol.encode_us": (_mean(update_durations("protocol.encode")),
                               "us"),
        "protocol.bytes_in_per_update": (
            sum(i["bytes_in"] for _p, _r, i in update_roots) / updates,
            "B/update"),
        "protocol.bytes_out_per_update": (
            sum(i.get("bytes_out", 0) for _p, _r, i in update_roots)
            / updates, "B/update"),
        "batching.queue_wait_p50_ms": (percentile(waits, 50), "ms"),
        "batching.queue_wait_p99_ms": (percentile(waits, 99), "ms"),
        "batching.updates_per_batch": (_mean(sizes), "updates"),
        "batching.rejected": (sum(p.rejected for p in servers), "count"),
        "session.validate_us": (
            sum(durations("session.validate")) / n_apply, "us"),
        "session.certificate_us": (
            sum(durations("session.certificate")) / n_apply, "us"),
        "session.apply_self_us": (_mean(apply_self), "us"),
        "sparsifier.update_us": (_mean(durations("sparsifier.update")), "us"),
        "sparsifier.ops_per_update": (
            _mean([e["ops"] for e in sparsifier]), "ops"),
        "matcher.update_us": (_mean(durations("matcher.update")), "us"),
        "matcher.chunks_per_update": (
            _mean([e["chunks"] for e in matcher]), "chunks"),
        "matcher.max_chunks_per_update": (
            max((e["chunks"] for e in matcher), default=0), "chunks"),
        "matcher.rebuilds_per_1k": (
            1000 * sum(e["rebuilds"] for e in matcher) / n_matcher, "count"),
        "matcher.budget_violations": (
            sum(p.violations for p in servers), "count"),
        "matcher.work_constant": (
            max((e["constant"] for e in extras("session.apply")), default=0),
            "ratio"),
        "journal.record_us": (
            sum(durations("journal.record")) / n_apply, "us"),
        "journal.flush_us": (_mean(flushes), "us"),
        "metrics.stats_server_ms": (
            percentile([p.duration(r) / 1e6
                        for p, r, _i in stats_roots], 50),
            "ms"),
        "metrics.stats_bytes": (
            _mean([i.get("bytes_out", 0) for _p, _r, i in stats_roots]), "B"),
        "metrics.samples_held": (_samples_held(servers), "count"),
    }
    for stage in STAGES:
        out[f"matcher.{stage}_ops"] = (
            sum(e[stage] for e in matcher) / n_matcher, "ops")
    return out


def _samples_held(servers: list[_Process]) -> int:
    """Latency samples one deployment's servers held at their last poll
    (the largest deployment)."""
    held: dict[int, int] = {}
    for process in servers:
        held[process.deployment] = (held.get(process.deployment, 0)
                                    + process.samples_held)
    return max(held.values(), default=0)


def layer_shares(servers: list[_Process]) -> dict:
    """Each layer's share of the in-server request time.

    ``uncovered.dispatch`` is the server's request handling outside every
    layer's span and ``uncovered.write_wait`` the wait for the response
    write; neither is a layer, so ``trace.coverage`` leaves them out.
    """
    sums: dict[str, int] = {}
    for process in servers:
        for layer, ns in process.layer_ns().items():
            sums[layer] = sums.get(layer, 0) + ns
    total = sums.pop("total", 0)
    return {layer: ns / total for layer, ns in sorted(sums.items())} \
        if total else {}


def per_layer(traced, plain_metrics: dict, traced_metrics: dict) -> dict:
    """Per-layer metrics of a traced run (``name -> (value, unit)``)."""
    import workloads

    processes = _load(traced.windows)
    servers = [p for p in processes if p.role == "server"]
    routers = [p for p in processes if p.role == "router"]
    out = {
        "loadgen.late_p99_ms": (workloads.late_p99_ms(traced), "ms"),
        "loadgen.client_cpu_s": (traced.client_cpu_s, "s"),
    }
    out.update(_layer_metrics(servers))
    traced.budget_violations = sum(p.lifetime_violations for p in servers)
    out["journal.bytes_per_update"] = (
        workloads.journal_bytes_per_update(traced), "B/update")
    in_server = {i["rid"]: p.duration(r) for p in servers
                 for r, i in p.roots.items() if i.get("rid") is not None}
    hops = [(p.duration(r) - in_server[i["rid"]]) / 1e6 for p in routers
            for r, i in p.roots.items() if i.get("rid") in in_server]
    fanouts = [d / 1e3 for p in routers for d in p.durations_us(
        "router.fanout")]
    out["router.hop_p50_ms"] = (percentile(hops, 50), "ms")
    out["router.hop_p99_ms"] = (percentile(hops, 99), "ms")
    out["router.fanout_ms"] = (_mean(fanouts), "ms")
    shares = layer_shares(servers)
    traced.details["layer_shares"] = shares
    out["trace.coverage"] = (sum(
        share for layer, share in shares.items()
        if not layer.startswith("uncovered.")), "ratio")
    # Positive overhead means tracing made the metric worse.
    for name, (value, _unit) in plain_metrics.items():
        worse = traced_metrics[name][0] - value
        if name in workloads.HIGHER_IS_BETTER:
            worse = -worse
        out[f"trace.overhead_pct.{name}"] = (
            100.0 * worse / value if value else 0.0, "%")
    return out
