"""Running a whole cluster: blocking CLI entry and in-thread harness.

:func:`run_cluster` is what ``repro-experiments serve --shards N``
calls: spawn the shard workers (:class:`ClusterSupervisor`), run the
:class:`ClusterRouter` in the foreground until SIGTERM/SIGINT or a
client ``shutdown``, then stop the workers gracefully and report a
composite exit code.  :class:`BackgroundCluster` is the tests' and
benchmarks' :class:`~repro.service.transport.BackgroundServer` for a
cluster: real worker *processes*, but the router on a daemon thread and
the whole thing a context manager.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor
from repro.service.transport import (
    BackgroundServer,
    _run_service_loop,
    _shutdown_on_signals,
)

#: How often the foreground supervisor polls for dead workers (seconds).
_WATCH_INTERVAL = 1.0


async def _watch_workers(supervisor: ClusterSupervisor,
                         router: ClusterRouter) -> None:
    """Shut the router down if any shard worker process dies."""
    while True:
        await asyncio.sleep(_WATCH_INTERVAL)
        dead = supervisor.dead_shards()
        if dead:
            print(
                "shard worker(s) died unexpectedly: "
                + ", ".join(str(shard) for shard in dead),
                file=sys.stderr,
            )
            router.request_shutdown()
            return


def run_cluster(
    host: str = "127.0.0.1",
    port: int = 8765,
    shards: int = 2,
    journal_dir: str | Path | None = None,
    allow_shutdown: bool = False,
) -> int:
    """Blocking entry point for ``repro-experiments serve --shards N``.

    Spawns ``shards`` worker processes (journaling under
    ``<journal_dir>/shard-K/``), routes client traffic to them until a
    shutdown (signal or, when ``allow_shutdown``, the protocol op), then
    SIGTERMs the workers and waits for their graceful exits.  Returns 0
    only when every worker exited 0 and none died mid-run.
    """
    supervisor = ClusterSupervisor(shards, journal_dir)
    supervisor.start()
    worker_died = False

    router = ClusterRouter(supervisor.addresses(), allow_shutdown)

    async def main() -> None:
        nonlocal worker_died
        with _shutdown_on_signals(router.request_shutdown):
            watcher = asyncio.get_running_loop().create_task(
                _watch_workers(supervisor, router))
            try:
                await router.serve_forever(host, port, announce=True)
            finally:
                if watcher.done() and not watcher.cancelled():
                    worker_died = True
                watcher.cancel()
                try:
                    await watcher
                except asyncio.CancelledError:
                    pass

    try:
        try:
            _run_service_loop(main())
        except KeyboardInterrupt:  # pragma: no cover - interactive use
            print("interrupted; shutting down", file=sys.stderr)
    finally:
        codes = supervisor.stop()
    if worker_died or any(code != 0 for code in codes):
        return 1
    return 0


class BackgroundCluster(BackgroundServer):
    """A full cluster behind one ephemeral port (tests/benchmarks).

    Real shard worker *processes* plus the router on a daemon thread::

        with BackgroundCluster(shards=2, journal_dir=tmp) as cluster:
            client = ServiceClient(cluster.host, cluster.port)
            ...

    Entry blocks until every worker announced, passed a ping
    health-check, and the router is listening; exit shuts the router
    down, then SIGTERMs the workers and records their
    :attr:`worker_exit_codes` (graceful workers exit 0 with journals
    flushed, so replay is valid immediately after the ``with`` block).
    The thread, readiness and router shutdown are
    :class:`~repro.service.transport.BackgroundServer`'s, with the
    :class:`ClusterRouter` as its :attr:`service`.
    """

    def __init__(self, shards: int = 2,
                 journal_dir: str | Path | None = None) -> None:
        """Store the topology; nothing starts until ``__enter__``."""
        self.supervisor = ClusterSupervisor(shards, journal_dir)
        self.service: ClusterRouter | None = None
        self.worker_exit_codes: list[int] | None = None

    def __enter__(self) -> "BackgroundCluster":
        """Start workers, then the router thread; block until listening."""
        self.supervisor.start()
        try:
            self.service = ClusterRouter(
                self.supervisor.addresses(), allow_shutdown=True
            )
            super().__enter__()
        except Exception:
            self.supervisor.stop()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop the router, then the workers; record their exit codes."""
        super().__exit__(*exc)
        self.worker_exit_codes = self.supervisor.stop()
