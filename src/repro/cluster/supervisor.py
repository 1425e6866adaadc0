"""Shard worker lifecycle: spawn, health-check, supervise, stop cleanly.

Each shard worker is a full single-process
:class:`~repro.service.server.MatchingService` run as a **separate OS
process** (``python -m repro.cli serve``) — shared-nothing, its own
event loop, its own GIL, its own journal directory
(``<journal_dir>/shard-K/``).  That is the whole point of the cluster:
per-session work is local to one shard (the sparsifier touches only
the endpoints' sampled neighborhoods), so aggregate throughput scales
with worker processes while each session keeps the single total update
order its replay journal needs.

Workers bind ephemeral ports and announce them on stdout; the
supervisor parses the announce line, health-checks each worker with a
protocol ``ping``, and stops them with SIGTERM — which the server
handles gracefully (drain micro-batches, flush + close journals, exit
0), so a supervised stop never loses a journaled update.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import repro
from repro.instrument.timers import now
from repro.service.client import ServiceClient

#: What a worker prints once listening (``announce=True`` in
#: ``MatchingService.serve_forever``).
_ANNOUNCE_RE = re.compile(
    r"repro-service listening on (?P<host>[0-9a-zA-Z_.:-]+):(?P<port>\d+)"
)


class ClusterError(RuntimeError):
    """A shard worker failed to start, died, or would not stop."""


class ShardWorker:
    """One spawned shard process and its parsed listening address.

    Attributes
    ----------
    shard_id:
        Index of this shard (also names its journal subdirectory).
    process:
        The underlying :class:`subprocess.Popen`.
    host, port:
        The worker's announced listening address (set by
        :meth:`ClusterSupervisor.start`).
    journal_dir:
        The worker's journal directory, or ``None`` when journaling is
        off.
    """

    def __init__(self, shard_id: int, process: subprocess.Popen,
                 journal_dir: Path | None) -> None:
        """Record the freshly-spawned (not yet announced) worker."""
        self.shard_id = shard_id
        self.process = process
        self.journal_dir = journal_dir
        self.host: str | None = None
        self.port: int | None = None

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.poll() is None


def shard_journal_dir(journal_root: str | Path, shard_id: int) -> Path:
    """The per-shard journal directory: ``<root>/shard-<K>``."""
    return Path(journal_root) / f"shard-{shard_id}"


def _worker_env() -> dict[str, str]:
    """The spawn environment: inherit, but guarantee ``repro`` imports.

    Tests and benchmarks often run from a source tree (``PYTHONPATH=src``)
    rather than an installed package; prepending the package's parent
    directory makes ``python -m repro.cli`` work in both layouts.
    """
    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_parent not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_parent + (os.pathsep + existing if existing else "")
        )
    return env


class ClusterSupervisor:
    """Spawns and manages ``shards`` worker processes.

    Parameters
    ----------
    shards:
        Number of worker processes.
    journal_dir:
        Cluster journal root; worker ``K`` journals into
        ``<journal_dir>/shard-K/``.  ``None`` disables journaling.
    host:
        Interface the workers bind (ephemeral ports).

    Usage::

        with ClusterSupervisor(shards=4, journal_dir="journals") as sup:
            addresses = sup.addresses()   # [(host, port), ...]
            ...
    """

    def __init__(
        self,
        shards: int,
        journal_dir: str | Path | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        """Validate the shape; no processes spawn until :meth:`start`."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.host = host
        self.workers: list[ShardWorker] = []

    # ------------------------------------------------------------------ #
    def _spawn(self, shard_id: int) -> ShardWorker:
        journal_dir = None
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host, "--port", "0",
        ]
        if self.journal_dir is not None:
            journal_dir = shard_journal_dir(self.journal_dir, shard_id)
            # Eager creation: an empty shard (rendezvous placed no
            # sessions on it) still leaves its shard-K directory, so the
            # on-disk layout always records the true cluster size and
            # offline replay can verify placement against it.
            journal_dir.mkdir(parents=True, exist_ok=True)
            command += ["--journal-dir", str(journal_dir)]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            env=_worker_env(),
        )
        return ShardWorker(shard_id, process, journal_dir)

    def _await_announce(self, worker: ShardWorker, deadline: float) -> None:
        """Parse the worker's announce line (with a hard deadline)."""
        stdout = worker.process.stdout
        assert stdout is not None
        buffer = ""
        while True:
            remaining = deadline - now()
            if remaining <= 0:
                raise ClusterError(
                    f"shard {worker.shard_id} never announced its port"
                )
            if worker.process.poll() is not None:
                raise ClusterError(
                    f"shard {worker.shard_id} exited with code "
                    f"{worker.process.returncode} before announcing"
                )
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.2))
            if not ready:
                continue
            chunk = stdout.readline()
            if not chunk:
                continue
            buffer += chunk
            match = _ANNOUNCE_RE.search(buffer)
            if match:
                worker.host = match.group("host")
                worker.port = int(match.group("port"))
                return

    def start(self, timeout: float = 30.0) -> None:
        """Spawn every worker, await announces, ping each one.

        Raises :class:`ClusterError` (after stopping anything already
        spawned) if any worker fails to come up healthy in ``timeout``
        seconds.
        """
        deadline = now() + timeout
        try:
            self.workers = [self._spawn(k) for k in range(self.shards)]
            for worker in self.workers:
                self._await_announce(worker, deadline)
            self.health_check()
        except Exception:
            self.stop()
            raise

    def addresses(self) -> list[tuple[str, int]]:
        """``[(host, port), ...]`` indexed by shard id."""
        if len(self.workers) != self.shards:
            raise ClusterError("cluster is not started")
        return [(worker.host or self.host, int(worker.port or 0))
                for worker in self.workers]

    def health_check(self) -> None:
        """Protocol-level liveness: ``ping`` every worker once.

        Raises :class:`ClusterError` naming every unhealthy shard.
        """
        unhealthy = []
        for worker in self.workers:
            try:
                client = ServiceClient(worker.host or self.host,
                                       int(worker.port or 0))
                try:
                    client.ping()
                finally:
                    client.close()
            except (OSError, RuntimeError) as exc:
                unhealthy.append(f"shard {worker.shard_id}: {exc}")
        if unhealthy:
            raise ClusterError("unhealthy shards: " + "; ".join(unhealthy))

    def dead_shards(self) -> list[int]:
        """Shard ids whose worker process has exited (non-blocking)."""
        return [worker.shard_id for worker in self.workers
                if not worker.alive]

    # ------------------------------------------------------------------ #
    def stop(self, timeout: float = 15.0) -> list[int]:
        """Stop every worker gracefully; returns their exit codes.

        SIGTERM first — the server's graceful path (drain, flush
        journals, exit 0) — escalating to SIGKILL only for a worker
        that ignores it past ``timeout``.
        """
        for worker in self.workers:
            if worker.alive:
                worker.process.send_signal(signal.SIGTERM)
        codes: list[int] = []
        deadline = now() + timeout
        for worker in self.workers:
            try:
                worker.process.wait(timeout=max(0.1, deadline - now()))
            except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
                worker.process.kill()
                worker.process.wait()
            if worker.process.stdout is not None:
                worker.process.stdout.close()
            codes.append(int(worker.process.returncode))
        return codes

    def __enter__(self) -> "ClusterSupervisor":
        """Start the cluster on entry."""
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop the cluster on exit."""
        self.stop()
