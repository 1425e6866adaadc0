"""Deterministic load generation for the dynamic-matching server.

Drives a session with the update streams of
:mod:`repro.dynamic.adversaries` — the *oblivious* random stream and
the *adaptive* attacker that observes the served matching (through the
real ``query_matching`` op) and preferentially deletes matched edges —
over a bounded-β clique-union edge universe.  Given one seed, the
generated traffic is a pure function of the server's (deterministic)
responses, so a loadgen run is end-to-end reproducible and its journal
replays to the same matching.

Updates are sent as ``batch`` ops of configurable size; the adaptive
adversary observes once per batch (a cached observation is reused while
a batch is being generated — a legal adversary strategy, and what keeps
the query amplification bounded).

Run directly for the CLI::

    python -m repro.service.loadgen --port 8765 --session burst \
        --adversary adaptive --steps 500 --seed 7 --out report.json

``--sessions N`` (with ``--session-offset K``) drives N independent
sessions — against a cluster router they spread over the shards — and
reports the aggregate; disjoint offsets let concurrent loadgen
processes partition the session space deterministically.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.dynamic.adversaries import AdaptiveAdversary, ObliviousAdversary
from repro.graphs.generators.cliques import clique_union
from repro.instrument.rng import resolve_rng
from repro.instrument.timers import Timer
from repro.matching.matching import Matching
from repro.service.client import ServiceClient, ServiceError

#: Bounded retries when a batch is rejected with backpressure.
_MAX_REJECTIONS = 64


class _BatchObserver:
    """Caches the served matching for one batch of adaptive updates."""

    def __init__(self, client: ServiceClient, session: str,
                 num_vertices: int) -> None:
        self._client = client
        self._session = session
        self._num_vertices = num_vertices
        self._cached: Matching | None = None

    def __call__(self) -> Matching:
        """The served matching (cached until :meth:`invalidate`)."""
        if self._cached is None:
            self._cached = self._client.matching(
                self._session, self._num_vertices
            )
        return self._cached

    def invalidate(self) -> None:
        """Drop the cache (called after every batch is applied)."""
        self._cached = None


def run_load(
    client: ServiceClient,
    session: str,
    adversary: str = "oblivious",
    steps: int = 500,
    batch_size: int = 16,
    num_cliques: int = 4,
    clique_size: int = 16,
    beta: int = 1,
    epsilon: float = 0.4,
    journal: bool = True,
    budget_ms: float | None = None,
    close: bool = False,
    *,
    seed: int = 0,
) -> dict:
    """Create a session, drive ``steps`` adversarial updates, report.

    Parameters
    ----------
    client:
        Connected :class:`~repro.service.client.ServiceClient`.
    session:
        Session name to create on the server.
    adversary:
        ``"oblivious"`` or ``"adaptive"``.
    steps:
        Number of updates to attempt.
    batch_size:
        Updates per ``batch`` op (the adaptive adversary re-observes
        once per batch).
    num_cliques, clique_size:
        Shape of the β=1 clique-union host whose edges form the
        allowed universe.
    beta, epsilon, journal, budget_ms:
        Session parameters forwarded to ``create``.
    close:
        Also close the session at the end (flushes its journal).
    seed:
        Root seed: the session gets it verbatim, the adversary gets a
        spawned child stream.

    Returns
    -------
    dict
        JSON-ready report: applied/rejected counts, throughput, final
        matching + fingerprint, and the server's stats snapshot.
    """
    if adversary not in ("oblivious", "adaptive"):
        raise ValueError(f"unknown adversary {adversary!r}")
    host = clique_union(num_cliques, clique_size)
    universe = sorted(host.edges())
    n = host.num_vertices
    created = client.create(
        session, num_vertices=n, beta=beta, epsilon=epsilon,
        seed=seed, journal=journal, budget_ms=budget_ms,
    )
    root = resolve_rng(seed=seed, owner="run_load")
    adversary_rng = root.spawn(1)[0]
    observer = _BatchObserver(client, session, n)
    if adversary == "adaptive":
        generator = AdaptiveAdversary(
            universe, observe=observer, attack_probability=0.4,
            rng=adversary_rng,
        )
    else:
        generator = ObliviousAdversary(
            universe, delete_probability=0.3, rng=adversary_rng
        )

    applied = errors = rejected = 0
    attacks_before = getattr(generator, "attacks", 0)
    with Timer() as timer:
        remaining = steps
        while remaining > 0:
            updates = []
            while len(updates) < min(batch_size, remaining):
                update = generator.next_update()
                if update is None:
                    break
                updates.append((update.op, update.u, update.v))
            if not updates:
                break
            for attempt in range(_MAX_REJECTIONS):
                try:
                    response = client.batch(session, updates)
                except ServiceError as exc:
                    if exc.code != "backpressure":
                        raise
                    rejected += len(updates)
                else:
                    break
            else:  # pragma: no cover - requires a saturated server
                raise RuntimeError("server backpressure never cleared")
            applied += response["applied"]
            errors += len(updates) - response["applied"]
            remaining -= len(updates)
            observer.invalidate()
    final = client.query_matching(session)
    stats = client.stats(session)
    snapshot_fingerprint = client.snapshot(session)["fingerprint"]
    if close:
        client.close_session(session)
    elapsed = timer.elapsed
    return {
        "session": session,
        "adversary": adversary,
        "seed": seed,
        "backend": created["backend"],
        "universe": {"num_cliques": num_cliques, "clique_size": clique_size,
                     "num_vertices": n, "edges": len(universe)},
        "steps_requested": steps,
        "applied": applied,
        "errors": errors,
        "rejected": rejected,
        "attacks": getattr(generator, "attacks", attacks_before),
        "elapsed_seconds": round(elapsed, 4),
        "updates_per_second": round(applied / elapsed, 1) if elapsed > 0 else None,
        "size": final["size"],
        "matching": final["edges"],
        "fingerprint": snapshot_fingerprint,
        "stats": stats,
    }


def run_multi_load(
    client: ServiceClient,
    sessions: int,
    session_prefix: str = "loadgen",
    session_offset: int = 0,
    *,
    seed: int = 0,
    **load_kwargs,
) -> dict:
    """Drive ``sessions`` independent sessions and aggregate the reports.

    Session ``i`` is named ``{prefix}-{offset+i}`` and seeded
    ``seed + offset + i`` — a pure function of the arguments, so two
    loadgen processes with disjoint offsets generate disjoint,
    individually-reproducible traffic (the cluster bench's pattern:
    one process per client, offsets partitioning the session space).
    Against a cluster router the sessions spread over shards by
    rendezvous placement; against a single server they all land there.
    ``steps``, ``adversary``, and the other :func:`run_load` keywords
    apply to every session.

    Returns an aggregate report: summed applied/rejected/errors,
    wall-clock elapsed, cluster-wide updates/sec, and per-session
    summaries (name, seed, applied, size, fingerprint).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    reports = []
    with Timer() as timer:
        for index in range(sessions):
            name = f"{session_prefix}-{session_offset + index}"
            reports.append(run_load(
                client, name, seed=seed + session_offset + index,
                **load_kwargs,
            ))
    elapsed = timer.elapsed
    applied = sum(report["applied"] for report in reports)
    return {
        "sessions": sessions,
        "session_prefix": session_prefix,
        "session_offset": session_offset,
        "seed": seed,
        "applied": applied,
        "errors": sum(report["errors"] for report in reports),
        "rejected": sum(report["rejected"] for report in reports),
        "elapsed_seconds": round(elapsed, 4),
        "updates_per_second": (round(applied / elapsed, 1)
                               if elapsed > 0 else None),
        "per_session": [
            {"session": report["session"], "seed": report["seed"],
             "applied": report["applied"], "size": report["size"],
             "fingerprint": report["fingerprint"]}
            for report in reports
        ],
    }


def main(argv: list[str] | None = None) -> int:
    """CLI: drive one deterministic burst against a running server."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--session", default="loadgen",
                        help="session name (with --sessions N > 1, the "
                             "prefix of '<session>-<k>' names)")
    parser.add_argument("--sessions", type=int, default=1,
                        help="drive N independent sessions and report "
                             "the aggregate (default 1: the classic "
                             "single-session report)")
    parser.add_argument("--session-offset", type=int, default=0,
                        help="first session index for --sessions mode; "
                             "disjoint offsets let concurrent loadgen "
                             "processes partition the session space")
    parser.add_argument("--adversary", choices=("oblivious", "adaptive"),
                        default="oblivious")
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--num-cliques", type=int, default=4)
    parser.add_argument("--clique-size", type=int, default=16)
    parser.add_argument("--beta", type=int, default=1)
    parser.add_argument("--epsilon", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-ms", type=float, default=None)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (default stdout)")
    parser.add_argument("--close", action="store_true",
                        help="close the session when done (flushes journal)")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to shut down afterwards")
    args = parser.parse_args(argv)

    load_kwargs = dict(
        adversary=args.adversary, steps=args.steps,
        batch_size=args.batch, num_cliques=args.num_cliques,
        clique_size=args.clique_size, beta=args.beta,
        epsilon=args.epsilon, budget_ms=args.budget_ms,
        close=args.close or args.shutdown,
    )
    client = ServiceClient(args.host, args.port)
    try:
        if args.sessions > 1 or args.session_offset:
            report = run_multi_load(
                client, args.sessions, session_prefix=args.session,
                session_offset=args.session_offset, seed=args.seed,
                **load_kwargs,
            )
        else:
            report = run_load(client, args.session, seed=args.seed,
                              **load_kwargs)
        if args.shutdown:
            client.shutdown()
    finally:
        client.close()
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    sys.exit(main())
