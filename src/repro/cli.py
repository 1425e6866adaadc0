"""Command-line entry point: regenerate any experiment table.

Usage::

    repro-experiments e1              # one experiment
    repro-experiments e1 --workers 4  # trials fanned over 4 processes
    repro-experiments all --workers auto   # experiments run concurrently
    repro-experiments --list          # enumerate experiment ids
    repro-experiments --version       # installed package version
    repro-experiments lint src tests  # determinism/invariant linter
    repro-experiments lint --select R6,R7,R8,R9 src  # RNG-flow rules
    repro-experiments serve --port 8765 --journal-dir journals
    repro-experiments serve --port 8765 --shards 4 --journal-dir journals
    repro-experiments replay journals/mysession.jsonl --json
    repro-experiments replay journals --shard 2 --verify   # cluster root
    repro-experiments stats --port 8765 --json

Parallelism is deterministic: for a fixed ``--seed``, tables are
identical at any ``--workers`` value (per-trial RNGs are spawned from
the root seed before dispatch — see ``docs/ENGINE.md``).  ``serve`` /
``replay`` / ``stats`` front the dynamic-matching service
(``docs/SERVICE.md``); ``serve --shards N`` runs it as a sharded
multi-process cluster behind one router port.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro._version import package_version


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the dynamic-matching TCP server."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve dynamic-matching sessions over JSON-lines TCP "
                    "(see docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (0 = ephemeral, printed on start)")
    parser.add_argument("--journal-dir", default=None,
                        help="write per-session replay journals to this "
                             "directory (default: journaling off)")
    parser.add_argument("--allow-shutdown", action="store_true",
                        help="honor the client 'shutdown' op (CI/bench)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run a sharded cluster: spawn N worker "
                             "processes and route sessions to them by "
                             "rendezvous hash (journals land in "
                             "<journal-dir>/shard-K/); default is the "
                             "single-process server")
    args = parser.parse_args(argv)

    if args.shards is not None:
        from repro.cluster.runner import run_cluster

        return run_cluster(args.host, args.port, args.shards,
                           args.journal_dir, args.allow_shutdown)

    from repro.service.server import run_server

    return run_server(args.host, args.port, args.journal_dir,
                      args.allow_shutdown)


def _replay_cluster_main(args) -> int:
    """Cluster-root replay: one shard (``--shard K``) or every shard."""
    import json as json_module

    from repro.cluster.replay import (
        ClusterReplayError,
        discover_shards,
        replay_shard,
        verify_cluster,
        verify_shard,
    )
    from repro.contracts import ContractViolation
    from repro.service.journal import JournalError

    try:
        if args.shard is not None:
            shards = discover_shards(args.journal)
            if args.shard not in shards:
                print(f"replay failed: no shard-{args.shard} under "
                      f"{args.journal}", file=sys.stderr)
                return 1
            runner = verify_shard if args.verify else replay_shard
            reports = runner(shards[args.shard], upto=args.upto)
            payload = {
                "shard": args.shard,
                "shards": len(shards),
                "sessions": reports,
            }
        else:
            payload = verify_cluster(args.journal, upto=args.upto)
            payload["per_shard"] = {
                str(shard): reports
                for shard, reports in payload["per_shard"].items()
            }
    except (JournalError, ContractViolation, ClusterReplayError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(payload, indent=2))
    elif args.shard is not None:
        print(f"shard {args.shard}/{payload['shards']}: "
              f"{len(payload['sessions'])} session(s)"
              + (" [verified]" if args.verify else ""))
        for report in payload["sessions"]:
            print(f"  {report['session']!r}: {report['seq']} updates -> "
                  f"size {report['size']}, fingerprint "
                  f"{report['fingerprint']}")
    else:
        print(f"cluster {args.journal}: {payload['shards']} shard(s), "
              f"{payload['sessions']} session(s), {payload['updates']} "
              f"update(s) [verified: byte-identical replay + placement]")
    return 0


def _replay_main(argv: list[str]) -> int:
    """The ``replay`` subcommand: rebuild sessions from journals.

    Accepts either a single ``<session>.jsonl`` journal or a cluster
    journal root (the directory holding ``shard-K/`` subdirectories).
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments replay",
        description="Deterministically replay session journals offline "
                    "and report the resulting matchings.  JOURNAL is a "
                    "<session>.jsonl file or a cluster journal root "
                    "containing shard-K/ directories.",
    )
    parser.add_argument("journal", help="path to a <session>.jsonl journal "
                                        "or a cluster journal root")
    parser.add_argument("--upto", type=int, default=None,
                        help="replay only the first N updates")
    parser.add_argument("--shard", type=int, default=None, metavar="K",
                        help="cluster roots only: replay just shard K")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of a summary")
    parser.add_argument("--verify", action="store_true",
                        help="replay twice and assert byte-identity; for "
                             "a cluster root without --shard this is "
                             "implied and adds the placement check "
                             "(exit 1 on divergence)")
    args = parser.parse_args(argv)

    from pathlib import Path

    if Path(args.journal).is_dir():
        return _replay_cluster_main(args)
    if args.shard is not None:
        print("replay failed: --shard requires a cluster journal root, "
              f"got file {args.journal}", file=sys.stderr)
        return 1

    import json as json_module

    from repro.contracts import ContractViolation, check_replay_sessions
    from repro.service.journal import JournalError, replay_journal

    try:
        session = replay_journal(args.journal, upto=args.upto)
        if args.verify:
            check_replay_sessions(
                session, replay_journal(args.journal, upto=args.upto)
            )
    except (JournalError, ContractViolation) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "session": session.name,
        "backend": session.backend,
        "seq": session.seq,
        "size": session.matcher.matching_size,
        "matching": session.matcher.matched_pairs(),
        "fingerprint": session.fingerprint(),
    }
    if args.json:
        print(json_module.dumps(payload, indent=2))
    else:
        print(f"session {payload['session']!r} ({payload['backend']}): "
              f"{payload['seq']} updates -> matching of size "
              f"{payload['size']}, fingerprint {payload['fingerprint']}"
              + (" [verified]" if args.verify else ""))
    return 0


def _stats_main(argv: list[str]) -> int:
    """The ``stats`` subcommand: cluster-wide metrics from a live server.

    Works against both a cluster router (which merges shard stats) and
    a single-process server (which answers as a one-shard cluster).
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments stats",
        description="Fetch cluster-wide statistics (summed counters, "
                    "exact merged latency percentiles) from a running "
                    "server or cluster router.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--json", action="store_true",
                        help="emit the raw JSON payload")
    args = parser.parse_args(argv)

    import json as json_module

    from repro.service.client import ServiceClient, ServiceError

    try:
        client = ServiceClient(args.host, args.port)
        try:
            stats = client.cluster_stats()
        finally:
            client.close()
    except (OSError, ServiceError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(stats, indent=2, sort_keys=True))
        return 0
    latency = stats["latency"]
    print(f"shards: {stats['shards']}  sessions: {len(stats['sessions'])} "
          f"{stats.get('per_shard_sessions', [])}")
    print("counters: " + (", ".join(
        f"{name}={value}" for name, value in sorted(stats["counters"].items())
    ) or "(none)"))
    print(f"latency: n={latency['count']} p50={latency['p50_ms']}ms "
          f"p95={latency['p95_ms']}ms p99={latency['p99_ms']}ms "
          f"max={latency['max_ms']}ms over_budget={latency['over_budget']}")
    print(f"queue: depth={stats['queue']['depth']} "
          f"max_depth={stats['queue']['max_depth']}")
    return 0


def _experiment_ids(registry: dict) -> list[str]:
    """Registry keys in numeric order (the help text derives its e-range
    from here rather than hardcoding it)."""
    return sorted(registry, key=lambda k: int(k[1:]))


def _accepted_kwargs(fn, **candidates):
    """Keep only candidates the experiment's ``run`` signature accepts
    (and that were actually given)."""
    params = inspect.signature(fn).parameters
    return {
        name: value
        for name, value in candidates.items()
        if value is not None and name in params
    }


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments and print their tables."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        # The linter is a separate subcommand with its own option set;
        # dispatch before the experiment parser sees (and rejects) it.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "replay":
        return _replay_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if "--version" in argv:
        # Answered before the experiment registry (and with it the
        # scientific stack) is imported; the parser's own --version
        # below still covers abbreviations such as --vers.
        print(f"repro-experiments {package_version()}")
        raise SystemExit(0)

    from repro.experiments import REGISTRY

    ids = _experiment_ids(REGISTRY)
    id_range = f"{ids[0]}..{ids[-1]}"
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the paper-claim reproduction tables "
            f"({ids[0].upper()}-{ids[-1].upper()})."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id ({id_range}), 'all', or the 'lint' / "
             "'serve' / 'replay' / 'stats' subcommands",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-experiments {package_version()}",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root RNG seed (default 0)"
    )
    parser.add_argument(
        "--workers", metavar="N|auto", default="1",
        help="process count for parallel execution: trials within one "
             "experiment, or whole experiments for 'all'; 'auto' = one "
             "per CPU (default 1, the serial in-process path)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override the trial count for experiments that take one "
             "(tiny values make a quick smoke run)",
    )
    parser.add_argument(
        "--scale", type=int, default=None,
        help="override the instance-size multiplier for experiments "
             "that take one",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal completed trials to PATH and resume from it on "
             "rerun (engine-backed experiments; for 'all', one journal "
             "per experiment at PATH.<id>)",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="emit GitHub-flavored Markdown tables",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="also save each table to DIR/<id>.json and DIR/<id>.csv",
    )
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        for key in ids:
            doc = (REGISTRY[key].__module__ or "").rsplit(".", 1)[-1]
            print(f"{key:>4}  {doc}")
        return 0

    from repro.engine import resolve_workers

    try:
        workers = resolve_workers(
            "auto" if args.workers == "auto" else int(args.workers)
        )
    except ValueError:
        print(f"invalid --workers value {args.workers!r}; "
              "use a positive integer or 'auto'", file=sys.stderr)
        return 2

    wanted = ids if args.experiment == "all" else [args.experiment]
    for key in wanted:
        if key not in REGISTRY:
            print(f"unknown experiment {key!r}; use --list", file=sys.stderr)
            return 2

    if args.experiment == "all" and workers > 1:
        # Fan whole experiments out over the pool; inner trial loops stay
        # serial (workers=1) so total process count stays at N.
        from repro.engine import TrialTask, execute, run_registry_experiment

        tasks = [
            TrialTask(
                fn=run_registry_experiment,
                kwargs={
                    "key": key,
                    "seed": args.seed,
                    "params": _accepted_kwargs(
                        REGISTRY[key], trials=args.trials, scale=args.scale
                    ),
                    "checkpoint": (f"{args.checkpoint}.{key}"
                                   if args.checkpoint else None),
                },
            )
            for key in wanted
        ]
        tables = execute(tasks, workers=workers)
    else:
        tables = []
        for key in wanted:
            kwargs = {"seed": args.seed}
            kwargs.update(_accepted_kwargs(
                REGISTRY[key],
                workers=workers if workers > 1 else None,
                trials=args.trials,
                scale=args.scale,
                checkpoint=args.checkpoint,
            ))
            tables.append(REGISTRY[key](**kwargs))

    for key, table in zip(wanted, tables):
        print(table.to_markdown() if args.markdown else table.render())
        print()
        if args.output is not None:
            from pathlib import Path

            from repro.io import save_table

            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            save_table(out / f"{key}.json", table)
            save_table(out / f"{key}.csv", table)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
