"""Correctness checks run after every measured window (off the clock).

* the served matching of every session is a valid matching of the
  served graph (``contracts.check_matching``) and its size is compared
  with the exact maximum matching of that graph (``matching_ratio``);
* every session's journal replays to the state the server reported:
  ``contracts.check_replay_sessions`` against the served fingerprint and
  mate array for a single server, ``cluster.replay.verify_cluster``
  (double replay plus rendezvous placement) for the cluster;
* the request counts add up: every request sent was answered, and each
  answer was counted as a success or a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cluster.replay import verify_cluster
from repro.contracts import check_matching, check_replay_sessions
from repro.graphs.builder import from_edges
from repro.matching.blossom import mcm_exact
from repro.matching.matching import Matching
from repro.service.journal import replay_journal


@dataclass
class ServedSession:
    """What the server reported for one session at the end of a run.

    Duck-types the parts of ``Session`` that
    ``contracts.check_replay_sessions`` compares.
    """

    name: str
    num_vertices: int
    seq: int
    served_fingerprint: str
    matching: Matching
    graph_edges: list

    def fingerprint(self) -> str:
        """The fingerprint the server returned from ``snapshot``."""
        return self.served_fingerprint

    def rng_fingerprints(self) -> tuple:
        """Served sessions expose no stream fingerprints."""
        return ()


def fetch_served(conn, name: str) -> ServedSession:
    """``snapshot`` + ``query_matching`` of one session (off the clock)."""
    snapshot = conn.checked({"op": "snapshot", "session": name})
    served = conn.checked({"op": "query_matching", "session": name})
    n = int(snapshot["num_vertices"])
    return ServedSession(
        name=name,
        num_vertices=n,
        seq=int(snapshot["seq"]),
        served_fingerprint=snapshot["fingerprint"],
        matching=Matching.from_edges(n, [tuple(e) for e in served["edges"]]),
        graph_edges=snapshot["graph_edges"],
    )


def matching_ratio(session: ServedSession) -> float:
    """Served |M| over the exact MCM of the served graph (validity first)."""
    graph = from_edges(session.num_vertices, session.graph_edges)
    check_matching(graph, session.matching)
    optimum = mcm_exact(graph).size
    return session.matching.size / optimum if optimum else 1.0


def verify_single(journal_dir: Path, served: list[ServedSession]) -> dict:
    """Replay each journal and require the served state byte-for-byte."""
    updates = 0
    for session in served:
        replayed = replay_journal(journal_dir / f"{session.name}.jsonl")
        check_replay_sessions(session, replayed)
        updates += replayed.seq
    return {"replayed_sessions": len(served), "replayed_updates": updates}


def verify_routed(journal_root: Path, served: list[ServedSession]) -> dict:
    """Verify the cluster journals and match them to the served state."""
    report = verify_cluster(journal_root)
    replayed = {entry["session"]: entry
                for entries in report["per_shard"].values()
                for entry in entries}
    for session in served:
        entry = replayed.get(session.name)
        if entry is None:
            raise AssertionError(f"no journal replayed for {session.name}")
        if (entry["fingerprint"] != session.served_fingerprint
                or entry["seq"] != session.seq
                or entry["size"] != session.matching.size):
            raise AssertionError(
                f"{session.name}: replay {entry['fingerprint'][:12]} "
                f"seq {entry['seq']} differs from served "
                f"{session.served_fingerprint[:12]} seq {session.seq}")
    return {"replayed_sessions": report["sessions"],
            "replayed_updates": report["updates"]}


def verify_counts(counts, sent: int) -> None:
    """Every request sent was answered and counted exactly once."""
    attempted = counts.total("attempted")
    settled = counts.total("succeeded") + counts.total("failed")
    if attempted != sent or settled != attempted:
        raise AssertionError(
            f"request accounting broken: sent {sent}, answered "
            f"{attempted}, succeeded+failed {settled}")
