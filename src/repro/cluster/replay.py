"""Shard-aware offline replay: verify a whole cluster's journals.

A cluster journals under one root::

    journals/
      shard-0/  alpha.jsonl  delta.jsonl
      shard-1/  beta.jsonl
      ...

Each per-session journal is an ordinary ``repro-service-journal-v2``
file — sharding changes *where* a journal lives, never its format — so
single-session replay (:func:`repro.service.journal.replay_journal`)
works file-by-file.  What the cluster layer adds:

* :func:`discover_shards` / :func:`shard_sessions` walk the layout;
* :func:`verify_shard` replays every session in one shard twice and
  asserts byte-identity (:func:`repro.contracts.check_replay_sessions`:
  sequence number, mate-array bytes, matching fingerprint, and — under
  ``REPRO_RNG_SANITIZE=1`` — RNG stream fingerprints);
* :func:`verify_cluster` does that for *every* shard and additionally
  checks **placement consistency**: each session found under
  ``shard-K`` must rendezvous-hash to ``K``
  (:func:`repro.cluster.hashing.place`), i.e. the journals really were
  written by the router that claims this layout.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.cluster.hashing import place
from repro.contracts import check_replay_sessions
from repro.service.journal import replay_journal

if TYPE_CHECKING:
    from repro.service.session import Session

#: How a shard journal directory is named under the cluster root.
SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


class ClusterReplayError(RuntimeError):
    """The cluster journal layout is inconsistent (not a replay diff)."""


def discover_shards(root: str | Path) -> dict[int, Path]:
    """Map shard id -> journal directory under the cluster ``root``.

    Raises :class:`ClusterReplayError` when ``root`` holds no shard
    directories or the ids are not contiguous from 0 (a partial copy —
    placement checks would silently pass against the wrong shard
    count).
    """
    root = Path(root)
    shards: dict[int, Path] = {}
    if root.is_dir():
        for entry in sorted(root.iterdir()):
            match = SHARD_DIR_RE.match(entry.name)
            if match and entry.is_dir():
                shards[int(match.group(1))] = entry
    if not shards:
        raise ClusterReplayError(
            f"{root}: no shard-K journal directories found"
        )
    expected = list(range(len(shards)))
    if sorted(shards) != expected:
        raise ClusterReplayError(
            f"{root}: shard ids {sorted(shards)} are not contiguous "
            f"from 0; refusing to guess the cluster size"
        )
    return shards


def shard_sessions(shard_dir: str | Path) -> list[Path]:
    """The per-session journal files in one shard directory, sorted."""
    return sorted(Path(shard_dir).glob("*.jsonl"))


def _report(journal_path: Path, session: Session) -> dict:
    """One session's entry in a shard report."""
    return {
        "session": session.name,
        "journal": str(journal_path),
        "seq": session.seq,
        "size": session.matcher.matching_size,
        "fingerprint": session.fingerprint(),
    }


def replay_shard(shard_dir: str | Path, upto: int | None = None) -> list[dict]:
    """Replay every session in one shard once (no identity check).

    Returns the same report shape as :func:`verify_shard`; use that
    when you want the byte-identity assertion too.
    """
    return [_report(path, replay_journal(path, upto=upto))
            for path in shard_sessions(shard_dir)]


def verify_shard(shard_dir: str | Path, upto: int | None = None) -> list[dict]:
    """Replay every session in one shard twice; assert byte-identity.

    Returns one report entry per session (name, update count, matching
    size, fingerprint).  An empty shard — valid under rendezvous
    placement — returns an empty list.  Divergence raises
    :class:`repro.contracts.ContractViolation`.
    """
    reports = []
    for path in shard_sessions(shard_dir):
        session = replay_journal(path, upto=upto)
        check_replay_sessions(session, replay_journal(path, upto=upto))
        reports.append(_report(path, session))
    return reports


def verify_cluster(root: str | Path, upto: int | None = None) -> dict:
    """Verify every shard under ``root`` plus placement consistency.

    Returns a cluster report::

        {"shards": K,
         "sessions": N,
         "updates": total update count,
         "per_shard": {0: [session reports...], ...}}

    Raises :class:`ClusterReplayError` on a misplaced session (a
    journal under ``shard-K`` whose name does not hash to ``K``),
    :class:`repro.contracts.ContractViolation` on replay divergence.
    """
    shards = discover_shards(root)
    num_shards = len(shards)
    per_shard: dict[int, list[dict]] = {}
    for shard_id in sorted(shards):
        reports = verify_shard(shards[shard_id], upto=upto)
        for report in reports:
            expected = place(report["session"], num_shards)
            if expected != shard_id:
                raise ClusterReplayError(
                    f"session {report['session']!r} journaled under "
                    f"shard-{shard_id} but rendezvous-places on shard "
                    f"{expected} of {num_shards} — wrong shard count or "
                    "a foreign journal"
                )
        per_shard[shard_id] = reports
    return {
        "shards": num_shards,
        "sessions": sum(len(reports) for reports in per_shard.values()),
        "updates": sum(report["seq"] for reports in per_shard.values()
                       for report in reports),
        "per_shard": per_shard,
    }
