"""Deterministic replay journals: ``repro-service-journal-v2``.

Every journaled session can be rebuilt *offline* to a byte-identical
matching and state fingerprint.  The format follows the engine's
checkpoint discipline (append-only JSONL, a kill loses at most the line
being written, truncated tails tolerated):

* line 1 — header::

      {"format": "repro-service-journal-v2", "protocol": "...",
       "session": name, "num_vertices": n, "beta": b, "epsilon": e,
       "backend": k, "delta": d, "work_budget": w,
       "rng": {"bit_generator": ..., "entropy": ..., "spawn_key": [...]}}

  The ``rng`` object is the session root stream's
  :class:`~repro.instrument.rng.RngSpec`, captured before any draw —
  identity, not position.

* one line per **applied** update (rejected updates are never
  journaled)::

      {"seq": i, "op": "insert"|"delete", "u": u, "v": v}

Replay (:func:`replay_journal`) rebuilds the root generator via
:func:`~repro.instrument.rng.rng_from_spec`, constructs a fresh
:class:`~repro.service.session.Session` with the header's parameters,
and applies the updates in sequence.  Because the session spawns the
matcher's stream deterministically and every random draw is a function
of (stream, applied-update sequence), the replayed matching's mate
array and the state fingerprint (backend, ``seq``, mate array, sorted
live-graph edges) match the live session byte-for-byte — the property
:func:`repro.contracts.check_replay_sessions` asserts.  The journal
stores no fingerprint, so the fingerprint's definition can change
without a format change.

A journal pins behaviour, not only syntax: the format version changes
whenever the same header and updates would replay to different mate
arrays.  v2 (3.0.0) changed the neighbour sampler's draw, so every
session whose live degree exceeds Δ serves different mates than under
v1; :func:`read_journal` rejects v1 journals instead of replaying them
silently wrong (repro 2.0.0 still replays them).  A header naming a
retired backend (``oblivious``, ``baseline``) is refused the same way:
:func:`replay_journal` names repro 7.1.0, the last release serving it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.instrument.rng import RngSpec, rng_from_spec
from repro.service.protocol import PROTOCOL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.service.session import Session

#: Journal format identifier (header ``format`` field).
JOURNAL_FORMAT = "repro-service-journal-v2"

#: Earlier formats this version refuses, with the last release that
#: replays each one.
RETIRED_FORMATS = {"repro-service-journal-v1": "2.0.0"}


class JournalError(RuntimeError):
    """The journal on disk is missing, malformed, or incompatible."""


class ReplayJournal:
    """Append-only writer for one session's replay journal.

    Opened by the server when a session is created with journaling on;
    the header is written by :meth:`write_header` (called from the
    session constructor, which knows its own RngSpec), update records
    by :meth:`record`.  Records are buffered and flushed once per
    micro-batch (:meth:`flush`) — crash-consistent at batch
    granularity.
    """

    def __init__(self, path: str | Path) -> None:
        """Create (truncate) the journal file at ``path``."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w")

    def write_header(self, session: "Session") -> None:
        """Write the header line describing ``session``."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        spec = session.rng_spec
        header = {
            "format": JOURNAL_FORMAT,
            "protocol": PROTOCOL,
            "session": session.name,
            "num_vertices": session.num_vertices,
            "beta": session.beta,
            "epsilon": session.epsilon,
            "backend": session.backend,
            "delta": session.delta,
            "work_budget": session.work_budget,
            "rng": {
                "bit_generator": spec.bit_generator,
                "entropy": spec.entropy,
                "spawn_key": list(spec.spawn_key),
            },
        }
        self._handle.write(json.dumps(header) + "\n")
        self._handle.flush()

    def record(self, seq: int, op: str, u: int, v: int) -> None:
        """Append one applied update (buffered until :meth:`flush`)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._handle.write(
            json.dumps({"seq": seq, "op": op, "u": u, "v": v}) + "\n"
        )

    def flush(self) -> None:
        """Flush buffered records to disk."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the journal (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_journal(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a journal into ``(header, update_records)``.

    Validates the header's format field (a retired format is refused
    with the release that replays it) and each record's shape;
    an unparsable *trailing* line is dropped (kill mid-append), an
    unparsable line elsewhere raises :class:`JournalError`, as does a
    sequence-number gap — replay refuses to silently skip updates.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"{path}: no such journal")
    lines = path.read_text().splitlines()
    if not lines:
        raise JournalError(f"{path}: empty journal (no header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(f"{path}: bad header: {exc}") from exc
    fmt = header.get("format")
    if fmt != JOURNAL_FORMAT:
        if isinstance(fmt, str) and fmt in RETIRED_FORMATS:
            raise JournalError(
                f"{path}: journal format {fmt!r} is not replayable by this "
                f"version (it reads {JOURNAL_FORMAT!r}, whose sampler "
                f"serves different matchings); replay it with repro "
                f"{RETIRED_FORMATS[fmt]}"
            )
        raise JournalError(f"{path}: unknown journal format {fmt!r}")
    updates: list[dict] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
            seq, op = int(record["seq"]), record["op"]
            u, v = int(record["u"]), int(record["v"])
        except Exception as exc:
            if lineno == len(lines):
                break  # truncated tail: the expected kill signature
            raise JournalError(f"{path}:{lineno}: bad record") from exc
        if op not in ("insert", "delete"):
            raise JournalError(f"{path}:{lineno}: bad op {op!r}")
        if seq != len(updates) + 1:
            raise JournalError(
                f"{path}:{lineno}: sequence gap (expected "
                f"{len(updates) + 1}, got {seq})"
            )
        updates.append({"seq": seq, "op": op, "u": u, "v": v})
    return header, updates


def replay_journal(path: str | Path, upto: int | None = None) -> "Session":
    """Rebuild a session offline from its journal (see module docstring).

    Parameters
    ----------
    path:
        Journal file written by a live server.
    upto:
        Replay only the first ``upto`` updates (``None`` = all) —
        time-travel debugging of a serving incident.
    """
    from repro.service.session import Session

    header, updates = read_journal(path)
    try:
        Session.check_backend(header.get("backend", Session.backend))
    except ValueError as exc:
        raise JournalError(f"{path}: {exc}") from exc
    try:
        spec = RngSpec(
            bit_generator=header["rng"]["bit_generator"],
            entropy=int(header["rng"]["entropy"]),
            spawn_key=tuple(int(k) for k in header["rng"]["spawn_key"]),
        )
        session = Session(
            name=header["session"],
            num_vertices=int(header["num_vertices"]),
            beta=int(header["beta"]),
            epsilon=float(header["epsilon"]),
            rng=rng_from_spec(spec),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"{path}: bad header fields: {exc}") from exc
    if upto is not None:
        updates = updates[:upto]
    for record in updates:
        session.apply(record["op"], record["u"], record["v"])
    return session
