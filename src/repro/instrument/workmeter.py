"""Deterministic per-call-site work counting (``REPRO_WORK_AUDIT=1``).

The repo's one measure of where update work goes: this meter counts
the work each update actually does, per call site, and is what the
Theorem 3.5 cap check reads.  The hot methods of the dynamic
sparsifier and the matcher backends carry cheap counting seams that
are no-ops until a meter is installed; with one active, every update
accumulates operation counts in four categories —

``edge-touch``
    an adjacency entry read, written, or probed;
``vertex-scan``
    a vertex visited by a sweep or search;
``rng-draw``
    a batched draw from a ``Generator`` (the sanitizer counts *bits*;
    this counts *draw sites* on the hot path);
``allocation``
    a fresh container/array constructed inside the update.

— keyed by call site (``"DynamicSparsifier._remark"``), so the report
ranks exactly the loops a rebuild optimisation needs to target.

Counting is deterministic and observation-free: the meter never draws
randomness, never reads a clock, and never changes control flow, so a
session's replay fingerprint is byte-identical with the audit on or off
(a test asserts this).  :func:`repro.contracts.check_work_budget`
consumes the per-update totals to verify the Theorem 3.5 cap against
*actual* counted work, not just the chunk counter.

Enable ambiently with ``REPRO_WORK_AUDIT=1`` (sessions call
:func:`enable_from_env`), or scoped with the :func:`audit` context
manager.  ``benchmarks/hotspots.py`` drives a synthetic update stream
under :func:`audit` and writes the ranked hotspot table.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Environment variable that switches ambient work auditing on.
WORK_AUDIT_ENV = "REPRO_WORK_AUDIT"

#: Values of :data:`WORK_AUDIT_ENV` treated as "on".
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: The operation categories a meter tracks.
CATEGORIES = ("edge-touch", "vertex-scan", "rng-draw", "allocation")

#: The installed meter, if any (module-level so the counting seams in
#: the hot loops are a dict lookup + add, nothing more).
_ACTIVE: "WorkMeter | None" = None


class WorkMeter:
    """Accumulates categorized op counts keyed by call site."""

    __slots__ = (
        "sites", "total_ops", "updates", "per_update_max",
        "max_observed_constant", "_mark",
    )

    def __init__(self) -> None:
        self.sites: dict[tuple[str, str], int] = {}
        self.total_ops = 0
        self.updates = 0
        self.per_update_max = 0
        self.max_observed_constant = 0.0
        self._mark = 0

    def count(self, category: str, site: str, amount: int = 1) -> None:
        """Record ``amount`` operations of ``category`` at ``site``."""
        key = (category, site)
        self.sites[key] = self.sites.get(key, 0) + amount
        self.total_ops += amount

    def begin_update(self) -> None:
        """Mark the start of one session update."""
        self._mark = self.total_ops

    def end_update(self) -> int:
        """Close one update; returns the ops counted since its start."""
        ops = self.total_ops - self._mark
        self.updates += 1
        if ops > self.per_update_max:
            self.per_update_max = ops
        return ops

    def record_constant(self, observed: float) -> None:
        """Track the largest observed work-budget constant."""
        if observed > self.max_observed_constant:
            self.max_observed_constant = observed

    def report(self) -> list[dict]:
        """Ranked hotspot rows (count desc, then site/category asc)."""
        total = self.total_ops
        rows = [
            {
                "site": site,
                "category": category,
                "count": count,
                "share": (count / total) if total else 0.0,
            }
            for (category, site), count in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r["count"], r["site"], r["category"]))
        return rows

    def reset(self) -> None:
        """Drop all accumulated counts."""
        self.sites.clear()
        self.total_ops = 0
        self.updates = 0
        self.per_update_max = 0
        self.max_observed_constant = 0.0
        self._mark = 0


def active() -> WorkMeter | None:
    """The installed meter, or ``None`` when auditing is off."""
    return _ACTIVE


def work_audit_enabled() -> bool:
    """Whether ``REPRO_WORK_AUDIT`` asks for ambient auditing."""
    return os.environ.get(WORK_AUDIT_ENV, "").strip().lower() in _TRUTHY


def enable() -> WorkMeter:
    """Install (or return the already-installed) global meter."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = WorkMeter()
    return _ACTIVE


def disable() -> None:
    """Remove the global meter; counting seams become no-ops again."""
    global _ACTIVE
    _ACTIVE = None


def enable_from_env() -> WorkMeter | None:
    """Install a meter iff the environment asks for one.

    Sessions call this at construction so ``REPRO_WORK_AUDIT=1`` audits
    every served/replayed update with no code changes.
    """
    if work_audit_enabled():
        return enable()
    return _ACTIVE


@contextmanager
def audit():
    """Context manager: install a fresh meter, restore the old one.

    Yields the fresh :class:`WorkMeter`; the previously-installed meter
    (or ``None``) is put back on exit, so scoped audits compose with the
    ambient environment switch.
    """
    global _ACTIVE
    previous = _ACTIVE
    meter = WorkMeter()
    _ACTIVE = meter
    try:
        yield meter
    finally:
        _ACTIVE = previous
