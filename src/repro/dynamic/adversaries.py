"""Update-stream adversaries for the dynamic experiments (E10).

* :class:`ObliviousAdversary` — fixes its update sequence independently
  of the algorithm's behaviour (it only tracks the graph state its own
  updates imply, which is public).
* :class:`AdaptiveAdversary` — sees the algorithm's *current output
  matching* before every update and preferentially deletes matched edges,
  the classic attack that breaks oblivious-only randomized algorithms.
  Theorem 3.5's algorithm is claimed safe against exactly this; E10
  measures the maintained approximation factor under it.

Both generate updates over a fixed vertex set, optionally restricted to a
bounded-β *host* edge universe (so the dynamic graph stays inside the
graph family the algorithms assume).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.instrument.rng import resolve_rng
from repro.matching.matching import Matching


@dataclass(frozen=True)
class Update:
    """One edge update: ``op`` is ``"insert"`` or ``"delete"``."""

    op: str
    u: int
    v: int


class _UniverseState:
    """Shared bookkeeping: which universe edges are currently present."""

    def __init__(self, universe: Iterable[tuple[int, int]],
                 rng: np.random.Generator) -> None:
        edges = sorted({(min(u, v), max(u, v)) for u, v in universe if u != v})
        if not edges:
            raise ValueError("edge universe must be non-empty")
        self.universe = edges
        self.present: set[tuple[int, int]] = set()
        self.rng = rng

    def absent(self) -> list[tuple[int, int]]:
        return [e for e in self.universe if e not in self.present]

    def random_insert(self) -> Update | None:
        pool = self.absent()
        if not pool:
            return None
        e = pool[int(self.rng.integers(len(pool)))]
        self.present.add(e)
        return Update("insert", *e)

    def random_delete(self) -> Update | None:
        if not self.present:
            return None
        pool = sorted(self.present)
        e = pool[int(self.rng.integers(len(pool)))]
        self.present.remove(e)
        return Update("delete", *e)

    def delete_specific(self, e: tuple[int, int]) -> Update:
        self.present.remove(e)
        return Update("delete", *e)


class ObliviousAdversary:
    """Random insert/delete stream over a fixed edge universe.

    Parameters
    ----------
    universe:
        Allowed edges (e.g. the edge set of a bounded-β host graph).
    delete_probability:
        Chance of attempting a deletion at each step (when edges exist).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        universe: Iterable[tuple[int, int]],
        delete_probability: float = 0.3,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= delete_probability <= 1.0:
            raise ValueError("delete_probability must lie in [0, 1]")
        self._state = _UniverseState(
            universe, resolve_rng(seed=seed, rng=rng, owner="ObliviousAdversary")
        )
        self.delete_probability = delete_probability

    def preload(self, edges: Iterable[tuple[int, int]]) -> None:
        """Mark ``edges`` as already present (warm-started experiments)."""
        self._state.present.update(
            (min(u, v), max(u, v)) for u, v in edges
        )

    def next_update(self) -> Update | None:
        """The next update, or None if no move is possible."""
        state = self._state
        if state.present and state.rng.random() < self.delete_probability:
            return state.random_delete()
        return state.random_insert() or state.random_delete()

    def stream(self, length: int) -> list[Update]:
        """Pre-generate ``length`` updates (the oblivious modus operandi)."""
        out = []
        for _ in range(length):
            upd = self.next_update()
            if upd is None:
                break
            out.append(upd)
        return out


class AdaptiveAdversary:
    """Adversary that observes the output matching and attacks it.

    At each step, with probability ``attack_probability`` it deletes a
    *currently matched* edge (if any exists inside the universe);
    otherwise it behaves like the oblivious adversary.

    Parameters
    ----------
    universe:
        Allowed edges.
    observe:
        Callable returning the algorithm's current :class:`Matching` —
        the adaptivity channel.
    attack_probability:
        Chance of targeting a matched edge each step.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        universe: Iterable[tuple[int, int]],
        observe: Callable[[], Matching],
        attack_probability: float = 0.5,
        rng: np.random.Generator | None = None,
        *,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= attack_probability <= 1.0:
            raise ValueError("attack_probability must lie in [0, 1]")
        self._state = _UniverseState(
            universe, resolve_rng(seed=seed, rng=rng, owner="AdaptiveAdversary")
        )
        self._observe = observe
        self.attack_probability = attack_probability
        self.attacks = 0

    def preload(self, edges: Iterable[tuple[int, int]]) -> None:
        """Mark ``edges`` as already present (warm-started experiments)."""
        self._state.present.update(
            (min(u, v), max(u, v)) for u, v in edges
        )

    def next_update(self) -> Update | None:
        """The next update, chosen after observing the current matching."""
        state = self._state
        if state.rng.random() < self.attack_probability:
            matched = [
                (min(u, v), max(u, v)) for u, v in self._observe().edges()
            ]
            live = [e for e in matched if e in state.present]
            if live:
                self.attacks += 1
                e = live[int(state.rng.integers(len(live)))]
                return state.delete_specific(e)
        if state.present and state.rng.random() < 0.3:
            return state.random_delete()
        return state.random_insert() or state.random_delete()
