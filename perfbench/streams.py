"""Seeded input generation, done before any clock starts.

Every input a run sends (prefill orders, update streams, arrival times,
session seeds) is a pure function of the ``--seed`` argument.  The
oblivious stream follows the law of
``repro.dynamic.adversaries.ObliviousAdversary`` (delete a uniformly
random present edge with probability ``p``, otherwise insert a uniformly
random absent edge, deleting when nothing is absent) but keeps its
present/absent sets as swap-remove index lists, so a step is O(1)
instead of a scan of the whole edge universe.
"""

from __future__ import annotations

import numpy as np


def clique_universe(num_cliques: int,
                    clique_size: int) -> list[tuple[int, int]]:
    """Sorted edge list of the disjoint union of ``num_cliques`` K_size."""
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
    return edges


class _IndexedSet:
    """A list with O(1) membership removal by value and uniform pick."""

    def __init__(self, items=()) -> None:
        self.items: list = list(items)
        self.where = {item: k for k, item in enumerate(self.items)}

    def add(self, item) -> None:
        self.where[item] = len(self.items)
        self.items.append(item)

    def remove(self, item) -> None:
        k = self.where.pop(item)
        last = self.items.pop()
        if k < len(self.items):
            self.items[k] = last
            self.where[last] = k

    def pick(self, rng: np.random.Generator):
        return self.items[int(rng.integers(len(self.items)))]


def oblivious_stream(
    universe: list[tuple[int, int]],
    present: list[tuple[int, int]],
    length: int,
    rng: np.random.Generator,
    delete_probability: float = 0.3,
) -> list[tuple[str, int, int]]:
    """``length`` oblivious updates starting from the ``present`` edges."""
    live = _IndexedSet(present)
    absent = _IndexedSet(e for e in universe if e not in live.where)
    out: list[tuple[str, int, int]] = []
    for _ in range(length):
        delete = bool(live.items) and rng.random() < delete_probability
        if delete or not absent.items:
            edge = live.pick(rng)
            live.remove(edge)
            absent.add(edge)
            out.append(("delete", *edge))
        else:
            edge = absent.pick(rng)
            absent.remove(edge)
            live.add(edge)
            out.append(("insert", *edge))
    return out


def prefill_order(universe: list[tuple[int, int]],
                  rng: np.random.Generator) -> list[tuple[int, int]]:
    """The whole universe in a seeded random order.

    Both oblivious and adaptive streams here insert more often than they
    delete, so their steady state is the (nearly) full universe; the
    prefill brings each session there before the clock starts.
    """
    return [universe[k] for k in rng.permutation(len(universe))]


def poisson_offsets(rate: float, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Intended send times (seconds from the window start) of ``count``
    Poisson arrivals at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))
