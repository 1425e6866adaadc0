#!/usr/bin/env python
"""Maintaining a matching over a live edge stream — with a hostile user.

A marketplace matches buyers and sellers whose offers come and go.  The
offer universe is a dense bounded-β graph; edges are inserted and deleted
by an *adaptive* adversary that watches the published matching and
preferentially kills matched offers — the scenario Theorem 3.5's
algorithm is built for.  We track the maintained approximation ratio and
the per-update work, and compare with the 2-approximation baseline.
Run::

    python examples/dynamic_stream.py
"""

from repro import mcm_exact
from repro.dynamic import (
    AdaptiveAdversary,
    DynamicMaximalMatching,
    LazyRebuildMatching,
)
from repro.graphs.generators import clique_union


def main() -> None:
    host = clique_union(4, 24)  # offer universe, beta = 1
    universe = list(host.edges())
    n = host.num_vertices
    print(f"offer universe: n={n}, {len(universe)} possible edges\n")

    ours = LazyRebuildMatching(n, beta=1, epsilon=0.4, seed=0)
    base = DynamicMaximalMatching(n)
    adversary = AdaptiveAdversary(universe, observe=lambda: ours.matching,
                                  attack_probability=0.5, seed=1)

    # Warm up to full density, then let the adversary attack.
    adversary.preload(universe)
    for u, v in universe:
        ours.insert(u, v)
        base.insert(u, v)
    warm = len(universe)  # work entries of the warm-up, left out below

    checkpoints = []
    steps = 1500
    for step in range(steps):
        upd = adversary.next_update()
        if upd is None:
            break
        ours.update(upd.op, upd.u, upd.v)
        base.update(upd.op, upd.u, upd.v)
        if (step + 1) % 300 == 0:
            opt = mcm_exact(ours.graph.snapshot()).size
            checkpoints.append(
                (step + 1,
                 opt / ours.matching.size if ours.matching.size else float("inf"),
                 opt / base.matching.size if base.matching.size else float("inf"))
            )

    print(f"adversary attacked matched edges {adversary.attacks} times\n")
    print(f"{'step':>6}  {'ours ratio':>10}  {'baseline ratio':>14}")
    for step, ours_r, base_r in checkpoints:
        print(f"{step:>6}  {ours_r:>10.3f}  {base_r:>14.3f}")

    print(f"\nworst per-update work: ours {max(ours.work_log[warm:])} "
          f"rebuild chunks vs baseline {max(base.work_log[warm:])} "
          f"neighbor scans")
    print(f"rebuilds completed: {ours.rebuilds_completed}")


if __name__ == "__main__":
    main()
