"""E10 — Theorem 3.5: dynamic update cost and adaptive-adversary quality.

Panel A (cost): over clique-union universes of growing clique size (so
density grows with n), run an oblivious update stream through our
windowed-rebuild matcher and the deterministic maximal-matching baseline
(Barenboim–Maimon surrogate).  Measured: maximum per-update work.  Paper
prediction: ours stays ~flat in n (O((β/ε³)·log(1/ε)) chunks), the
baseline's neighbor scans grow with density.

Panel B (adaptivity): run the adaptive adversary (which observes the
output matching and deletes matched edges) and report the approximation
ratio our algorithm maintains.  Paper prediction: still ≤ ~1+ε — the
rare adaptive-adversary-safe randomized dynamic matcher.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.adversaries import AdaptiveAdversary, ObliviousAdversary
from repro.dynamic.baseline import DynamicMaximalMatching
from repro.dynamic.lazy_rebuild import LazyRebuildMatching
from repro.experiments.tables import Table
from repro.graphs.generators.cliques import clique_union
from repro.matching.blossom import mcm_exact


def _drive(alg, adversary, steps: int) -> None:
    for _ in range(steps):
        upd = adversary.next_update()
        if upd is None:
            break
        alg.update(upd.op, upd.u, upd.v)


def run(
    clique_sizes: tuple[int, ...] = (10, 20, 40, 80),
    num_cliques: int = 4,
    steps: int = 1200,
    epsilon: float = 0.4,
    seed: int = 0,
    constant: float = 0.5,
) -> Table:
    """Produce the E10 table; see module docstring."""
    from repro.core.delta import DeltaPolicy

    policy = DeltaPolicy(constant=constant)
    rng = np.random.default_rng(seed)
    table = Table(
        title="E10  Theorem 3.5: dynamic update work and adaptive safety",
        headers=["universe n", "adversary", "ours max work", "base max work",
                 "ours ratio", "base ratio"],
        notes=["paper: ours O((beta/eps^3)log(1/eps)) worst-case work per "
               "update (chunks), independent of n; baseline [14] is 2-approx "
               "with update cost growing with density",
               "work units: ours = rebuild chunks; baseline = neighbor scans",
               f"{steps} updates per row, eps = {epsilon}"],
    )
    for size in clique_sizes:
        host = clique_union(num_cliques, size)
        universe = list(host.edges())
        n = host.num_vertices
        for kind in ("oblivious", "adaptive"):
            ours = LazyRebuildMatching(n, beta=1, epsilon=epsilon,
                                       rng=rng.spawn(1)[0], policy=policy)
            base = DynamicMaximalMatching(n)
            # Warm up: densify to the full host so update costs are
            # measured at realistic density, then measure `steps` further
            # updates (the warmup's len(universe) work entries are
            # excluded from the work statistics).
            def _warmup(adversary):
                adversary.preload(universe)
                for (a, b) in universe:
                    ours.insert(a, b)
                    base.insert(a, b)

            if kind == "oblivious":
                adv_obl = ObliviousAdversary(universe, 0.5, rng=rng.spawn(1)[0])
                _warmup(adv_obl)
                stream = adv_obl.stream(steps)
                for upd in stream:
                    ours.update(upd.op, upd.u, upd.v)
                base_stream = stream
            else:
                adv = AdaptiveAdversary(universe, observe=lambda: ours.matching,
                                        attack_probability=0.4,
                                        rng=rng.spawn(1)[0])
                _warmup(adv)
                applied = []
                for _ in range(steps):
                    upd = adv.next_update()
                    if upd is None:
                        break
                    ours.update(upd.op, upd.u, upd.v)
                    applied.append(upd)
                base_stream = applied
            for upd in base_stream:
                base.update(upd.op, upd.u, upd.v)
            snapshot = ours.graph.snapshot()
            opt = mcm_exact(snapshot).size
            ours_size = ours.matching.size
            base_size = base.matching.size
            warm = len(universe)
            table.add_row(
                n, kind, max(ours.work_log[warm:], default=0),
                max(base.work_log[warm:], default=0),
                opt / ours_size if ours_size else float("inf"),
                opt / base_size if base_size else float("inf"),
            )
    return table


if __name__ == "__main__":  # pragma: no cover
    print(run())
