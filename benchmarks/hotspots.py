"""Ranked per-call-site hotspot table of the served update path.

Drives a deterministic synthetic session under the work meter
(:mod:`repro.instrument.workmeter`, which counts each update's work per
call site) and writes the ranked per-call-site hotspot table as JSON.
The workload is a seeded insert/delete stream of :data:`STEPS` updates
against a small session (the same shape the service bench uses), so
the report is byte-reproducible and ranks exactly the sparsifier /
lazy-rebuild inner loops the vectorization ROADMAP item targets.

Usage::

    PYTHONPATH=src python benchmarks/hotspots.py results/hotspots.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.dynamic.incremental import DEFAULT_CHUNK
from repro.instrument import workmeter
from repro.instrument.rng import resolve_rng
from repro.service.session import Session

#: The synthetic workload: updates, seed, and session shape.
STEPS = 400
SEED = 0
NUM_VERTICES = 96
BETA = 2
EPSILON = 0.25


def hotspot_report() -> dict:
    """Run the synthetic workload under the meter; the report payload."""
    with workmeter.audit() as meter:
        session = Session("hotspots", num_vertices=NUM_VERTICES,
                          beta=BETA, epsilon=EPSILON, seed=SEED)
        stream = resolve_rng(seed=SEED, owner="hotspot report")
        present: set[tuple[int, int]] = set()
        applied = 0
        while applied < STEPS:
            u = int(stream.integers(0, NUM_VERTICES))
            v = int(stream.integers(0, NUM_VERTICES))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            op = "delete" if edge in present else "insert"
            session.apply(op, edge[0], edge[1])
            (present.discard if op == "delete" else present.add)(edge)
            applied += 1
        return {
            "format": "repro-hotspots-v1",
            "workload": {
                "num_vertices": NUM_VERTICES,
                "beta": BETA,
                "epsilon": EPSILON,
                "steps": STEPS,
                "seed": SEED,
            },
            "updates": meter.updates,
            "total_ops": meter.total_ops,
            "per_update": {
                "max_ops": meter.per_update_max,
                "budget_chunks": session.work_budget,
                "budget_ops": session.work_budget * DEFAULT_CHUNK,
                "max_observed_constant": round(
                    meter.max_observed_constant, 6
                ),
            },
            "hotspots": [
                {**row, "share": round(row["share"], 6)}
                for row in meter.report()
            ],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="path of the JSON report to write")
    args = parser.parse_args(argv)
    payload = hotspot_report()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    top = payload["hotspots"][0]["site"] if payload["hotspots"] else "none"
    print(f"hotspot report: {payload['total_ops']} ops across "
          f"{payload['updates']} updates -> {args.output} (top site: {top})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
