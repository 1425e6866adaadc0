"""The cluster scaling benchmark's gate decision, on synthetic curves.

``benchmarks/bench_cluster.py`` enforces >= 2x updates/sec at 4 shards
over 1 shard only on hosts with >= 4 CPUs, so most runs merely record
the curve; these tests keep the decision itself honest without
starting a process.
"""

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate():
    """``scaling_gate`` from ``benchmarks/bench_cluster.py`` (a script)."""
    spec = importlib.util.spec_from_file_location(
        "bench_cluster", REPO / "benchmarks" / "bench_cluster.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scaling_gate


def test_below_threshold_on_four_cpus_fails(gate):
    verdict = gate({1: 1000.0, 4: 1900.0}, cpu_count=4)
    assert verdict["speedup_at_4_shards"] == 1.9
    assert verdict["gate_enforced"] and not verdict["passed"]


def test_threshold_on_four_cpus_passes(gate):
    verdict = gate({1: 1000.0, 4: 2000.0}, cpu_count=4)
    assert verdict["speedup_at_4_shards"] == 2.0
    assert verdict["gate_enforced"] and verdict["passed"]


@pytest.mark.parametrize("curve, cpu_count", [
    ({1: 1000.0, 4: 900.0}, 2),
    ({1: 1000.0}, 8),
])
def test_recorded_only(gate, curve, cpu_count):
    verdict = gate(curve, cpu_count=cpu_count)
    assert not verdict["gate_enforced"] and verdict["passed"]
