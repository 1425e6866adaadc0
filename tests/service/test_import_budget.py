"""Import budget of the serving processes, checked in fresh interpreters.

A server or router process pays for every module it imports at each
start, so the serving path must not drag in the experiment registry,
the other computation models or the scientific stack behind them.  Each
check runs in a subprocess, because this test process has long since
imported everything.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fast

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules no serving process may load.
NOT_SERVED = (
    "networkx", "scipy", "repro.experiments", "repro.api", "repro.mpc",
    "repro.streaming", "repro.sequential", "repro.distributed",
    "repro.engine", "repro.lint",
)


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_after(statement: str) -> set[str]:
    """Every module in ``sys.modules`` after ``statement``."""
    return set(run_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(list(sys.modules)))"
    ))


def test_server_imports_only_its_serving_path():
    loaded = loaded_after("import repro.cli, repro.service.server")
    assert sorted(loaded.intersection(NOT_SERVED)) == []


def test_router_imports_no_numpy():
    loaded = loaded_after("import repro.cli, repro.cluster.runner")
    assert sorted(loaded.intersection(NOT_SERVED + ("numpy",))) == []


def test_version_flag_imports_no_numpy():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--version'])\n"
        "    except SystemExit:\n"
        "        pass"
    )
    assert "numpy" not in loaded
    assert "repro.experiments" not in loaded


#: Drives every served op twice in one service; reports the modules the
#: second round loaded.
_TWO_ROUNDS = """
import asyncio, json, sys
from repro.service.server import MatchingService

async def round_trip(service, name):
    calls = [
        {"op": "create", "session": name, "num_vertices": 32, "beta": 1,
         "epsilon": 0.5, "seed": 3},
        {"op": "batch", "session": name, "updates": [
            ["insert", u, v] for u in range(12) for v in range(u + 1, 12)]},
        {"op": "batch", "session": name, "updates": [
            ["delete", 0, v] for v in range(1, 12)]},
        {"op": "query_matching", "session": name},
        {"op": "stats", "session": name},
        {"op": "cluster_stats"},
        {"op": "snapshot", "session": name},
    ]
    for request in calls:
        response = await service.handle_request(request)
        assert response["ok"], response

async def main():
    service = MatchingService()
    await round_trip(service, "first")
    before = set(sys.modules)
    await round_trip(service, "second")
    await service.close_all()
    return sorted(set(sys.modules) - before)

print(json.dumps(asyncio.run(main())))
"""


def test_second_round_of_served_ops_loads_nothing():
    # Any module imported lazily on the request path would land inside a
    # measured request; after one round of every op there must be none.
    assert run_fresh(_TWO_ROUNDS) == []


#: Drives every served op but ``snapshot`` in one service, then reports
#: the modules its first ``snapshot`` (the process's first graph build)
#: loaded.
_FIRST_SNAPSHOT = """
import asyncio, json, sys
from repro.service.server import MatchingService

async def main():
    service = MatchingService()
    calls = [
        {"op": "create", "session": "s", "num_vertices": 32, "beta": 1,
         "epsilon": 0.5, "seed": 3},
        {"op": "batch", "session": "s", "updates": [
            ["insert", u, v] for u in range(12) for v in range(u + 1, 12)]},
        {"op": "query_matching", "session": "s"},
        {"op": "stats", "session": "s"},
        {"op": "cluster_stats"},
    ]
    for request in calls:
        assert (await service.handle_request(request))["ok"]
    before = set(sys.modules)
    assert (await service.handle_request(
        {"op": "snapshot", "session": "s"}))["ok"]
    await service.close_all()
    return sorted(set(sys.modules) - before)

print(json.dumps(asyncio.run(main())))
"""


def test_first_served_snapshot_loads_nothing():
    # np.unique used to import numpy.ma inside the first snapshot.
    assert run_fresh(_FIRST_SNAPSHOT) == []


#: Allocates a buffer of asyncio's socket-read size inside a service
#: loop; reports how many new memory mappings glibc made for it.
_READ_BUFFER = """
import ctypes, json
from repro.service.transport import _run_service_loop

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes = []
libc.mallinfo2.restype = MallInfo2

async def main():
    before = libc.mallinfo2().hblks
    buffer = bytearray(256 * 1024 + 64)
    return libc.mallinfo2().hblks - before

print(json.dumps(_run_service_loop(main())))
"""


def test_socket_read_buffers_come_from_the_heap():
    # A lean serving process would otherwise map and unmap asyncio's
    # 256 KiB read buffer on every socket read (docs/PERFORMANCE.md).
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc >= 2.33 (mallinfo2)")
    assert run_fresh(_READ_BUFFER) == 0
