"""Starting and stopping the system under test as separate processes.

The server (``repro-experiments serve``) or the cluster (``serve
--shards N``: a router process plus N shard worker processes) always
runs in processes of its own, never in a thread of the load generator,
so the two never share an interpreter lock.  A traced run starts the
same commands through :mod:`traced_serve`, which installs the span
wrappers before handing over to the same CLI entry point.
"""

from __future__ import annotations

import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

_ANNOUNCE_RE = re.compile(r"listening on (?P<host>[0-9.]+):(?P<port>\d+)")
_HERE = Path(__file__).resolve().parent


#: A busy loop at the lowest scheduling class: it runs only when its CPU
#: would otherwise be idle, and any runnable task preempts it at once.
#: It ends by itself if the benchmark process dies without stopping it.
_IDLE_SPIN = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
parent = int(sys.argv[2])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


class IdleSpinners:
    """Keep every CPU awake for the duration of a run.

    On a virtual machine a vCPU that goes idle is descheduled by the
    hypervisor, and waking it for the next packet or timer takes from
    tens of microseconds to several milliseconds, depending on what the
    rest of the host is doing.  That jitter dwarfs a sub-millisecond
    request and changes from run to run.  One ``SCHED_IDLE`` busy loop
    per CPU keeps the vCPUs from idling without taking time from the
    server or the load generator (the same effect as ``idle=poll`` on
    bare metal).
    """

    def __enter__(self) -> "IdleSpinners":
        """Start one spinner per CPU this process may run on."""
        self.processes = [
            subprocess.Popen([sys.executable, "-c", _IDLE_SPIN, str(cpu),
                              str(os.getpid())])
            for cpu in sorted(os.sched_getaffinity(0))]
        return self

    def __exit__(self, *exc: object) -> None:
        """Stop the spinners and wait for them."""
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()


#: Start servers with address-space randomisation off (inherited by the
#: shard workers).  With it on, each server process draws a memory
#: layout, and the same request ran at one of two speeds (e.g. 2.0 or
#: 3.6 ms for a ``cluster_stats``) depending on the draw.
_FIXED_LAYOUT = (["setarch", platform.machine(), "--addr-no-randomize"]
                 if shutil.which("setarch") else [])


class ServerProcess:
    """One ``serve`` process (single server or cluster router)."""

    def __init__(self, root: Path, journal_dir: Path, shards: int | None,
                 trace_dir: Path | None, cpus: set | None = None) -> None:
        """Spawn the process (on ``cpus`` when given; its children
        inherit them); :meth:`wait_ready` parses its address."""
        if trace_dir is None:
            head = [sys.executable, "-m", "repro.cli"]
        else:
            head = [sys.executable, str(_HERE / "traced_serve.py"),
                    "--trace-dir", str(trace_dir)]
        command = _FIXED_LAYOUT + head + ["serve", "--port", "0",
                                          "--journal-dir", str(journal_dir)]
        if shards is not None:
            command += ["--shards", str(shards)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        if cpus is not None:
            os.sched_setaffinity(self.process.pid, cpus)
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the process announces its listening port."""
        deadline = time.perf_counter() + timeout
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} "
                    "before announcing its port")
            ready, _, _ = select.select([stdout], [], [], 0.05)
            if ready:
                match = _ANNOUNCE_RE.search(stdout.readline())
                if match:
                    self.host = match.group("host")
                    self.port = int(match.group("port"))
                    return
        raise RuntimeError("server never announced its port")

    def pids(self) -> list[int]:
        """This process and its direct children (the shard workers)."""
        pid = self.process.pid
        try:
            children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        except OSError:
            children = ""
        return [pid] + [int(c) for c in children.split()]

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server processes, in MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain, journals flushed), wait, return code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        return code
