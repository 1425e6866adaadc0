"""Start a server process with the benchmark's span tracing installed.

Usage (what ``procs.py`` runs for a traced run)::

    python3 perfbench/traced_serve.py --trace-dir DIR serve --port 0 ...

It turns on the observation-free work meter (``REPRO_WORK_AUDIT=1``),
wraps the layers' entry points (:func:`tracing.install`), then hands the
remaining arguments to the program's own CLI, so the server it runs is
the one ``python -m repro.cli serve`` would run.  With ``--shards N`` the
shard workers the supervisor spawns start through this launcher too.
When the server has shut down, its spans go to
``DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    """Install tracing, run ``repro.cli`` with the rest, dump the spans."""
    if len(argv) < 3 or argv[0] != "--trace-dir":
        print("usage: traced_serve.py --trace-dir DIR serve [serve args]",
              file=sys.stderr)
        return 2
    trace_dir, rest = Path(argv[1]), argv[2:]
    os.environ["REPRO_WORK_AUDIT"] = "1"
    import tracing
    from repro.cli import main as cli_main

    recorder = tracing.install(trace_dir, Path(__file__).resolve())
    try:
        return cli_main(rest)
    finally:
        role = "router" if "--shards" in rest else "server"
        recorder.dump(trace_dir / f"spans-{os.getpid()}.json", role)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
