"""The wire load generator: one process, ``--n`` TCP connections.

Run as a subprocess by ``harness.wire_rep``.  It imports everything first
and prints ``ready``, then reads the server's port from stdin and calls
``run_clients`` once.  Connections are closed-loop on the server's tick:
each bot steps once per TICK frame and chat-probes on a one-simulated-
second schedule.  ``--trace-out`` keeps the client's own per-tick spans,
which the harness needs to count each connection's ticks.  The summary is
printed as the last line of stdout, as JSON.

Loading the clients from a process of their own, rather than from threads
in the server's process, keeps their work off the server's interpreter
lock, so the server's flush cost is measured as a real server pays it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net.client import run_clients  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 1
    summary = run_clients(
        "127.0.0.1",
        int(line),
        args.n,
        seed=args.seed,
        trace_out=args.trace_out,
    )
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
