"""Record the simulated-record digests that ``run.py`` checks against.

    python3 perfbench/record_digests.py

Runs one rep of every in-process workload per pool seed (``run.POOL``)
and writes the digests to ``perfbench/digests.json``.  Record again only
for a change that is meant to alter simulated output, and say so where
the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import REP_SIM_S, run_rep  # noqa: E402
from run import POOL  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "record"


def main() -> int:
    path = HERE / "digests.json"
    table: dict = {}
    for workload in REP_SIM_S:
        if workload == "wire-players":
            continue  # paced in real time: its record is not deterministic
        for seed in range(POOL):
            rep = run_rep(workload, seed, OUT)
            table.setdefault(workload, {})[str(seed)] = rep.digest
            print(workload, seed, rep.digest, flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
