"""Host-cost benchmark of the Meterstick reproduction.

    python3 perfbench/run.py --workload farm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload in turn

Runs one workload for ``--seconds`` of wall time as a series of reps; each
rep is a fresh campaign (world build, install, joins, then a fixed number
of simulated seconds).  Metrics are host wall time, except
``response_ms_p50``, the simulated client-measured response time, and the
per-tick host cost in ``tick_host_ms_*`` and ``harness_share_*`` (tick
plus wire flush), the unpaced tick period and the wire's set-up, which
are the server thread's CPU time (see ``harness.TickTimer``,
``harness.FlushTimer`` and ``harness.wire_rep``).  Host times are scaled
to a reference host speed, measured by calibration slices between ticks;
the unscaled values are printed beside them.  Tail metrics
are p95 where at least ten samples lie beyond it on every workload
(the paced wire run has about 460 ticks).  The last line of stdout is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with nothing installed but
the tick timer.  ``--trace 1`` alternates untraced and traced reps and
reports the per-layer metrics of ``layers.PER_LAYER``, plus the tracing
overhead measured between the two.  Spans are written to
``.perfbench_out/`` when the run ends.

Correctness: every in-process rep's simulated record (traced ones too) is
digested and must match the digest ``digests.json`` records for its seed.
On ``wire-players`` every client must connect, see every tick served to
it and get every probe answered.  Either failure makes the command exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: The workloads; BENCHMARK.json says why each is in the benchmark.
WORKLOADS = ("farm", "flood", "exploration-persist", "wire-players")

#: Reps every run makes at least, so set-up time is a median of several.
MIN_REPS = 3

#: Traced runs report no set-up time; two (untraced, traced) rep pairs
#: keep a wire-players traced run near the wall budget.
MIN_TRACED_PAIRS = 2

#: Seeds a rep may simulate.  Rep ``k`` of a run with ``--seed s``
#: simulates pool seed ``(s * POOL_STRIDE + k) % POOL``.  The simulated
#: response time depends on the world and the bots' walks, so a run that
#: pools many seeds varies less from run to run than one that repeats a
#: few; and every pool seed's digest is recorded, so every in-process rep
#: is checked against a recorded digest.
POOL = 30
POOL_STRIDE = 7

#: The simulated tick budget; harness share is host time over it.
TICK_BUDGET_MS = 50.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def conditions() -> dict:
    """The host conditions this run measured under."""
    from repro.reporting.hygiene import hygiene_snapshot
    from repro.tracing.provenance import provenance_fingerprint

    env = provenance_fingerprint()["environment"]
    hygiene = hygiene_snapshot()
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": env["numpy"],
        "git_sha": env["git_sha"],
        "git_dirty": env["git_dirty"],
        "hygiene": hygiene["status"],
        "hygiene_warnings": [
            p["probe"] for p in hygiene["probes"] if p["status"] == "warn"
        ],
    }


def end_to_end_metrics(reps, rss_mb: float, scaled: bool = True) -> dict:
    """Every end-to-end metric: (value, unit, sample count).

    ``scaled`` divides each rep's host times by its ``slowdown``, which
    puts them at the reference host speed (``harness.TickTimer``): CPU
    times always, wall times only where real-time pacing does not set
    them.
    """

    def cpu(rep) -> float:
        return rep.slowdown if scaled else 1.0

    def wall(rep) -> float:
        return 1.0 if rep.paced else cpu(rep)

    host_ms = [s * 1e3 / cpu(rep) for rep in reps for s in rep.tick_host_s]
    share = []
    periods = []
    for rep in reps:
        # In-process there is no wire flush: the share is the tick alone.
        flush_s = rep.flush_cpu_s or [0.0] * len(rep.tick_host_s)
        share.extend(
            (s + f) * 1e3 / cpu(rep) / TICK_BUDGET_MS
            for s, f in zip(rep.tick_host_s, flush_s)
        )
        periods.extend(p * 1e3 / wall(rep) for p in rep.tick_period_s)
    response = [ms for rep in reps for ms in rep.response_ms]
    n = len(reps)
    return {
        # Unpaced set-up is wall time and paced set-up CPU time (see
        # ``harness.wire_rep``): both are the program computing.
        "setup_s": (
            statistics.median(r.setup_s / cpu(r) for r in reps), "s", n
        ),
        "sim_s_per_wall_s": (
            statistics.median(
                r.sim_s / r.ticked_wall_s * wall(r) for r in reps
            ),
            "s/s",
            n,
        ),
        "tick_host_ms_p50": (np.percentile(host_ms, 50), "ms", len(host_ms)),
        "tick_host_ms_p95": (np.percentile(host_ms, 95), "ms", len(host_ms)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "harness_share_p50": (np.percentile(share, 50), "ratio", len(share)),
        "harness_share_p95": (np.percentile(share, 95), "ratio", len(share)),
        "tick_period_ms_p99": (
            np.percentile(periods, 99), "ms", len(periods)
        ),
        "response_ms_p50": (
            np.percentile(response, 50), "ms", len(response)
        ),
    }


def check_digests(workload: str, reps) -> tuple[int, list[str]]:
    """(mismatching reps, notes) for the in-process digest check.

    Every rep must match the digest recorded for its seed; a seed with no
    recorded digest counts as a mismatch.
    """
    recorded = json.loads((HERE / "digests.json").read_text()).get(
        workload, {}
    )
    checked = [rep for rep in reps if rep.digest]
    if not checked:
        return 0, []
    bad = [r for r in checked if r.digest != recorded.get(str(r.seed))]
    notes = [
        f"seed {r.seed}: DIGEST MISMATCH (want "
        f"{recorded.get(str(r.seed))}, got {r.digest})"
        for r in bad
    ]
    notes.append(
        f"digests: {len(checked) - len(bad)}/{len(checked)} reps match "
        "the recorded ones"
    )
    return len(bad), notes


def run(workload: str, seed: int, seconds: float, traced: bool):
    """Reps until the wall budget is spent; (reps, traced reps, trace)."""
    from harness import run_rep
    from layers import LayerTrace

    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    trace = LayerTrace() if traced else None
    reps, traced_reps = [], []
    start = time.perf_counter()
    while True:
        rep_seed = (seed * POOL_STRIDE + len(reps)) % POOL
        # A finished rep's cyclic garbage (its world, server and swarm)
        # would otherwise be collected inside a later rep's timed region
        # and counted in that rep's peak RSS.
        gc.collect()
        rep_start = time.perf_counter()
        reps.append(run_rep(workload, rep_seed, work / f"rep{len(reps)}"))
        if trace is not None:
            gc.collect()
            with trace:
                traced_reps.append(
                    run_rep(workload, rep_seed, work / f"traced{len(reps)}")
                )
        spent = time.perf_counter() - rep_start
        if (
            len(reps) >= (MIN_TRACED_PAIRS if traced else MIN_REPS)
            and time.perf_counter() - start + spent > seconds
        ):
            break
    shutil.rmtree(work, ignore_errors=True)
    return reps, traced_reps, trace


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        # One fresh process per workload, so each reports its own peak RSS.
        return max(
            subprocess.run(
                [
                    sys.executable, __file__,
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ]
            ).returncode
            for workload in WORKLOADS
        )
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness  # noqa: F401  (fails fast without the program)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    cond = conditions()
    print("conditions " + json.dumps(cond, sort_keys=True), flush=True)
    reps, traced_reps, trace = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    bad, notes = check_digests(args.workload, reps + traced_reps)
    attempted = sum(rep.attempted for rep in reps + traced_reps)
    failed = sum(rep.failed for rep in reps + traced_reps) + bad
    response_seen = all(rep.response_ms for rep in reps + traced_reps)
    correct = bad == 0 and failed == 0 and response_seen
    if not response_seen:
        notes.append("a rep recorded no response samples")
    for rep in reps + traced_reps:
        notes.extend(rep.notes)
    if trace is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        table = end_to_end_metrics(reps, rss_mb)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _n) in table.items()
        }
        for name, (value, unit, n) in table.items():
            print(f"{name:24s} {value:14.6f} {unit:6s} n={n}")
        # The same metrics unscaled, at the speed the host ran.
        for name, (value, unit, _n) in end_to_end_metrics(
            reps, rss_mb, scaled=False
        ).items():
            print(f"unscaled {name:24s} {value:14.6f} {unit}")
    else:
        from layers import per_layer_metrics

        untraced = sum(s for rep in reps for s in rep.tick_host_s)
        overhead = (
            sum(s for rep in traced_reps for s in rep.tick_host_s) / untraced
            - 1.0
        )
        metrics = per_layer_metrics(trace, traced_reps, overhead)
        for name, entry in metrics.items():
            print(f"{name:42s} {entry['value']:14.6f} {entry['unit']}")
        trace.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for note in dict.fromkeys(notes):
        print("note " + note)
    slowdowns = [rep.slowdown for rep in reps + traced_reps]
    print(
        f"reps {len(reps)} traced {len(traced_reps)} host slowdown "
        f"median {statistics.median(slowdowns):.4f} "
        f"range {min(slowdowns):.4f}-{max(slowdowns):.4f}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
