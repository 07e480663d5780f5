"""One repetition of a benchmark workload, driven through public entry points.

A repetition ("rep") builds a fresh campaign spec, runs it, and returns what
the end-to-end metrics need: set-up time, per-tick host wall times, the
ticked phase's simulated and wall duration, response samples, and a digest
of the simulated record.  In-process workloads go through
``CampaignExecutor(jobs=1)``; ``wire-players`` goes through ``serve_cell``
with one client subprocess running ``run_clients``.

The only instrument an untraced rep installs in the server's process is
:class:`TickTimer`, a pair of ``perf_counter`` and ``thread_time`` reads
around ``MLGServer.tick`` and a calibration slice between ticks (plus, on
the wire, the same CPU-time pair around ``WireServer._flush`` and a bus
subscription that copies each tick's ``wire_flush_us``/``wire_bytes_out``
value).  The wire
client process always keeps its own per-tick spans
(``run_clients(trace_out=)``): they are how each connection's ticks are
counted.  Per-layer spans live in ``layers.py`` and are installed only for
traced reps.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.mlg.server import MLGServer
from repro.net.serve import serve_cell
from repro.net.server import WireServer

HERE = Path(__file__).resolve().parent

#: Simulated seconds per rep.  Fixed per workload (never derived from the
#: wall budget) so a seed's simulated record, and so its digest, is the
#: same in every run.
REP_SIM_S = {
    "farm": 30.0,
    "flood": 30.0,
    "exploration-persist": 60.0,
    "wire-players": 6.0,
}

#: Loaded-chunk cap for exploration-persist, below the four scouts'
#: working set of about 340 chunks, so chunks are saved, evicted and
#: reloaded throughout the rep.
EXPLORATION_MAX_LOADED_CHUNKS = 200

#: Client connections opened by the one client subprocess on the wire.
WIRE_CLIENTS = 2

#: Seconds a client subprocess may take to start or to finish.
CLIENT_TIMEOUT_S = 60.0

#: Wall seconds of ticking between two calibration slices.
SLICE_EVERY_S = 0.02

#: CPU seconds one :func:`calibration_slice` takes at the reference host
#: speed (its typical time on the 2-vCPU Xeon guest the bounds were set
#: on).  Host-time metrics are scaled to this speed.
REFERENCE_SLICE_S = 0.6e-3

#: Side of the grid the calibration slice searches.
_SLICE_GRID = 15


def calibration_slice() -> None:
    """A fixed piece of interpreter work: A* across a walled grid.

    Dict, set, tuple and heap operations, like the simulation's own hot
    loops.  It lives here, not in the program, so no change to the
    program changes it: its CPU time measures the host's speed at the
    moment it runs.
    """
    side = _SLICE_GRID - 1
    goal = (side, side)
    frontier = [(0, (0, 0))]
    cost = {(0, 0): 0}
    done = set()
    while frontier:
        _, cell = heapq.heappop(frontier)
        if cell == goal:
            return
        if cell in done:
            continue
        done.add(cell)
        x, y = cell
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx <= side and 0 <= ny <= side and (nx * 7 + ny * 13) % 11:
                step = cost[cell] + 1
                if step < cost.get((nx, ny), step + 1):
                    cost[(nx, ny)] = step
                    heuristic = 2 * side - nx - ny
                    heapq.heappush(frontier, (step + heuristic, (nx, ny)))
    raise AssertionError("the calibration grid has no path")


@dataclass
class Rep:
    """Everything one repetition measured."""

    #: Wall seconds from the rep's start to its first measured tick; on the
    #: paced wire, the server thread's CPU seconds.
    setup_s: float
    #: Per-tick CPU time of the server thread, and the time from each
    #: tick's start to the next one's, calibration excluded (wall time
    #: when paced, the thread's CPU time otherwise).
    tick_host_s: list[float]
    tick_period_s: list[float]
    sim_s: float
    ticked_wall_s: float
    response_ms: list[float]
    digest: str | None
    #: Mean calibration-slice CPU time over the reference: how much slower
    #: than the reference speed the host ran during this rep.
    slowdown: float = 1.0
    #: Ticks paced in real time (the wire): wall times are set by the
    #: pacing, so only CPU times (set-up included) are scaled by
    #: ``slowdown``.
    paced: bool = False
    seed: int = 0
    attempted: int = 1
    failed: int = 0
    #: Per-tick wire flush wall time (µs, the server's own figure), CPU
    #: time (s) and bytes out; empty in-process.
    flush_us: list[float] = field(default_factory=list)
    flush_cpu_s: list[float] = field(default_factory=list)
    bytes_out: list[float] = field(default_factory=list)
    #: Lifecycle counters of the iteration (empty without persistence).
    world: dict = field(default_factory=dict)
    #: Campaign-trace ``externalize_s`` (in-process only).
    externalize_s: float = 0.0
    #: Client span records (wire only): one dict per (client, tick).
    client_spans: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class TickTimer:
    """Times every ``MLGServer.tick`` call while the context is open.

    Each tick's host cost is the CPU time the server thread spent in it.
    Its wall time also counts the time the thread was descheduled (by the
    hypervisor or another process): on a shared 2-vCPU VM that made the
    tail of the paced wire run a measure of the neighbours (wall p95
    6.4-10 ms against CPU p95 3.8-5.2 ms over eight ``wire-players``
    reps, with no voluntary context switch in any tick).  Wall-clock tick
    starts and ends are kept for the ticked phase and the paced tick
    period; the thread's CPU clock at each tick start gives the unpaced
    one, whose p99 the neighbours moved too (farm 7.9-9.3 ms in eight
    runs, 13.9-14.4 ms in the two before them, with every other metric
    steady).

    The host's speed itself drifts on such a VM (the same rep of
    ``exploration-persist`` ran 11.6 to 17.3 simulated seconds per wall
    second, minutes apart, with CPU time tracking wall time).  So after a
    tick, once every ``SLICE_EVERY_S`` of wall time, the timer runs a
    :func:`calibration_slice` twice, with the garbage collector paused:
    once to warm the caches the tick left cold, once timed.  The slices'
    mean CPU time over ``REFERENCE_SLICE_S`` is the rep's ``slowdown``.
    Over sixteen ``exploration-persist`` reps of one seed it ranged 0.78
    to 1.06 and tracked the ticks' summed CPU time with r = 0.97;
    dividing by it cut the spread (standard deviation over mean) of that
    sum from 10.7% to 2.7%, of the tick p50 from 12.7% to 3.8% and of
    the p95 from 9.4% to 5.8%.  Each calibration's wall and CPU time are
    kept per tick, so the ticked phase and the tick periods leave it out.

    ``on_first(server)`` runs once, before the first tick, for
    instruments that need the server object (the wire bus subscription).
    """

    def __init__(self, on_first=None) -> None:
        self.on_first = on_first
        self.server = None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.hosts: list[float] = []
        self.records: list = []
        #: Connected clients at each tick's start.
        self.clients: list[int] = []
        #: Thread CPU clock at each tick's start.
        self.cpu_starts: list[float] = []
        #: Per tick, wall and CPU seconds of calibration run after it.
        self.pauses: list[float] = []
        self.pause_cpu: list[float] = []
        #: CPU seconds of each timed calibration slice.
        self.slices: list[float] = []
        self.last_slice = float("-inf")
        self._original = None

    def __enter__(self) -> "TickTimer":
        original = self._original = MLGServer.tick
        timer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time

        def tick(server):
            if timer.server is None:
                timer.server = server
                if timer.on_first is not None:
                    timer.on_first(server)
            timer.clients.append(server.net.connected_count)
            start = clock()
            cpu_start = cpu_clock()
            record = original(server)
            timer.hosts.append(cpu_clock() - cpu_start)
            timer.ends.append(clock())
            timer.starts.append(start)
            timer.cpu_starts.append(cpu_start)
            timer.records.append(record)
            pause = pause_cpu = 0.0
            if timer.ends[-1] - timer.last_slice >= SLICE_EVERY_S:
                pause, pause_cpu = timer.calibrate()
            timer.pauses.append(pause)
            timer.pause_cpu.append(pause_cpu)
            return record

        MLGServer.tick = tick
        return self

    def __exit__(self, *exc) -> None:
        MLGServer.tick = self._original

    def calibrate(self) -> tuple[float, float]:
        """Run one warm-up and one timed slice; (wall s, CPU s) of both."""
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        cpu_start = time.thread_time()
        calibration_slice()
        timed_start = time.thread_time()
        calibration_slice()
        cpu_end = time.thread_time()
        self.slices.append(cpu_end - timed_start)
        self.last_slice = time.perf_counter()
        if collecting:
            gc.enable()
        return self.last_slice - start, cpu_end - cpu_start

    def slowdown(self) -> float:
        if not self.slices:
            raise RuntimeError("no calibration slice ran")
        mean = sum(self.slices) / len(self.slices)
        return mean / REFERENCE_SLICE_S


class FlushTimer:
    """Times every ``WireServer._flush`` in CPU time of the server thread.

    The server's own ``wire_flush_us`` is wall time; like a tick's, its
    tail on a shared VM follows the neighbours (flush p99 1.6-4.2 ms wall
    against 0.9-1.7 ms CPU over eight reps).
    """

    def __init__(self) -> None:
        self.cpu: list[float] = []
        self._original = None

    def __enter__(self) -> "FlushTimer":
        original = self._original = WireServer._flush
        cpu = self.cpu

        async def flush(wire):
            start = time.thread_time()
            await original(wire)
            cpu.append(time.thread_time() - start)

        WireServer._flush = flush
        return self

    def __exit__(self, *exc) -> None:
        WireServer._flush = self._original


def simulated_digest(records, iteration, world: dict) -> str:
    """sha256 over the simulated record of one iteration.

    Covers tick count, sums of ``work_us``/``duration_us``/``breakdown_us``
    (summed in tick order, so the float sums are exact repeats), packet
    counts and bytes, and the chunk-lifecycle counters.
    """
    breakdown: dict[str, float] = {}
    work_us = 0.0
    duration_us = 0
    for record in records:
        work_us += record.work_us
        duration_us += record.duration_us
        for bucket, cost in record.breakdown_us.items():
            breakdown[bucket] = breakdown.get(bucket, 0.0) + cost
    payload = {
        "ticks": len(records),
        "work_us": work_us,
        "duration_us": duration_us,
        "breakdown_us": breakdown,
        "packet_counts": iteration.packet_counts,
        "packet_bytes": iteration.packet_bytes,
        "world": world,
        "crashed": iteration.crashed,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _spec(
    workload: str, duration_s: float, seed: int, out_dir: Path, **extra
) -> dict:
    return {
        "name": f"perfbench-{workload}",
        "servers": ["vanilla"],
        "workloads": [workload],
        "environments": ["das5-2core"],
        "iterations": 1,
        "duration_s": duration_s,
        "seed": seed,
        "output_dir": str(out_dir),
        **extra,
    }


def _ticked(
    timer: TickTimer, rep_start: float, first_tick: int = 0, paced=False
) -> tuple[float, float, float]:
    """(set-up s, ticked-phase wall s, simulated s) from a timer, with the
    ticked phase starting at tick ``first_tick``.  Unpaced, the ticked
    phase leaves out the calibration; paced, the loop's sleeps absorb it.
    """
    if len(timer.starts) <= first_tick:
        raise RuntimeError("the server never reached its ticked phase")
    setup_s = timer.starts[first_tick] - rep_start
    wall_s = timer.ends[-1] - timer.starts[first_tick]
    if not paced:
        wall_s -= sum(timer.pauses[first_tick:-1])
    # From the tick records, not the clock: the chain advances the clock
    # by the inter-iteration gap after the last tick.
    first, last = timer.records[first_tick], timer.records[-1]
    end_us = last.start_us + last.duration_us + last.wait_us
    sim_s = (end_us - first.start_us) / 1e6
    return setup_s, wall_s, sim_s


def _periods(timer: TickTimer, first_tick: int, paced: bool) -> list[float]:
    """Seconds between consecutive tick starts from ``first_tick``.

    Paced, wall seconds: the pacing sets them, and the loop's sleep
    absorbs the calibration.  Unpaced, the server thread's CPU seconds,
    with the calibration after each tick taken out.
    """
    if paced:
        starts = timer.starts[first_tick:]
        return [b - a for a, b in zip(starts, starts[1:])]
    starts = timer.cpu_starts[first_tick:]
    pauses = timer.pause_cpu[first_tick:]
    return [
        b - a - pause for a, b, pause in zip(starts, starts[1:], pauses)
    ]


def inproc_rep(workload: str, seed: int, out_dir: Path) -> Rep:
    """One campaign-executor run of an in-process workload."""
    extra = {}
    name = workload
    if workload == "exploration-persist":
        name = "exploration"
        extra = {
            "world_dir": str(out_dir / "world"),
            "max_loaded_chunks": EXPLORATION_MAX_LOADED_CHUNKS,
        }
    spec = CampaignSpec.from_dict(
        _spec(name, REP_SIM_S[workload], seed, out_dir, **extra)
    )
    with TickTimer() as timer:
        rep_start = time.perf_counter()
        result = CampaignExecutor(spec, jobs=1).run()
    setup_s, wall_s, sim_s = _ticked(timer, rep_start)
    (iteration,) = result.iterations
    world = (iteration.telemetry or {}).get("world") or {}
    trace = JobStore(out_dir).read_campaign_trace() or {}
    return Rep(
        setup_s=setup_s,
        tick_host_s=timer.hosts,
        tick_period_s=_periods(timer, 0, paced=False),
        sim_s=sim_s,
        ticked_wall_s=wall_s,
        response_ms=list(iteration.response_times_ms),
        digest=simulated_digest(timer.records, iteration, world),
        slowdown=timer.slowdown(),
        world=world,
        externalize_s=trace.get("phases", {}).get("externalize_s", 0.0),
    )


def _client_accounting(spans: list[dict], served: int) -> tuple[int, int, int]:
    """(connected, ticks expected, ticks lost) over the client spans.

    A client owes every tick flushed from the first one it saw to the
    last one the server served; a gap in its tick indices is a lost tick.
    """
    by_client: dict[int, set[int]] = {}
    for span in spans:
        by_client.setdefault(span["client"], set()).add(span["tick"])
    expected = lost = 0
    for ticks in by_client.values():
        owed = served - min(ticks)
        expected += owed
        lost += owed - len(ticks)
    return len(by_client), expected, lost


def wire_rep(seed: int, out_dir: Path) -> Rep:
    """One ``serve_cell`` run with a client subprocess of two connections.

    The client process is started and imported before the clock starts,
    then told the port once the socket is bound, so the joins land in the
    first ticks and the client's start-up is not counted as set-up.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(
        json.dumps(
            _spec(
                "players",
                REP_SIM_S["wire-players"],
                seed,
                out_dir / "campaign",
                transport="tcp",
                bot_counts=[WIRE_CLIENTS],
            )
        )
    )
    spans_path = out_dir / "clientspans.jsonl"
    client = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "clients.py"),
            "--n", str(WIRE_CLIENTS),
            "--seed", str(seed),
            "--trace-out", str(spans_path),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    flush_us: list[float] = []
    bytes_out: list[float] = []

    def subscribe(server) -> None:
        bus = server.telemetry.bus
        bus.subscribe(lambda _n, v: flush_us.append(v), "wire_flush_us")
        bus.subscribe(lambda _n, v: bytes_out.append(v), "wire_bytes_out")

    def on_listen(port: int) -> None:
        client.stdin.write(f"{port}\n")
        client.stdin.flush()

    try:
        if client.stdout.readline().strip() != "ready":
            raise RuntimeError("client subprocess failed to start")
        with TickTimer(on_first=subscribe) as timer, FlushTimer() as flushes:
            rep_start = time.perf_counter()
            rep_cpu_start = time.thread_time()
            summary = serve_cell(spec_path, on_listen=on_listen)
        out, _ = client.communicate(timeout=CLIENT_TIMEOUT_S)
    finally:
        if client.poll() is None:
            client.kill()
        client.wait()
    if client.returncode != 0:
        raise RuntimeError(f"client subprocess exited {client.returncode}")
    clients = json.loads(out.strip().splitlines()[-1])
    # Players join over TCP after the server starts ticking; set-up runs
    # until the first tick with every client joined, as it does in-process
    # (where install connects the players before the first tick).  It is
    # the server thread's CPU time, calibration excluded, as the ticks'
    # cost is: the joins are handled between paced ticks, and the wall
    # time around them also counts the pacing sleeps and the time the
    # thread was descheduled (wire-players set-up medians of 0.61 to
    # 0.81 s wall across five sets of runs, while each in-process
    # workload's stayed within 11% of each other).
    steady = next(
        (i for i, n in enumerate(timer.clients) if n >= WIRE_CLIENTS), 0
    )
    _, wall_s, sim_s = _ticked(timer, rep_start, steady, paced=True)
    setup_s = (
        timer.cpu_starts[steady]
        - rep_cpu_start
        - sum(timer.pause_cpu[:steady])
    )
    (iteration,) = JobStore(out_dir / "campaign").load_job(summary["job_id"])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    served = len(timer.hosts)
    connected, ticks_expected, ticks_lost = _client_accounting(spans, served)
    chat = timer.server.chat
    probes_sent = chat.messages_total + chat.pending_count()
    probes_answered = clients["samples"]
    # A probe sent in the last ticks is still in flight when the server
    # closes the iteration; probes are a simulated second apart, so each
    # connection has at most one.
    probes_lost = max(0, probes_sent - probes_answered - connected)
    failed = (WIRE_CLIENTS - connected) + ticks_lost + probes_lost
    if iteration.crashed:
        failed += 1
    return Rep(
        setup_s=setup_s,
        tick_host_s=timer.hosts[steady:],
        tick_period_s=_periods(timer, steady, paced=True),
        sim_s=sim_s,
        ticked_wall_s=wall_s,
        response_ms=list(iteration.response_times_ms),
        digest=None,
        slowdown=timer.slowdown(),
        paced=True,
        attempted=WIRE_CLIENTS + ticks_expected + probes_sent,
        failed=failed,
        flush_us=flush_us[steady:],
        flush_cpu_s=flushes.cpu[steady:],
        bytes_out=bytes_out[steady:],
        client_spans=spans,
        notes=[
            f"clients {connected}/{WIRE_CLIENTS} connected, "
            f"ticks {ticks_expected - ticks_lost}/{ticks_expected} seen, "
            f"probes {probes_answered}/{probes_sent} answered"
        ],
    )


def run_rep(workload: str, seed: int, out_dir: Path) -> Rep:
    """Run one rep in a fresh directory and remove the directory after."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    try:
        if workload == "wire-players":
            rep = wire_rep(seed, out_dir)
        else:
            rep = inproc_rep(workload, seed, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rep.seed = seed
    return rep
