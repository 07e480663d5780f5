"""The experiment runner: Meterstick's measurement loop.

Runs every configured server (system under test) for the configured number
of iterations of one workload in one environment, exactly as the paper's
controller sequences it: boot the server with the workload world, start
logging, connect the player emulation, run for the configured duration,
stop, collect.  Machines persist across iterations of the same server
(the deployment reuses nodes), with an idle gap between iterations during
which burstable credits accrue.
"""

from __future__ import annotations

import shutil
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.cloud.providers import get_environment
from repro.core.collectors import MetricExternalizer, SystemMetricsCollector
from repro.core.config import MeterstickConfig
from repro.core.results import ExperimentResult, IterationResult
from repro.emulation.swarm import BotSwarm
from repro.mlg.server import MLGServer
from repro.simtime import SimClock, s_to_us
from repro.tracing.provenance import measurement_config, provenance_fingerprint
from repro.workloads import get_workload

__all__ = [
    "ExperimentRunner",
    "require_drive",
    "run_iteration",
    "run_server_chain",
]

#: Per-iteration streaming callback for live campaign observability.
IterationFn = Callable[[IterationResult], None]


def run_iteration(
    workload_name: str,
    server_name: str,
    environment_name: str,
    duration_s: float = 60.0,
    seed: int = 0,
    scale: float = 1.0,
    n_bots: int = 25,
    behavior: str = "bounded-random",
    machine=None,
    clock: SimClock | None = None,
    iteration: int = 0,
    retain_raw: bool = True,
    world_dir: str | None = None,
    world_cache_dir: str | None = None,
    autosave_interval_s: float = 45.0,
    autosave_flush_every: int = 6,
    max_loaded_chunks: int | None = None,
    world_seed: int | None = None,
    trace: bool = False,
    trace_sample_every: int = 1,
    slow_tick_factor: float = 3.0,
    drive=None,
) -> IterationResult:
    """Run one iteration and return its measurements.

    ``machine``/``clock`` may be passed in to persist node state across
    iterations; fresh ones are created when omitted.  With
    ``retain_raw=False`` the raw per-tick and per-sample series are
    dropped as they stream through the telemetry layer: the result then
    carries only the O(1) telemetry snapshot (exact counts, moments,
    exceedance fractions, sketched quantiles, and the recent tail).

    The persistence knobs mirror :class:`MeterstickConfig`: ``world_dir``
    enables region-file autosave/reload, ``world_cache_dir`` warm-boots
    missing chunks from a read-only snapshot, ``max_loaded_chunks``
    bounds residency via eviction.  ``world_seed`` decouples the world's
    terrain seed from the iteration seed — a warm-cached campaign pins it
    to the campaign seed so every iteration boots the same world.

    ``drive`` replaces the in-process player swarm and its tick loop —
    the wire path passes :class:`repro.net.serve.WireDrive`.  A drive
    offers ``fleet`` (the install target for the workload's player
    requests) and ``run(server, server_name, iteration, duration_s,
    on_tick)``, which ticks the started server for ``duration_s``
    simulated seconds, calls ``on_tick`` after every tick, and returns
    the response samples plus the ``wire`` telemetry section.
    """
    env = get_environment(environment_name)
    if machine is None:
        machine = env.create_machine(seed=seed)
    if clock is None:
        clock = SimClock()

    workload_kwargs = {}
    if workload_name.lower() == "players":
        workload_kwargs["n_bots"] = n_bots
        workload_kwargs["behavior"] = behavior
    workload = get_workload(workload_name, scale=scale, **workload_kwargs)
    world = workload.create_world(
        seed if world_seed is None else world_seed
    )
    server = MLGServer(
        server_name,
        machine,
        world=world,
        clock=clock,
        seed=seed,
        retain_raw=retain_raw,
        world_dir=world_dir,
        world_cache_dir=world_cache_dir,
        autosave_interval_s=autosave_interval_s,
        autosave_flush_every=autosave_flush_every,
        max_loaded_chunks=max_loaded_chunks,
        trace=trace,
        trace_sample_every=trace_sample_every,
        slow_tick_factor=slow_tick_factor,
    )
    if drive is None:
        rng = np.random.default_rng(seed ^ 0x5EED)
        fleet = BotSwarm(server, env.network, rng)
    else:
        fleet = drive.fleet
    workload.install(server, fleet)
    # With persistence in play, fingerprint the post-install world: warm
    # and cold boots of the same world seed must agree bit-for-bit.  The
    # hash covers the connect-time view: every workload connects at
    # least one zero-delay player inside ``install``, whose view load is
    # exactly the chunk set a warm boot serves from disk.
    initial_world_hash = None
    if server.lifecycle is not None:
        from repro.persistence.store import world_hash

        initial_world_hash = f"{world_hash(world):08x}"

    externalizer = MetricExternalizer(server)
    system = SystemMetricsCollector(server)

    server.start()
    wire = None
    if drive is None:
        deadline = clock.now_us + s_to_us(duration_s)
        while clock.now_us < deadline and server.running:
            server.tick()
            fleet.step()
            system.maybe_sample()
            if server.crashed:
                break
        server.running = False
        # Bots streamed every probe through the tap as it completed; the
        # raw per-bot lists exist only when the server retained them.
        response_times = fleet.response_times_ms()
    else:
        response_times, wire = drive.run(
            server,
            server_name,
            iteration=iteration,
            duration_s=duration_s,
            on_tick=system.maybe_sample,
        )

    stats = server.net.stats
    n_share, b_share = stats.entity_share()
    telemetry = {
        "tick": server.telemetry.snapshot(include_tails=True),
        "system": system.snapshot(),
        "response_ms": server.telemetry.response_ms.snapshot(
            include_tail=False
        ),
    }
    if wire is not None:
        telemetry["wire"] = wire
    if server.lifecycle is not None:
        telemetry["world"] = {
            "initial_hash": initial_world_hash,
            **server.lifecycle.stats(),
        }
    if server.tracer.enabled:
        # Span dumps use simulated time only, so the trace snapshot is
        # as deterministic as the run itself.
        telemetry["trace"] = server.tracer.snapshot()
    return IterationResult(
        server=server_name,
        workload=workload_name,
        environment=environment_name,
        iteration=iteration,
        seed=seed,
        duration_s=duration_s,
        tick_durations_ms=externalizer.tick_durations_ms() if retain_raw else [],
        response_times_ms=response_times,
        tick_distribution=externalizer.tick_distribution().shares,
        packet_counts=dict(stats.counts),
        packet_bytes=dict(stats.bytes_),
        entity_message_share=n_share,
        entity_byte_share=b_share,
        system_summary=system.summary(),
        crashed=server.crashed,
        crash_reason=server.crash_reason,
        throttled_ticks=machine.throttled_executions,
        final_credits_s=machine.credits_s,
        scale=scale,
        n_bots=n_bots,
        behavior=behavior,
        telemetry=telemetry,
    )


def require_drive(config: MeterstickConfig, drive) -> None:
    """Refuse a ``transport: tcp`` config without the wire drive.

    In-process bots would measure such a cell while its fingerprint
    says it was served over sockets.
    """
    if config.transport == "tcp" and drive is None:
        raise ValueError(
            "this cell has transport: tcp, so its players must arrive "
            "over sockets: serve it with 'repro serve <spec> --cell N' "
            "(and 'repro clients'), not in-process"
        )


def run_server_chain(
    config: MeterstickConfig,
    server_name: str,
    on_iteration: IterationFn | None = None,
    drive=None,
) -> list[IterationResult]:
    """Run every iteration of one server on one persistent machine.

    Iterations of a server chain share a machine and clock (the deployment
    reuses nodes), so they must stay ordered; distinct chains are
    independent and may run concurrently — this is the unit of work the
    campaign executor distributes across processes.

    ``on_iteration`` is called with each :class:`IterationResult` as soon
    as it finishes — the hook the campaign executor uses to stream
    per-iteration telemetry to disk while the chain is still running.
    ``drive`` is handed to every :func:`run_iteration`; a ``tcp`` config
    requires one.
    """
    require_drive(config, drive)
    env = get_environment(config.environment)
    machine = env.create_machine(seed=config.iteration_seed(server_name, -1))
    if config.warm_machines:
        machine.drain_credits()
    clock = SimClock()
    # One provenance fingerprint per chain, attached to every iteration.
    # Deliberately timestamp-free and stripped of storage paths: shards
    # must stay byte-identical across serial/parallel runs and across
    # output directories (only the measurement conditions are stamped).
    provenance = provenance_fingerprint(
        measurement_config(config.to_dict()), extra={"server": server_name}
    )
    iterations: list[IterationResult] = []
    for iteration in range(config.iterations):
        seed = config.iteration_seed(server_name, iteration)
        # Live world directories are per (server, iteration): iterations
        # must not inherit each other's terrain mutations, and parallel
        # chains must not interleave region writes.  A leftover directory
        # from a killed attempt of this same iteration is wiped, so a
        # resumed job never boots from partially-simulated terrain.
        # (Direct `run_iteration(world_dir=...)` calls keep the opposite
        # behaviour on purpose: an existing world directory is a feature
        # — booting from a saved world.)
        world_dir = None
        if config.world_dir is not None:
            iteration_dir = (
                Path(config.world_dir) / server_name / f"iter{iteration:03d}"
            )
            if iteration_dir.exists():
                shutil.rmtree(iteration_dir)
            world_dir = str(iteration_dir)
        # Machine throttle counts are cumulative across the chain; bracket
        # the iteration to attribute only its own throttled executions.
        throttled_before = machine.throttled_executions
        iteration_result = run_iteration(
            workload_name=config.world,
            server_name=server_name,
            environment_name=config.environment,
            duration_s=config.duration_s,
            seed=seed,
            scale=config.scale,
            n_bots=config.number_of_bots,
            behavior=config.behavior,
            machine=machine,
            clock=clock,
            iteration=iteration,
            retain_raw=config.retain_raw,
            world_dir=world_dir,
            world_cache_dir=config.world_cache_dir,
            autosave_interval_s=config.autosave_interval_s,
            autosave_flush_every=config.autosave_flush_every,
            max_loaded_chunks=config.max_loaded_chunks,
            # A warm cache pins the terrain seed to the campaign seed so
            # every iteration/server boots the identical on-disk world.
            world_seed=(
                config.seed if config.world_cache_dir is not None else None
            ),
            trace=config.trace,
            trace_sample_every=config.trace_sample_every,
            slow_tick_factor=config.slow_tick_factor,
            drive=drive,
        )
        iteration_result.throttled_ticks = (
            machine.throttled_executions - throttled_before
        )
        iteration_result.provenance = dict(provenance)
        iterations.append(iteration_result)
        if on_iteration is not None:
            on_iteration(iteration_result)
        # Teardown/setup gap: the node idles, credits accrue.
        clock.advance(s_to_us(config.inter_iteration_gap_s))
    return iterations


class ExperimentRunner:
    """Executes a full :class:`MeterstickConfig` campaign."""

    def __init__(self, config: MeterstickConfig) -> None:
        self.config = config

    def run(self) -> ExperimentResult:
        """Run all servers × iterations; returns the collected results."""
        config = self.config
        result = ExperimentResult(config=config.to_dict())
        for server_name in config.servers:
            result.iterations.extend(run_server_chain(config, server_name))
        return result
