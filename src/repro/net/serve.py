"""``repro serve``: run one planned campaign job with the tcp drive.

Serving a cell is running one planned job exactly as the executor does —
same plan, manifest, provenance, hygiene and warm world cache
(:func:`~repro.campaign.executor.prepare_campaign`), the same
:func:`~repro.campaign.executor.execute_job` chain, sidecars and shard —
except that :class:`WireDrive` replaces the in-process player swarm.  The
drive puts each iteration's server behind a
:class:`~repro.net.server.WireServer`; players arrive over real sockets
(``repro clients``).  ``repro report`` and ``repro status`` therefore
work on wire-served campaigns unchanged, and the sidecars additionally
carry the ``wire_*`` metrics (bytes in/out, flush wall time, connects)
that only exist when real sockets are involved.

The drive lives here, not in :mod:`repro.core`, because it reads the
wall clock: it paces ticks against real time.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from repro.campaign.executor import execute_job, prepare_campaign
from repro.campaign.planner import JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.net.server import WireServer, wire_metrics_snapshot

__all__ = ["WireDrive", "serve_cell"]


class _ExternalFleet:
    """The swarm-shaped null object handed to ``workload.install``.

    Workloads populate their player emulation through the swarm API; on
    the wire path every player comes over a socket instead, so install's
    bot requests are deliberately dropped — the workload still shapes the
    world and server, only the emulation moves out of process.
    """

    def add_bot(self, *args, **kwargs) -> None:
        pass

    def add_observer(self, *args, **kwargs) -> None:
        pass

    def add_player_workload(self, *args, **kwargs) -> None:
        pass


class WireDrive:
    """The tcp drive :func:`~repro.core.experiment.run_iteration` runs in
    place of its swarm loop, for every iteration of one chain.

    Each iteration is one paced :class:`WireServer` loop under its own
    ``asyncio.run``.  The port comes from ``port``, else the config's
    ``wire_port`` (0 = OS-assigned); whichever port the first iteration
    binds is kept for the rest of the chain so clients can reconnect
    between iterations.  ``on_listen(port)`` fires once per iteration
    after the socket is bound.
    """

    fleet = _ExternalFleet()

    def __init__(
        self,
        config,
        host: str = "127.0.0.1",
        port: int | None = None,
        realtime: bool = True,
        on_listen=None,
    ) -> None:
        self.host = host
        self.port = config.wire_port if port is None else port
        self.batch_flush = config.wire_batch_flush
        self.realtime = realtime
        self.on_listen = on_listen
        #: The iteration being served, for the live obs snapshot.
        self.server = None
        self.iteration: int | None = None

    def run(
        self, server, server_name: str, iteration: int, duration_s: float,
        on_tick,
    ) -> tuple[list[float], dict]:
        """Serve one started iteration; (response samples, wire section)."""
        self.server = server
        self.iteration = iteration
        return asyncio.run(
            self._serve(server, server_name, iteration, duration_s, on_tick)
        )

    async def _serve(
        self, server, server_name, iteration, duration_s, on_tick
    ) -> tuple[list[float], dict]:
        wire = WireServer(
            server,
            host=self.host,
            port=self.port,
            batch_flush=self.batch_flush,
            realtime=self.realtime,
            on_tick=on_tick,
        )
        await wire.start()
        self.port = wire.port
        print(
            f"serving {server_name} iteration {iteration} "
            f"on {wire.host}:{wire.port}",
            flush=True,
        )
        if self.on_listen is not None:
            self.on_listen(wire.port)
        try:
            await wire.run(duration_s)
        finally:
            server.running = False
            await wire.close()
        return list(wire.response_samples), wire_metrics_snapshot(server)


def serve_cell(
    spec_path: str | Path,
    cell: int = 0,
    host: str = "127.0.0.1",
    port: int | None = None,
    realtime: bool = True,
    on_listen=None,
    on_obs=None,
) -> dict:
    """Serve one planned cell of ``spec_path`` over TCP; returns a summary.

    ``cell`` indexes the planned job list (``repro plan`` order).  The
    chain runs in the calling thread; ``port`` and ``on_listen`` are
    :class:`WireDrive`'s — scripts and tests use ``on_listen`` to start
    their client fleet at the right moment.  With the spec's ``obs`` knob
    on, one metrics endpoint serves the whole chain (``on_obs(url)``
    fires once, before the first iteration binds).
    """
    spec = CampaignSpec.from_file(spec_path)
    planner = JobPlanner(spec)
    plan = planner.plan()
    if not 0 <= cell < len(plan):
        raise ValueError(
            f"cell {cell} out of range: spec plans {len(plan)} job(s)"
        )
    job = plan[cell]
    config = planner.job_config(job)
    store = JobStore(spec.output_dir)
    if store.shard_path(job.job_id).exists():
        raise FileExistsError(
            f"{store.shard_path(job.job_id)} already holds this cell's "
            "measurements; choose a fresh output_dir"
        )
    # The full planned job list goes into the manifest: other cells of
    # the same spec may be served later into the same store.
    prepare_campaign(spec, store, plan)
    drive = WireDrive(config, host, port, realtime, on_listen)
    obs = None
    if config.obs:
        from repro.obs import ObsHttpServer

        obs = ObsHttpServer(
            lambda: _live_obs_snapshot(job, drive),
            host=host,
            port=config.obs_port,
            scrape_grace_s=config.obs_scrape_grace,
        ).start()
        print(f"obs endpoint {obs.url}", flush=True)
        if on_obs is not None:
            on_obs(obs.url)
    try:
        _, iterations, _ = execute_job(
            {
                "spec": spec.to_dict(),
                "job": job.to_dict(),
                "telemetry_dir": str(store.telemetry_dir),
            },
            drive=drive,
        )
    finally:
        if obs is not None:
            obs.stop()
    store.save_job_payload(job, iterations)
    return {
        "job_id": job.job_id,
        "cell": job.cell.key(),
        "iterations": len(iterations),
        "crashed": any(it["crashed"] for it in iterations),
        "shard": str(store.shard_path(job.job_id)),
    }


def _live_obs_snapshot(job, drive: WireDrive):
    """One scrape of the currently-running iteration's accumulators.

    Builds the same sidecar-shaped telemetry mapping the executor's
    sidecars carry, from the *live* tap/wire/tracer state — so a mid-run
    scrape and the iteration's final sidecar line can never disagree on
    what a metric means.  Raises until the first iteration has started
    serving; the endpoint answers 503 (or the last good body) for those
    scrapes.
    """
    from repro.obs import telemetry_obs_snapshot

    server = drive.server
    if server is None:
        raise RuntimeError("no iteration has started yet")
    telemetry = {
        "tick": server.telemetry.snapshot(include_tails=False),
        "response_ms": server.telemetry.response_ms.snapshot(
            include_tail=False
        ),
        "wire": wire_metrics_snapshot(server),
    }
    if server.tracer.enabled:
        telemetry["trace"] = {
            "enabled": True,
            "slow_ticks": server.tracer.slow_ticks,
            "anomaly_count": len(server.tracer.anomalies),
        }
    meta = {
        "cell": job.cell.key(),
        "job_id": job.job_id,
        "iteration": drive.iteration,
    }
    return telemetry_obs_snapshot(telemetry, meta=meta)
