"""Per-layer spans and counters for traced reps, and the per-layer metrics.

While a :class:`LayerTrace` is open it replaces each layer's public entry
point (a class attribute or module function) with a wrapper that records
a span — layer name, start, end and the span that was open when it began —
or, for calls too frequent to time, only a call count.  Spans stay in
memory and are written out by :meth:`LayerTrace.write` when the run ends.
Closing the context restores the original functions, so untraced reps run
the program's own code.

A layer's busy time is the summed duration of its outermost spans: a call
made while the same layer already has a span open (``cost_us`` inside
``total_cost_us``) adds no second span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.cloud.machine import Machine
from repro.core.collectors import SystemMetricsCollector
from repro.emulation.swarm import BotSwarm
from repro.mlg import wirecodec
from repro.mlg.entity_manager import EntityManager
from repro.mlg.fluids import FluidEngine
from repro.mlg.growth import GrowthEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.pathfinding import PathFinder
from repro.mlg.player import PlayerHandler
from repro.mlg.redstone import RedstoneEngine
from repro.mlg.spawning import SpawnEngine
from repro.mlg.tnt import TNTSystem
from repro.mlg.workreport import WorkReport
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore
from repro.telemetry.tap import ServerTelemetry


def _pathfinding_result(trace: "LayerTrace", result) -> None:
    trace.counts["pathfinding.found"] += bool(result.found)
    trace.counts["pathfinding.expanded"] += result.expanded


def _fluid_updates(trace: "LayerTrace", result) -> None:
    trace.counts["fluids.updates"] += result


#: (layer, owner, attribute, result hook) — entry points timed as spans.
SPANS = (
    ("growth", GrowthEngine, "tick", None),
    ("fluids", FluidEngine, "tick", _fluid_updates),
    ("redstone", RedstoneEngine, "tick", None),
    ("tnt", TNTSystem, "tick", None),
    ("spawning", SpawnEngine, "tick", None),
    ("entity_manager", EntityManager, "tick", None),
    ("pathfinding", PathFinder, "find_path", _pathfinding_result),
    ("world.ground_below_bulk", World, "ground_below_bulk", None),
    ("world.blocks_bulk", World, "blocks_bulk", None),
    ("world.set_blocks_bulk", World, "set_blocks_bulk", None),
    ("worldgen", TerrainGenerator, "__call__", None),
    ("lighting.light_chunk", LightEngine, "light_chunk", None),
    ("player.connect", PlayerHandler, "connect", None),
    ("player.process_actions", PlayerHandler, "process_actions", None),
    ("pricing", WorkReport, "total_cost_us", None),
    ("pricing", WorkReport, "bucketed_cost_us", None),
    ("pricing", WorkReport, "cost_us", None),
    ("pricing", Machine, "execute", None),
    ("telemetry.observe_tick", ServerTelemetry, "observe_tick", None),
    ("collectors.maybe_sample", SystemMetricsCollector, "maybe_sample", None),
    ("swarm.step", BotSwarm, "step", None),
    ("lifecycle", ChunkLifecycle, "tick", None),
    ("region_store.save", RegionStore, "save_chunks", None),
    ("region_store.load", RegionStore, "load_chunk", None),
    *(
        ("wirecodec.encode", wirecodec, name, None)
        for name in (
            "encode_welcome",
            "encode_delivery",
            "encode_state",
            "encode_entity_batch",
            "encode_tick",
        )
    ),
)

#: (layer, owner, attribute) — entry points only counted: they run too
#: often per tick for a span each.
COUNTERS = (
    ("world.get_block", World, "get_block"),
    ("world.set_block", World, "set_block"),
    ("netqueue.broadcast_counted", NetworkQueues, "broadcast_counted"),
)

_FARM_TICK = "sim_s_per_wall_s and tick_host_ms_p50 on farm"
_FLOOD = "tick_host_ms_p95 and sim_s_per_wall_s on flood"
_GEN = "setup_s on farm, tick_host_ms_p95 on exploration-persist"
_PERSIST = "tick_host_ms_p95 and peak_rss_mb on exploration-persist"
_FIXED = "tick_host_ms_p50 on flood"
_WIRE = "harness_share_p50 and harness_share_p95 on wire-players"

#: Per-layer metric -> (unit, better, the end-to-end metric and workload
#: a change to that layer is predicted to move).  Everything else is
#: predicted to stay the same.
PER_LAYER = {
    "growth.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "fluids.busy_ms_per_tick": ("ms/tick", "lower", _FLOOD),
    "fluids.updates_per_tick": ("1/tick", "lower", _FLOOD),
    "redstone.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "tnt.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "spawning.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "entity_manager.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "pathfinding.calls_per_tick": ("1/tick", "lower", _FARM_TICK),
    "pathfinding.found_ratio": ("ratio", "higher", _FARM_TICK),
    "pathfinding.expanded_per_call": ("nodes/call", "lower", _FARM_TICK),
    "world.get_block_calls_per_tick": ("1/tick", "lower", _FARM_TICK),
    "world.set_block_calls_per_tick": ("1/tick", "lower", _FLOOD),
    "world.ground_below_bulk.busy_ms_per_tick": (
        "ms/tick", "lower", _FARM_TICK
    ),
    "world.blocks_bulk.busy_ms_per_tick": ("ms/tick", "lower", _FLOOD),
    "world.set_blocks_bulk.busy_ms_per_tick": ("ms/tick", "lower", _FLOOD),
    "worldgen.chunks": ("count", "lower", _GEN),
    "worldgen.busy_ms_per_chunk": ("ms/chunk", "lower", _GEN),
    "lighting.light_chunk.busy_ms_per_chunk": ("ms/chunk", "lower", _GEN),
    "player.connect.busy_ms": ("ms", "lower", "setup_s on every workload"),
    "player.process_actions.busy_ms_per_tick": ("ms/tick", "lower", _WIRE),
    "netqueue.broadcast_counted.calls_per_tick": ("1/tick", "lower", _FIXED),
    "pricing.busy_ms_per_tick": ("ms/tick", "lower", _FIXED),
    "telemetry.observe_tick.busy_ms_per_tick": ("ms/tick", "lower", _FIXED),
    "collectors.maybe_sample.busy_ms_per_tick": ("ms/tick", "lower", _FIXED),
    "swarm.step.busy_ms_per_tick": ("ms/tick", "lower", _FARM_TICK),
    "lifecycle.busy_ms_per_tick": ("ms/tick", "lower", _PERSIST),
    "region_store.save_ms": ("ms", "lower", _PERSIST),
    "region_store.load_ms": ("ms", "lower", _PERSIST),
    "lifecycle.chunks_loaded_from_disk": ("count", "lower", _PERSIST),
    "lifecycle.chunks_evicted": ("count", "lower", _PERSIST),
    "lifecycle.bytes_written": ("B", "lower", _PERSIST),
    "lifecycle.bytes_read": ("B", "lower", _PERSIST),
    "executor.externalize_s": (
        "s", "lower", "sim_s_per_wall_s on every in-process workload"
    ),
    "wirecodec.encode_calls_per_tick": ("1/tick", "lower", _WIRE),
    "wirecodec.encode_ms_per_tick": ("ms/tick", "lower", _WIRE),
    "wire.bytes_out_per_tick": ("B/tick", "lower", _WIRE),
    "wire.flush_us_p50": ("us", "lower", _WIRE),
    "wire.flush_us_p99": ("us", "lower", _WIRE),
    "client.step_us_p50": ("us", "lower", _WIRE),
    "client.drain_us_p50": ("us", "lower", _WIRE),
    "trace.overhead_frac": (
        "ratio", "lower", "none: the cost of these wrappers themselves"
    ),
}


class LayerTrace:
    """Spans and counters for the reps run while the context is open."""

    def __init__(self) -> None:
        #: Every span so far: [layer, start s, end s, parent index, rep].
        self.spans: list[list] = []
        self.busy: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.rep = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn, on_result):
        trace = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if trace._open[layer]:
                return fn(*args, **kwargs)
            stack = trace._stack
            index = len(trace.spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, trace.rep]
            trace.spans.append(span)
            stack.append(index)
            trace._open[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                trace._open[layer] -= 1
                stack.pop()
                span[1] = start
                span[2] = end
                trace.busy[layer] += end - start
                trace.calls[layer] += 1
            if on_result is not None:
                on_result(trace, result)
            return result

        return wrapper

    def _counter(self, layer: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def __enter__(self) -> "LayerTrace":
        for layer, owner, name, on_result in SPANS:
            self._patch(
                owner, name, self._span(layer, getattr(owner, name), on_result)
            )
        for layer, owner, name in COUNTERS:
            self._patch(
                owner, name, self._counter(layer, getattr(owner, name))
            )
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self.rep += 1

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in µs from the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (layer, start, end, parent, rep) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "rep": rep,
                            "name": layer,
                            "start_us": round((start - origin) * 1e6, 1),
                            "dur_us": round((end - start) * 1e6, 1),
                        }
                    )
                    + "\n"
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer_metrics(trace: LayerTrace, reps, overhead_frac: float) -> dict:
    """Every ``PER_LAYER`` metric, from the traced reps' spans and counts.

    A layer the workload never calls reads 0: it did no work.
    """
    ticks = sum(len(rep.tick_host_s) for rep in reps)
    n = len(reps)
    busy_ms = {layer: s * 1e3 for layer, s in trace.busy.items()}
    calls = trace.calls
    counts = trace.counts
    values = {
        f"{layer}.busy_ms_per_tick": _ratio(busy_ms.get(layer, 0.0), ticks)
        for layer in (
            "growth",
            "fluids",
            "redstone",
            "tnt",
            "spawning",
            "entity_manager",
            "world.ground_below_bulk",
            "world.blocks_bulk",
            "world.set_blocks_bulk",
            "player.process_actions",
            "pricing",
            "telemetry.observe_tick",
            "collectors.maybe_sample",
            "swarm.step",
            "lifecycle",
        )
    }
    steps = [s["step_us"] for rep in reps for s in rep.client_spans]
    drains = [s["drain_us"] for rep in reps for s in rep.client_spans]
    flushes = [v for rep in reps for v in rep.flush_us]
    values.update(
        {
            "fluids.updates_per_tick": _ratio(counts["fluids.updates"], ticks),
            "pathfinding.calls_per_tick": _ratio(calls["pathfinding"], ticks),
            "pathfinding.found_ratio": _ratio(
                counts["pathfinding.found"], calls["pathfinding"]
            ),
            "pathfinding.expanded_per_call": _ratio(
                counts["pathfinding.expanded"], calls["pathfinding"]
            ),
            "world.get_block_calls_per_tick": _ratio(
                calls["world.get_block"], ticks
            ),
            "world.set_block_calls_per_tick": _ratio(
                calls["world.set_block"], ticks
            ),
            "worldgen.chunks": _ratio(calls["worldgen"], n),
            "worldgen.busy_ms_per_chunk": _ratio(
                busy_ms.get("worldgen", 0.0), calls["worldgen"]
            ),
            "lighting.light_chunk.busy_ms_per_chunk": _ratio(
                busy_ms.get("lighting.light_chunk", 0.0),
                calls["lighting.light_chunk"],
            ),
            "player.connect.busy_ms": _ratio(
                busy_ms.get("player.connect", 0.0), n
            ),
            "netqueue.broadcast_counted.calls_per_tick": _ratio(
                calls["netqueue.broadcast_counted"], ticks
            ),
            "region_store.save_ms": _ratio(
                busy_ms.get("region_store.save", 0.0), n
            ),
            "region_store.load_ms": _ratio(
                busy_ms.get("region_store.load", 0.0), n
            ),
            "executor.externalize_s": _ratio(
                sum(rep.externalize_s for rep in reps), n
            ),
            "wirecodec.encode_calls_per_tick": _ratio(
                calls["wirecodec.encode"], ticks
            ),
            "wirecodec.encode_ms_per_tick": _ratio(
                busy_ms.get("wirecodec.encode", 0.0), ticks
            ),
            "wire.bytes_out_per_tick": _ratio(
                sum(v for rep in reps for v in rep.bytes_out), ticks
            ),
            "wire.flush_us_p50": _p(flushes, 50),
            "wire.flush_us_p99": _p(flushes, 99),
            "client.step_us_p50": _p(steps, 50),
            "client.drain_us_p50": _p(drains, 50),
            "trace.overhead_frac": overhead_frac,
        }
    )
    for key in (
        "chunks_loaded_from_disk",
        "chunks_evicted",
        "bytes_written",
        "bytes_read",
    ):
        values[f"lifecycle.{key}"] = _ratio(
            sum(rep.world.get(key, 0) for rep in reps), n
        )
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _better, _moves) in PER_LAYER.items()
    }
