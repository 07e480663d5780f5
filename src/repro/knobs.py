"""The knob table: every run parameter, declared once.

Each :class:`MeterstickConfig <repro.core.config.MeterstickConfig>` and
:class:`CampaignSpec <repro.campaign.spec.CampaignSpec>` field is one
:class:`Knob` in :data:`KNOBS`, in ``MeterstickConfig`` field order
(``scope`` says which of the two dataclasses carries it).  Everything
that used to be hand-kept beside those dataclasses is derived here:

- both dataclasses' fields and defaults (:func:`knob_dataclass`);
- their per-field range checks (:meth:`Knob.validate`, fed by a
  declarative :class:`Check`);
- the ``overrides[*].set`` allow-list (:data:`OVERRIDABLE`);
- the shared knobs ``cell_config`` copies from spec to config
  (:data:`SHARED`);
- the provenance partition: ``fingerprinted`` knobs form the sha256
  measurement identity, the rest locate storage, size the worker pool,
  or shape presentation (:data:`UNFINGERPRINTED`, which
  :func:`repro.tracing.provenance.measurement_config` strips).

Adding a knob is one entry here plus the code that reads it.  Stdlib
only and outside ``repro.core``/``repro.tracing``, whose package
``__init__`` modules import the runner.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import KW_ONLY, dataclass

__all__ = [
    "BOTH",
    "CAMPAIGN",
    "CONFIG",
    "Check",
    "KNOBS",
    "KNOBS_BY_NAME",
    "Knob",
    "OVERRIDABLE",
    "SHARED",
    "UNFINGERPRINTED",
    "knob_dataclass",
    "validate_knobs",
]

#: Knob scopes: a ``MeterstickConfig`` field, a ``CampaignSpec`` field,
#: or a field of both (which ``cell_config`` copies spec -> config).
CONFIG = "config"
CAMPAIGN = "campaign"
BOTH = "both"

_SAME = object()  # ``campaign_default`` sentinel: same as ``default``


@dataclass(frozen=True)
class Check:
    """A declarative range check on one value.

    Exactly one shape is used: ``choices`` (membership), ``positive``
    (``> 0``), or ``low`` with an optional ``high`` (inclusive bounds).
    """

    low: float | None = None
    high: float | None = None
    positive: bool = False
    choices: tuple[str, ...] = ()

    def require(self, label: str, value, nullable: bool = False) -> None:
        """Raise ``ValueError`` naming ``label`` when ``value`` is out
        of range; ``None`` passes when ``nullable``."""
        if nullable and value is None:
            return
        if self.choices:
            if value not in self.choices:
                known = ", ".join(self.choices)
                raise ValueError(f"unknown {label} {value!r}; known: {known}")
            return
        if self.positive:
            ok, bound = value > 0, "positive"
        elif self.high is None:
            ok, bound = value >= self.low, f">= {self.low}"
        else:
            ok = self.low <= value <= self.high
            bound = f"{self.low}..{self.high}"
        if not ok:
            either = " (or None)" if nullable else ""
            raise ValueError(f"{label} must be {bound}{either}: {value!r}")


POSITIVE = Check(positive=True)
NON_NEGATIVE = Check(low=0)
AT_LEAST_1 = Check(low=1)
PORT = Check(low=0, high=65535)


@dataclass(frozen=True)
class Knob:
    """One run parameter: its default, range check, and fate.

    ``fingerprinted`` is the provenance decision (does it change what
    gets measured?); ``overridable`` admits it to ``overrides[*].set``.
    ``check`` applies to each element of a list-valued knob, and
    ``None`` passes it when the default is ``None``.
    """

    name: str
    default: object
    check: Check | None = None
    _: KW_ONLY
    fingerprinted: bool
    overridable: bool = False
    scope: str = CONFIG
    #: The spec's default where it differs (``servers`` only: there it
    #: is a matrix axis, not the config's list of systems under test).
    campaign_default: object = _SAME

    def __post_init__(self) -> None:
        if self.scope not in (CONFIG, CAMPAIGN, BOTH):
            raise ValueError(f"knob {self.name!r}: bad scope {self.scope!r}")
        if self.overridable and self.scope == CAMPAIGN:
            raise ValueError(
                f"knob {self.name!r} is overridable but not a config field"
            )

    def in_scope(self, scope: str) -> bool:
        return self.scope in (scope, BOTH)

    def validate(self, value, label: str | None = None) -> None:
        """Run ``check`` on ``value``; errors name ``label`` (the knob)."""
        if self.check is None:
            return
        label = label or self.name
        if isinstance(self.default, list):
            for index, item in enumerate(value):
                self.check.require(f"{label}[{index}]", item)
        else:
            self.check.require(label, value, self.default is None)

    def field(self, scope: str) -> dataclasses.Field:
        default = self.default
        if scope == CAMPAIGN and self.campaign_default is not _SAME:
            default = self.campaign_default
        if isinstance(default, (list, dict)):
            factory = functools.partial(copy.deepcopy, default)
            return dataclasses.field(default_factory=factory)
        return dataclasses.field(default=default)


KNOBS: tuple[Knob, ...] = (
    #: The campaign's name: labels its manifest, logs and report.
    Knob("name", "campaign", fingerprinted=True, scope=CAMPAIGN),
    # -- deployment (Table 4: IPs, SSL Keys, Ports, JMX, File Locations) --
    # The simulated control plane is part of the Table 4 identity.
    Knob("ips", ["10.0.0.1", "10.0.0.2"], fingerprinted=True),
    Knob("ssl_keys", [], fingerprinted=True),
    Knob("control_port", 25555, fingerprinted=True),
    Knob("game_port", 25565, fingerprinted=True),
    Knob("jmx_urls", [], fingerprinted=True),
    Knob("jmx_port_range", (25585, 25635), fingerprinted=True),
    # Where results land and how many workers run never change what is
    # measured: runs into different output dirs (or with a different
    # ``--jobs``) must fingerprint the same, or serial/parallel shard
    # byte-identity breaks.
    Knob("output_dir", "meterstick-out", fingerprinted=False, scope=BOTH),
    Knob("resume", False, fingerprinted=False),
    #: Default worker-process count for the executor (CLI ``--jobs``
    #: wins).
    Knob("jobs", 1, AT_LEAST_1, fingerprinted=False, scope=CAMPAIGN),
    # -- systems under test ------------------------------------------------
    Knob("servers", ["vanilla", "forge", "papermc"], fingerprinted=True,
         scope=BOTH, campaign_default=["vanilla"]),
    Knob("environment", "das5-2core", fingerprinted=True),
    Knob("environments", ["das5-2core"], fingerprinted=True, scope=CAMPAIGN),
    Knob("ram_gb", 4.0, POSITIVE, fingerprinted=True, overridable=True),
    Knob("affinity_mask", 0xFFFFFFFF, fingerprinted=True),
    # -- workload ----------------------------------------------------------
    # Each plural CampaignSpec axis expands into its singular config
    # field, one value per cell.
    Knob("world", "control", fingerprinted=True),
    Knob("workloads", ["control"], fingerprinted=True, scope=CAMPAIGN),
    Knob("number_of_bots", 25, NON_NEGATIVE, fingerprinted=True),
    Knob("bot_counts", [25], NON_NEGATIVE, fingerprinted=True,
         scope=CAMPAIGN),
    Knob("behavior", "bounded-random", fingerprinted=True),
    Knob("behaviors", ["bounded-random"], fingerprinted=True,
         scope=CAMPAIGN),
    Knob("duration_s", 60.0, POSITIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    Knob("iterations", 1, AT_LEAST_1, fingerprinted=True, overridable=True,
         scope=BOTH),
    Knob("scale", 1.0, POSITIVE, fingerprinted=True),
    Knob("scales", [1.0], POSITIVE, fingerprinted=True, scope=CAMPAIGN),
    # -- transport (wire serving) ------------------------------------------
    # A wire-served run measures real socket/kernel effects (and the
    # port/batching shape the traffic), so inproc and tcp campaigns must
    # never share a fingerprint.
    #: How bots reach the server: ``"inproc"`` (direct-call sessions,
    #: bit-identical to the historical path) or ``"tcp"`` (the asyncio
    #: wire front end, served via ``repro serve`` + ``repro clients``).
    Knob("transport", "inproc", Check(choices=("inproc", "tcp")),
         fingerprinted=True, overridable=True, scope=BOTH),
    #: TCP port the wire front end binds (0 = OS-assigned ephemeral).
    Knob("wire_port", 0, PORT, fingerprinted=True, overridable=True,
         scope=BOTH),
    #: Pack per-tick entity moves into batched wire frames instead of one
    #: padded packet per modeled move.
    Knob("wire_batch_flush", True, fingerprinted=True, overridable=True,
         scope=BOTH),
    # -- world persistence & chunk streaming -------------------------------
    #: Live world directory (region files; autosave writes, reloads
    #: read); ``None`` keeps the purely in-memory world.  On a spec it is
    #: the root beneath which each cell (and each iteration) gets its own
    #: directory.  A storage location, so never fingerprinted.
    Knob("world_dir", None, fingerprinted=False, scope=BOTH),
    #: Read-only warm-boot source: chunks missing from ``world_dir`` load
    #: from here before falling back to generation.  ``cell_config``
    #: derives it from ``warm_world_cache``; iterations never write it.
    Knob("world_cache_dir", None, fingerprinted=False),
    #: Pre-generate each (workload, scale) world once under
    #: ``<output_dir>/world-cache/`` and warm-boot every iteration from
    #: it: faster campaigns, bit-identical initial worlds.  Pins each
    #: cell's terrain seed to the campaign ``seed``.
    Knob("warm_world_cache", False, fingerprinted=True, scope=CAMPAIGN),
    #: Simulated seconds between incremental autosaves.
    Knob("autosave_interval_s", 45.0, POSITIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    #: Every Nth autosave is a save-all full flush (0 disables flushes).
    Knob("autosave_flush_every", 6, NON_NEGATIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    #: Evict clean out-of-view chunks beyond this count (None: no cap).
    Knob("max_loaded_chunks", None, AT_LEAST_1, fingerprinted=True,
         overridable=True, scope=BOTH),
    # -- observability -----------------------------------------------------
    # Tracing perturbs what the flight recorder sees, and a scraped run
    # shares its process (in serve mode, its event loop's wall clock)
    # with the endpoint, so traced/untraced and obs-on/obs-off campaigns
    # must not share a fingerprint.
    #: Tick-phase span tracing + slow-tick flight recorder.  Off by
    #: default; untraced runs are bit-identical with the pre-tracing
    #: simulation (the tracer hooks are no-ops).
    Knob("trace", False, fingerprinted=True, overridable=True, scope=BOTH),
    #: Capture span trees on every Nth tick (1 = all).  The flight
    #: recorder watches every tick regardless of sampling.
    Knob("trace_sample_every", 1, AT_LEAST_1, fingerprinted=True,
         overridable=True, scope=BOTH),
    #: A tick is an anomaly when its wall duration exceeds this multiple
    #: of the 50 ms budget.
    Knob("slow_tick_factor", 3.0, POSITIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    #: Serve a live pull-based metrics endpoint (Prometheus text + JSON
    #: snapshot) from ``repro serve`` and the campaign executor.  Off by
    #: default; obs-off runs are bit-identical with the endpoint-less
    #: path (nothing is constructed, nothing polls).
    Knob("obs", False, fingerprinted=True, overridable=True, scope=BOTH),
    #: TCP port the metrics endpoint binds (0 = OS-assigned ephemeral).
    Knob("obs_port", 0, PORT, fingerprinted=True, overridable=True,
         scope=BOTH),
    #: Seconds the endpoint keeps serving after the run finishes, so an
    #: in-flight scrape (or a final one) still lands.
    Knob("obs_scrape_grace", 0.0, NON_NEGATIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    # -- reproducibility ---------------------------------------------------
    # ``seed`` and the matrix axes define a cell's identity (job id,
    # seeds, export labels), so none of them is overridable: patching
    # one would let two "distinct" jobs run identical configs, or report
    # an axis value the run never used.
    Knob("seed", 0, fingerprinted=True, scope=BOTH),
    #: Simulated idle seconds between iterations (teardown + setup).
    Knob("inter_iteration_gap_s", 20.0, NON_NEGATIVE, fingerprinted=True,
         overridable=True, scope=BOTH),
    #: Start cloud machines with drained burst credits (warm VMs).
    Knob("warm_machines", False, fingerprinted=True, overridable=True,
         scope=BOTH),
    #: Keep raw per-tick/per-sample lists (the figure pipeline needs
    #: them).  ``False`` runs with O(1) telemetry memory per metric —
    #: summaries and sidecar telemetry are streamed either way.
    Knob("retain_raw", True, fingerprinted=True, overridable=True,
         scope=BOTH),
    # -- campaign-only sections --------------------------------------------
    #: Cell patches: ``{"where": {<cell field>: value}, "set": {<knob>:
    #: value}}``; ``set`` takes only overridable knobs.
    Knob("overrides", [], fingerprinted=True, scope=CAMPAIGN),
    #: ``output:`` report declaration (pivots, plots, html/csv names);
    #: empty -> the default report.  Editable after a campaign ran
    #: (``repro report --update-output``) without invalidating a
    #: recorded measurement fingerprint.  See :mod:`repro.reporting.spec`.
    Knob("output", {}, fingerprinted=False, scope=CAMPAIGN),
    #: ``system:`` measurement-hygiene requests (governor, SMT, ASLR,
    #: boost, CPU isolation, load ceiling), probed against the host at
    #: run start.  They gate PASS/WARN provenance, so a campaign run
    #: under different requested conditions is a different measurement.
    Knob("system", {}, fingerprinted=True, scope=CAMPAIGN),
)

KNOBS_BY_NAME: dict[str, Knob] = {knob.name: knob for knob in KNOBS}
if len(KNOBS_BY_NAME) != len(KNOBS):
    raise ValueError("duplicate knob names in KNOBS")

#: Knobs on both dataclasses: ``cell_config`` copies them spec -> config.
SHARED = tuple(knob.name for knob in KNOBS if knob.scope == BOTH)
#: The ``overrides[*].set`` allow-list.
OVERRIDABLE = frozenset(knob.name for knob in KNOBS if knob.overridable)
#: Fields provenance strips before digesting a config.
UNFINGERPRINTED = frozenset(
    knob.name for knob in KNOBS if not knob.fingerprinted
)


def knob_dataclass(scope: str):
    """Class decorator: give ``cls`` the table's fields for ``scope``, in
    table order, then make it a :func:`~dataclasses.dataclass`."""

    def decorate(cls):
        if cls.__dict__.get("__annotations__"):
            raise TypeError(f"{cls.__name__}: declare fields in KNOBS")
        cls.__annotations__ = {}
        for knob in KNOBS:
            if knob.in_scope(scope):
                kind = type(knob.default)
                cls.__annotations__[knob.name] = (
                    "object" if knob.default is None else kind.__name__
                )
                setattr(cls, knob.name, knob.field(scope))
        return dataclass(cls)

    return decorate


def validate_knobs(obj, scope: str) -> None:
    """Run every table check for ``scope`` against ``obj``'s fields."""
    for knob in KNOBS:
        if knob.check is not None and knob.in_scope(scope):
            knob.validate(getattr(obj, knob.name))
