"""Meterstick configuration (Fig. 5 component 1, Table 4).

All of Table 4's parameters are represented; deployment-oriented ones
(IPs, SSL keys, ports, JMX endpoints) configure the simulated control
plane, and experiment-oriented ones (servers, world, bots, duration,
iterations, scale) configure the runs themselves.  The fields, their
defaults and range checks are declared once, in :mod:`repro.knobs`.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict

from repro.cloud.providers import get_environment
from repro.emulation.behavior import BEHAVIORS
from repro.knobs import CONFIG, KNOBS_BY_NAME, knob_dataclass, validate_knobs
from repro.mlg.variants import get_variant
from repro.workloads import WORKLOADS

__all__ = ["MeterstickConfig", "DEFAULT_JMX_PORT_RANGE", "stable_crc"]

DEFAULT_JMX_PORT_RANGE = KNOBS_BY_NAME["jmx_port_range"].default


def stable_crc(*parts: object) -> int:
    """CRC32 of ``parts`` joined with ``|``, masked to a positive int31.

    The repo-wide stable-hash scheme: CRC32 rather than ``hash()`` because
    Python string hashing is salted per process, which would make seeds
    and job ids unreproducible across runs.  Used for iteration seeds here
    and for campaign job ids in :mod:`repro.campaign.planner`.
    """
    key = "|".join(str(part) for part in parts).encode()
    return zlib.crc32(key) & 0x7FFFFFFF


@knob_dataclass(CONFIG)
class MeterstickConfig:
    """One benchmark campaign's configuration (Table 4).

    ``servers`` lists the systems under test by variant name; every server
    runs every iteration of the configured ``world`` workload in
    ``environment``.  The fields are the ``config``-scoped entries of
    :data:`repro.knobs.KNOBS`, in table order; :meth:`validate` adds the
    registry-backed and cross-field checks the table cannot declare.
    """

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on any invalid parameter combination."""
        if not self.servers:
            raise ValueError("at least one server (system under test) needed")
        for name in self.servers:
            get_variant(name)  # raises on unknown
        get_environment(self.environment)
        if self.world.lower() not in WORKLOADS:
            known = ", ".join(sorted(WORKLOADS))
            raise ValueError(
                f"unknown world workload {self.world!r}; known: {known}"
            )
        if self.behavior.lower() not in BEHAVIORS:
            known = ", ".join(BEHAVIORS)
            raise ValueError(
                f"unknown behavior {self.behavior!r}; known: {known}"
            )
        validate_knobs(self, CONFIG)
        lo, hi = self.jmx_port_range
        if lo > hi:
            raise ValueError("jmx_port_range must be (low, high)")

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["jmx_port_range"] = list(self.jmx_port_range)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MeterstickConfig":
        payload = dict(data)
        if "jmx_port_range" in payload:
            payload["jmx_port_range"] = tuple(payload["jmx_port_range"])
        return cls(**payload)

    def iteration_seed(self, server: str, iteration: int) -> int:
        """Deterministic per-(server, iteration) seed.

        Uses CRC32 rather than ``hash()`` — Python string hashing is
        salted per process, which would make campaigns unreproducible
        across runs.
        """
        return stable_crc(self.seed, server, iteration)
