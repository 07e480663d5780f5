"""Runtime twin of lint rule MSL004: the provenance field registries
partition the real config/spec surface — every field has exactly one
fate, nothing stale, and ``measurement_config`` strips exactly the
excluded set."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.planner import JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.core.config import MeterstickConfig
from repro.tracing.provenance import (
    _MEASUREMENT_FIELDS,
    _NON_MEASUREMENT_FIELDS,
    measurement_config,
)


def config_surface() -> set[str]:
    return {
        f.name for f in dataclasses.fields(MeterstickConfig)
    } | {f.name for f in dataclasses.fields(CampaignSpec)}


class TestProvenanceRegistry:
    def test_registries_partition_the_config_surface(self):
        fingerprinted = set(_MEASUREMENT_FIELDS)
        excluded = set(_NON_MEASUREMENT_FIELDS)
        assert fingerprinted & excluded == set()
        surface = config_surface()
        undecided = surface - fingerprinted - excluded
        assert undecided == set(), (
            f"config fields without a provenance decision: "
            f"{sorted(undecided)}"
        )
        stale = (fingerprinted | excluded) - surface
        assert stale == set(), (
            f"stale provenance registry entries: {sorted(stale)}"
        )

    def test_no_duplicate_registry_entries(self):
        assert len(set(_MEASUREMENT_FIELDS)) == len(_MEASUREMENT_FIELDS)
        assert len(set(_NON_MEASUREMENT_FIELDS)) == len(
            _NON_MEASUREMENT_FIELDS
        )

    def test_measurement_config_strips_exactly_the_exclusions(self):
        resolved = {name: name for name in config_surface()}
        stripped = measurement_config(resolved)
        assert set(stripped) == set(resolved) - set(_NON_MEASUREMENT_FIELDS)


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: sha256 of each planned job's measurement config, recorded before the
#: transport/obs knobs left ``MLGServer``.  A knob refactor must leave
#: every one of them unchanged: they are what the provenance fingerprint
#: digests, minus the git SHA and environment.
MEASUREMENT_CONFIG_PINS = {
    "campaign_report.yaml": {
        "40ce45d9": "4e9bf81d3e23da906b205f3cae0e003b"
        "1b9f614de211056b4be9a224b1bbadcc",
        "075349c6": "511e339ee73555f259c31c0458922575"
        "b054d08160cf31179e48f4e69e1a6f3e",
        "37dd5beb": "1b4f4204090667727ac6c4236a993af2"
        "fc62bcaebc0cd44ffab480f37d6536b6",
        "704057f4": "d6ffdeda7898610ef7ee2db0302bab1e"
        "2b5e9fc12d843ca835002c638d270221",
    },
    "campaign_wire.yaml": {
        "20f32579": "288dabb6ea9479105a2e494b78e4ce57"
        "39e06864b735d221852207e7ba26df80",
    },
}


@pytest.mark.parametrize("example", sorted(MEASUREMENT_CONFIG_PINS))
def test_example_measurement_configs_are_pinned(example):
    planner = JobPlanner(CampaignSpec.from_file(EXAMPLES / example))
    digests = {
        job.job_id: hashlib.sha256(
            json.dumps(
                measurement_config(planner.job_config(job).to_dict()),
                sort_keys=True,
            ).encode()
        ).hexdigest()
        for job in planner.plan()
    }
    assert digests == MEASUREMENT_CONFIG_PINS[example]
