"""The provenance partition is the knob table's ``fingerprinted``
column: every config/spec field has exactly one fate, nothing else is
stripped, and ``measurement_config`` strips exactly the unfingerprinted
knobs."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.planner import JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.core.config import MeterstickConfig
from repro.knobs import KNOBS, UNFINGERPRINTED
from repro.tracing.provenance import (
    measurement_config,
    provenance_fingerprint,
)


def config_surface() -> set[str]:
    return {
        f.name for f in dataclasses.fields(MeterstickConfig)
    } | {f.name for f in dataclasses.fields(CampaignSpec)}


class TestProvenanceRegistry:
    def test_registries_partition_the_config_surface(self):
        fingerprinted = {k.name for k in KNOBS if k.fingerprinted}
        excluded = {k.name for k in KNOBS if not k.fingerprinted}
        assert fingerprinted & excluded == set()
        assert fingerprinted | excluded == config_surface()
        assert excluded == UNFINGERPRINTED

    def test_no_duplicate_registry_entries(self):
        names = [knob.name for knob in KNOBS]
        assert len(set(names)) == len(names)

    def test_measurement_config_strips_exactly_the_exclusions(self):
        resolved = {name: name for name in config_surface()}
        stripped = measurement_config(resolved)
        assert set(stripped) == {k.name for k in KNOBS if k.fingerprinted}

    def test_exclusion_set_is_pinned(self):
        # Storage locations, the worker count and the report layout: a
        # knob joining or leaving this set changes every fingerprint.
        assert UNFINGERPRINTED == {
            "output_dir",
            "world_dir",
            "world_cache_dir",
            "jobs",
            "resume",
            "output",
        }

    def test_fingerprint_follows_the_table(self):
        def fingerprint(config: dict) -> str:
            return provenance_fingerprint(measurement_config(config))[
                "fingerprint"
            ]

        base = MeterstickConfig().to_dict()
        for knob in KNOBS:
            if knob.in_scope("config"):
                changed = {**base, knob.name: "changed"}
                moved = fingerprint(changed) != fingerprint(base)
                assert moved == knob.fingerprinted, knob.name


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


#: sha256 of the same configs in shard form: ``json.dumps(..., indent=2)``
#: without ``sort_keys``, as every shard embeds ``provenance.config``.
#: The sorted pins above cannot see a field reordering; these can.
SHARD_FORM_PINS = {
    "campaign_report.yaml": {
        "40ce45d9": "e03f2597752d1a84011905a08e872712"
        "1cff0dc00734c26c04a1b6ef0b053f82",
        "075349c6": "09ac66db0c75175304a7b3887d97632f"
        "a7f3e5e7430a006459fb35f30063764e",
        "37dd5beb": "4354377bb6e353eccdd860cb32c4585c"
        "f3162821dab72a775ef6a0340867cd31",
        "704057f4": "918d12f30f88cbc2be06f31f636b0de0"
        "dede6b9280ac34d304bd6a3a2fe8cef9",
    },
    "campaign_wire.yaml": {
        "20f32579": "a6a297af0b05d852b7bc587e45dc5749"
        "ead045d62745bd61d4623cb79c63f489",
    },
}


def _digest(config: dict, **dumps_kwargs) -> str:
    return hashlib.sha256(
        json.dumps(config, **dumps_kwargs).encode()
    ).hexdigest()


@pytest.mark.parametrize("example", sorted(MEASUREMENT_CONFIG_PINS))
def test_example_measurement_configs_are_pinned(example):
    planner = JobPlanner(CampaignSpec.from_file(EXAMPLES / example))
    configs = {
        job.job_id: measurement_config(planner.job_config(job).to_dict())
        for job in planner.plan()
    }
    sorted_digests = {
        job_id: _digest(config, sort_keys=True)
        for job_id, config in configs.items()
    }
    shard_digests = {
        job_id: _digest(config, indent=2)
        for job_id, config in configs.items()
    }
    assert sorted_digests == MEASUREMENT_CONFIG_PINS[example]
    assert shard_digests == SHARD_FORM_PINS[example]
