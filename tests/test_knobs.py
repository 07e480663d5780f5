"""The knob table drives both config dataclasses, their range checks,
the override allow-list, and the defaults the runner's signatures must
agree with."""

import inspect
import json
import re

import pytest

from repro.campaign.cli import main
from repro.campaign.spec import CampaignSpec
from repro.core.config import MeterstickConfig
from repro.core.experiment import run_iteration
from repro.knobs import KNOBS, KNOBS_BY_NAME, OVERRIDABLE, Check, Knob
from repro.mlg.server import MLGServer

BOUNDED = [knob for knob in KNOBS if knob.check is not None]


def _values(knob: Knob, value):
    """``value`` shaped for ``knob``: list-valued knobs check elements."""
    return [value] if isinstance(knob.default, list) else value


def out_of_range(check: Check):
    if check.choices:
        return "bogus"
    if check.positive:
        return 0
    if check.high is not None:
        return check.high + 1
    return check.low - 1


def in_range_edges(check: Check) -> list:
    if check.choices:
        return list(check.choices)
    if check.positive:
        return [1e-9]
    return [edge for edge in (check.low, check.high) if edge is not None]


@pytest.mark.parametrize("knob", BOUNDED, ids=lambda knob: knob.name)
def test_every_bound_rejects_out_of_range(knob):
    bad = _values(knob, out_of_range(knob.check))
    names_knob = re.escape(knob.name)
    if knob.in_scope("config"):
        with pytest.raises(ValueError, match=names_knob):
            MeterstickConfig(**{knob.name: bad})
    if knob.in_scope("campaign"):
        with pytest.raises(ValueError, match=names_knob):
            CampaignSpec(**{knob.name: bad})
    if knob.overridable:
        with pytest.raises(ValueError, match=names_knob):
            CampaignSpec(overrides=[{"where": {}, "set": {knob.name: bad}}])


@pytest.mark.parametrize("knob", BOUNDED, ids=lambda knob: knob.name)
def test_every_bound_admits_its_edges(knob):
    for edge in in_range_edges(knob.check):
        value = _values(knob, edge)
        if knob.in_scope("config"):
            MeterstickConfig(**{knob.name: value})
        if knob.in_scope("campaign"):
            CampaignSpec(**{knob.name: value})


def test_negative_inter_iteration_gap_rejected():
    # A negative gap used to pass validation and then fail the chain
    # after its first iteration ("cannot advance time backwards").
    with pytest.raises(ValueError, match="inter_iteration_gap_s"):
        MeterstickConfig(duration_s=1, iterations=2, inter_iteration_gap_s=-5)
    with pytest.raises(ValueError, match="inter_iteration_gap_s"):
        CampaignSpec(inter_iteration_gap_s=-5)
    assert MeterstickConfig(inter_iteration_gap_s=0).inter_iteration_gap_s == 0


def test_override_values_checked_before_anything_runs(tmp_path):
    out_dir = tmp_path / "out"
    spec = {
        "workloads": ["control", "lag"],
        "duration_s": 1.0,
        "output_dir": str(out_dir),
        "overrides": [
            {"where": {"workload": "lag"}, "set": {"obs_port": 70000}}
        ],
    }
    with pytest.raises(
        ValueError, match=r"overrides\[0\]\.set\.obs_port must be 0\.\.65535"
    ):
        CampaignSpec.from_dict(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--jobs", "1"]) == 2
    assert not out_dir.exists()


def test_override_allow_list_is_pinned():
    assert OVERRIDABLE == {
        "duration_s",
        "iterations",
        "warm_machines",
        "inter_iteration_gap_s",
        "ram_gb",
        "retain_raw",
        "autosave_interval_s",
        "autosave_flush_every",
        "max_loaded_chunks",
        "trace",
        "trace_sample_every",
        "slow_tick_factor",
        "transport",
        "wire_port",
        "wire_batch_flush",
        "obs",
        "obs_port",
        "obs_scrape_grace",
    }


def test_overridable_knobs_are_config_fields():
    config_fields = set(MeterstickConfig.__dataclass_fields__)
    assert OVERRIDABLE <= config_fields
    with pytest.raises(ValueError, match="not a config field"):
        Knob("ghost", 0, fingerprinted=True, overridable=True,
             scope="campaign")


@pytest.mark.parametrize(
    "func",
    [MLGServer.__init__, run_iteration],
    ids=["MLGServer", "run_iteration"],
)
def test_signature_defaults_match_the_table(func):
    params = inspect.signature(func).parameters
    # MLGServer's ``world`` is a World object; the knob is a workload name.
    shared = [
        name for name in params if name in KNOBS_BY_NAME and name != "world"
    ]
    assert len(shared) >= 10
    for name in shared:
        assert params[name].default == KNOBS_BY_NAME[name].default, name


def test_dataclass_defaults_come_from_the_table():
    config, spec = MeterstickConfig(), CampaignSpec()
    for knob in KNOBS:
        if knob.in_scope("config"):
            assert getattr(config, knob.name) == knob.default, knob.name
        if knob.in_scope("campaign") and knob.name != "servers":
            assert getattr(spec, knob.name) == knob.default, knob.name
    # The spec's ``servers`` is a matrix axis with its own default.
    assert spec.servers == KNOBS_BY_NAME["servers"].campaign_default
    # Mutable defaults are copied per instance, never shared.
    config.ips.append("10.0.0.3")
    assert MeterstickConfig().ips == ["10.0.0.1", "10.0.0.2"]
