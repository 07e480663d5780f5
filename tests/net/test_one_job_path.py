"""One job path for both transports.

``repro serve`` runs a planned job through the executor's own
``execute_job`` → ``run_server_chain`` → ``run_iteration`` chain, with
only the wire drive swapped in for the in-process swarm.  These tests
pin the consequences: the executor refuses a tcp cell it cannot serve,
the served cell gets the executor's prelude (warm world cache), and the
two transports write shards and sidecars of the same shape.
"""

import json

import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.planner import JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.core.experiment import run_server_chain
from repro.net import serve_cell
from repro.persistence.warmup import WORLD_MANIFEST, world_cache_key


def players_spec(out_dir, **extra) -> dict:
    return {
        "name": "one-path",
        "servers": ["vanilla"],
        "workloads": ["players"],
        "environments": ["das5"],
        "bot_counts": [2],
        "iterations": 2,
        "duration_s": 1.0,
        "seed": 3,
        "output_dir": str(out_dir),
        **extra,
    }


def write_spec(path, **fields):
    path.write_text(json.dumps(players_spec(**fields)))
    return path


def shape(record: dict) -> dict:
    """A shard iteration's or sidecar line's keys, and each telemetry
    section's own keys, minus the tcp-only ``wire`` section.  Deeper
    keys (breakdown buckets, packet categories) follow the data."""
    telemetry = {
        name: sorted(section)
        for name, section in record["telemetry"].items()
        if name != "wire"
    }
    return {"keys": sorted(record), "telemetry": telemetry}


class TestTcpCellNeedsTheWireDrive:
    def test_executor_refuses_tcp_cell_before_writing(self, tmp_path):
        out_dir = tmp_path / "out"
        spec = CampaignSpec.from_dict(
            players_spec(out_dir, transport="tcp")
        )
        with pytest.raises(ValueError, match="repro serve"):
            CampaignExecutor(spec, jobs=1).run()
        store = JobStore(out_dir)
        assert not store.completed_ids()
        assert not store.telemetry_dir.exists() or not any(
            store.telemetry_dir.iterdir()
        )

    def test_chain_refuses_tcp_config_without_drive(self, tmp_path):
        spec = CampaignSpec.from_dict(
            players_spec(tmp_path, transport="tcp")
        )
        planner = JobPlanner(spec)
        (job,) = planner.plan()
        with pytest.raises(ValueError, match="repro serve"):
            run_server_chain(planner.job_config(job), job.server)


class TestServeSharesTheExecutorPrelude:
    def test_warm_world_cache_exists_before_listen(self, tmp_path):
        out_dir = tmp_path / "out"
        spec_path = write_spec(
            tmp_path / "spec.json",
            out_dir=out_dir,
            transport="tcp",
            warm_world_cache=True,
        )
        cache = out_dir / "world-cache" / world_cache_key("players", 1.0, 3)
        seen = []

        def on_listen(port):
            seen.append(
                (cache.is_dir(), (cache / WORLD_MANIFEST).is_file())
            )

        summary = serve_cell(spec_path, realtime=False, on_listen=on_listen)
        assert seen == [(True, True), (True, True)]
        assert summary["iterations"] == 2


class TestTransportsWriteTheSameShape:
    @pytest.fixture(scope="class")
    def both(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("drift")
        inproc_out = root / "inproc"
        CampaignExecutor(
            CampaignSpec.from_dict(players_spec(inproc_out)), jobs=1
        ).run()
        tcp_out = root / "tcp"
        summary = serve_cell(
            write_spec(root / "tcp.json", out_dir=tcp_out, transport="tcp"),
            realtime=False,
        )
        stores = {"inproc": JobStore(inproc_out), "tcp": JobStore(tcp_out)}
        return {
            name: {
                "shard": json.loads(
                    store.shard_path(summary["job_id"]).read_text()
                ),
                "sidecar": store.read_job_telemetry(summary["job_id"]),
            }
            for name, store in stores.items()
        }

    def test_shard_iterations_share_keys(self, both):
        inproc = both["inproc"]["shard"]["iterations"]
        tcp = both["tcp"]["shard"]["iterations"]
        assert len(inproc) == len(tcp) == 2
        for a, b in zip(inproc, tcp):
            assert "wire" not in a["telemetry"]
            assert "wire" in b["telemetry"]
            assert shape(a) == shape(b)

    def test_sidecar_lines_share_keys(self, both):
        inproc = both["inproc"]["sidecar"]
        tcp = both["tcp"]["sidecar"]
        assert len(inproc) == len(tcp) == 2
        for a, b in zip(inproc, tcp):
            assert "wire" not in a["telemetry"]
            assert "wire" in b["telemetry"]
            assert shape(a) == shape(b)
