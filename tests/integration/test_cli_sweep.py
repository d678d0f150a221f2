"""CLI integration: the ``sweep`` subcommand and its disk cache."""

import json

import pytest

from repro.cli import main
from repro.graph.builders import fujita_fig4
from repro.graph.io import save

_FIG4_RELIABILITY = "0.8426357910"


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


def run_sweep(net_file, *extra):
    return main(["sweep", net_file, "-s", "s", "-t", "t", "-d", "2", *extra])


class TestSweepCommand:
    def test_availability_table(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.8,0.9,0.95") == 0
        out = capsys.readouterr().out
        assert "availability" in out and "reliability" in out
        # p = 0.1 per link is the fig-4 default, so the 0.9 point is the
        # canonical fig-4 value.
        assert _FIG4_RELIABILITY in out
        assert "max-flow calls:" in out
        assert "array cache:" in out

    def test_grid_spec_start_stop_n(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.8:0.9:3", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["x"] for p in payload["points"]] == pytest.approx(
            [0.8, 0.85, 0.9]
        )

    def test_rates_sweep(self, net_file, capsys):
        assert run_sweep(net_file, "--rates", "1,2,3") == 0
        out = capsys.readouterr().out
        assert "rate" in out
        assert _FIG4_RELIABILITY in out

    def test_failure_scale_with_override(self, net_file, capsys):
        assert (
            run_sweep(
                net_file, "--failure-scale", "0.5,1.0", "--override", "0=0.2", "--json"
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "failure-scale"
        assert len(payload["points"]) == 2

    def test_second_run_against_disk_cache_solves_nothing(
        self, net_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "arrays")
        args = ("--availability", "0.7:0.99:5", "--cache-dir", cache_dir, "--json")
        assert run_sweep(net_file, *args) == 0
        first = json.loads(capsys.readouterr().out)
        assert run_sweep(net_file, *args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["flow_calls"] > 0
        assert second["flow_calls"] == 0
        assert second["cache"]["misses"] == 0
        assert second["cache"]["hits"] > 0
        # identical values, not merely close
        assert [p["reliability"] for p in second["points"]] == [
            p["reliability"] for p in first["points"]
        ]

    def test_workers_two_matches_default(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.9", "--json") == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            run_sweep(net_file, "--availability", "0.9", "--workers", "2", "--json")
            == 0
        )
        engine = json.loads(capsys.readouterr().out)
        assert serial["points"] == engine["points"]


class TestWorkersWithCacheDir:
    def test_cold_engine_run_matches_default(self, net_file, tmp_path, capsys):
        assert run_sweep(net_file, "--availability", "0.8,0.9", "--json") == 0
        plain = json.loads(capsys.readouterr().out)
        args = (
            "--availability", "0.8,0.9",
            "--cache-dir", str(tmp_path / "arrays"), "--workers", "2", "--json",
        )
        assert run_sweep(net_file, *args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert plain["points"] == cold["points"]
        # a second run finds every column the engine published
        assert run_sweep(net_file, *args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["flow_calls"] == 0
        assert warm["points"] == cold["points"]
        assert not list((tmp_path / "arrays").glob("*.tmp"))

    def test_engine_rates_sweep_matches_default(self, net_file, tmp_path, capsys):
        assert run_sweep(net_file, "--rates", "1,2,3", "--json") == 0
        plain = json.loads(capsys.readouterr().out)
        assert (
            run_sweep(
                net_file, "--rates", "1,2,3",
                "--cache-dir", str(tmp_path / "arrays"), "--workers", "2", "--json",
            )
            == 0
        )
        engine = json.loads(capsys.readouterr().out)
        assert plain["points"] == engine["points"]

    def test_compute_engine_matches_default(self, net_file, capsys):
        base = ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
                "--method", "bottleneck", "--json"]
        assert main(base) == 0
        scalar = json.loads(capsys.readouterr().out)
        assert main(base + ["--workers", "2"]) == 0
        engine = json.loads(capsys.readouterr().out)
        assert engine["reliability"] == scalar["reliability"]


class TestSweepValidation:
    def test_workers_zero_rejected(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.9", "--workers", "0") == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_bad_grid_spec(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.8:0.9") == 1
        assert "start:stop:n" in capsys.readouterr().err

    def test_unparsable_grid(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "a,b") == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_empty_grid(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", ",") == 1
        assert "empty" in capsys.readouterr().err

    def test_bad_override(self, net_file, capsys):
        assert (
            run_sweep(net_file, "--availability", "0.9", "--override", "nope") == 1
        )
        assert "LINK=P" in capsys.readouterr().err

    def test_bad_rates(self, net_file, capsys):
        assert run_sweep(net_file, "--rates", "1,x") == 1
        assert "cannot parse --rates" in capsys.readouterr().err

    def test_out_of_range_availability(self, net_file, capsys):
        assert run_sweep(net_file, "--availability", "0.9,1.5") == 1
        assert "outside" in capsys.readouterr().err

    def test_axis_required(self, net_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", net_file, "-s", "s", "-t", "t", "-d", "2"])
