"""Tests for the command-line interface."""

import io
import os

import pytest

from repro import cli
from repro.core import pretrained
from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)


@pytest.fixture()
def tiny_asset(monkeypatch, tmp_path):
    """Point the CLI at a small untrained bundle on disk."""
    bundle = WaveKeyModelBundle(
        imu_encoder=build_imu_encoder(6, rng=0),
        rf_encoder=build_rf_encoder(6, rng=1),
        decoder=build_decoder(6, rng=2),
        n_bins=8,
        eta=0.2,
    )
    asset_dir = str(tmp_path / "bundle")
    bundle.save(asset_dir)
    monkeypatch.setattr(pretrained, "_ASSET_DIR", asset_dir)
    return bundle


class TestInspect:
    def test_prints_operating_point(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(["inspect"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "l_f : 6" in text
        assert "eta" in text

    def test_missing_bundle_reports_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            pretrained, "_ASSET_DIR", str(tmp_path / "missing")
        )
        out = io.StringIO()
        code = cli.main(["inspect"], out=out)
        assert code == 3
        assert "error:" in out.getvalue()


class TestEstablish:
    def test_runs_end_to_end(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(
            ["establish", "--seed", "3", "--key-bits", "128"], out=out
        )
        text = out.getvalue()
        assert code in (0, 1)  # untrained bundle may fail agreement
        assert "seed mismatch" in text


class TestSmoke:
    """One parametrized pass over every subcommand's happy path."""

    @pytest.mark.parametrize(
        "argv,expected_codes,expected_text",
        [
            (["inspect"], (0,), "eta"),
            (
                ["establish", "--seed", "3", "--key-bits", "128"],
                (0, 1),  # untrained bundle may fail agreement
                "seed mismatch",
            ),
            (["serve", "--dry-run"], (0,), "dry run: configuration OK"),
            (
                [
                    "serve", "--sessions", "1", "--workers", "1",
                    "--max-attempts", "1", "--seed", "5",
                ],
                (0, 1),
                "established",
            ),
            (
                [
                    "loadgen", "--sessions", "2", "--workers", "1",
                    "--max-attempts", "1", "--seed", "5",
                ],
                (0, 1),
                "offered sessions",
            ),
        ],
        ids=["inspect", "establish", "serve-dry-run", "serve", "loadgen"],
    )
    def test_subcommand(self, tiny_asset, argv, expected_codes,
                        expected_text):
        out = io.StringIO()
        code = cli.main(argv, out=out)
        assert code in expected_codes
        assert expected_text in out.getvalue()

    def test_console_entry_point_is_registered(self):
        tomllib = pytest.importorskip("tomllib")  # stdlib since 3.11
        pyproject = os.path.join(
            os.path.dirname(__file__), "..", "..", "pyproject.toml"
        )
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["scripts"]["repro"] == "repro.cli:main"


class TestServeConfiguration:
    def test_dry_run_reports_batch_policy(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(
            ["serve", "--dry-run", "--workers", "3"], out=out
        )
        text = out.getvalue()
        assert code == 0
        assert "workers          : 3" in text

    def test_invalid_config_is_a_clean_error(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(["serve", "--dry-run", "--workers", "0"], out=out)
        assert code == 3
        assert "error:" in out.getvalue()


class TestObservability:
    def test_loadgen_trace_round_trips_through_obs_commands(
        self, tiny_asset, tmp_path
    ):
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        out = io.StringIO()
        code = cli.main(
            [
                "loadgen", "--sessions", "2", "--workers", "1",
                "--max-attempts", "1", "--seed", "5",
                "--trace-out", trace, "--metrics-out", metrics,
            ],
            out=out,
        )
        assert code in (0, 1)
        assert "trace:" in out.getvalue()
        # every line of the export is a well-formed span object
        import json as _json

        with open(trace, "r", encoding="utf-8") as fh:
            spans = [_json.loads(line) for line in fh if line.strip()]
        assert spans
        roots = [s for s in spans if s["name"] == "session"]
        assert len(roots) == 2

        out = io.StringIO()
        assert cli.main(["obs", "trace", trace], out=out) == 0
        rendered = out.getvalue()
        assert "session" in rendered and "encode" in rendered

        session_id = roots[0]["attributes"]["session_id"]
        out = io.StringIO()
        code = cli.main(
            ["obs", "trace", trace, "--session", session_id], out=out
        )
        assert code == 0
        assert session_id in out.getvalue()

        out = io.StringIO()
        assert cli.main(["obs", "metrics", metrics], out=out) == 0
        prom = out.getvalue()
        assert "# TYPE service_admitted counter" in prom
        assert 'pipeline_windows{encoder="imu_en"}' in prom
        assert 'service_total_s_bucket{le="+Inf"} 2' in prom

    def test_obs_trace_unknown_session_fails_cleanly(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        out = io.StringIO()
        code = cli.main(
            ["obs", "trace", str(trace), "--session", "nope"], out=out
        )
        assert code == 1
        assert "no spans" in out.getvalue()

    def test_establish_profile_prints_layer_table(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(
            ["establish", "--seed", "3", "--key-bits", "128", "--profile"],
            out=out,
        )
        assert code in (0, 1)
        text = out.getvalue()
        assert "per-layer profile:" in text
        assert "imu_encoder/" in text


class TestAttack:
    def test_guess_campaign(self, tiny_asset):
        out = io.StringIO()
        code = cli.main(
            ["attack", "guess", "--trials", "20", "--seed", "2"], out=out
        )
        assert code in (0, 2)
        assert "random-guessing" in out.getvalue()

    def test_argparse_rejects_unknown(self, tiny_asset):
        with pytest.raises(SystemExit):
            cli.main(["attack", "nonsense"])
