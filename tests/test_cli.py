"""Tests for the command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_scenario_default(self):
        args = cli.build_parser().parse_args(["summary"])
        assert args.scenario == "tiny"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            cli._scenario("bogus")

    def test_blocklist_day_flag(self):
        args = cli.build_parser().parse_args(["blocklist", "--day", "2"])
        assert args.day == 2

    def test_mode_default_and_choices(self):
        args = cli.build_parser().parse_args(["summary"])
        assert args.mode == "batch"
        args = cli.build_parser().parse_args(["--mode", "streaming", "summary"])
        assert args.mode == "streaming"
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--mode", "bogus", "summary"])

    def test_chunk_hours_requires_streaming(self):
        with pytest.raises(SystemExit, match="requires --mode streaming"):
            cli.main(["--chunk-hours", "2", "summary"])

    def test_workers_allowed_in_batch_mode(self, capsys):
        # Batch mode accepts --workers now: the columnar flow synthesis
        # behind impact/mitigation shards across the pool in any mode.
        assert (
            cli.main(["--scenario", "tiny", "--workers", "2", "impact"]) == 0
        )
        out = capsys.readouterr().out
        assert "Router-1" in out

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit, match=">= 1"):
            cli.main(["--mode", "streaming", "--workers", "0", "summary"])
        with pytest.raises(SystemExit, match=">= 1"):
            cli.main(["--workers", "0", "summary"])

    def test_schedule_flag_is_usage_error(self, capsys):
        # Each parallel stage has one fixed shard layout; there is no
        # option to pick another.
        for argv in (
            ["--workers", "2", "--schedule", "stealing", "summary"],
            ["--workers", "2", "summary", "--schedule", "stealing"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv)
            assert exit_info.value.code == 2
        assert "unrecognized arguments: --schedule" in capsys.readouterr().err


class TestCommands:
    """End-to-end CLI runs over the tiny scenario (one per command)."""

    def test_summary(self, capsys):
        assert cli.main(["--scenario", "tiny", "summary"]) == 0
        out = capsys.readouterr().out
        assert "darknet packets" in out
        assert "Definition 1" in out
        assert "Jaccard" in out

    def test_summary_streaming(self, capsys):
        assert (
            cli.main(
                [
                    "--scenario", "tiny",
                    "--mode", "streaming",
                    "--chunk-hours", "6",
                    "summary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming pipeline telemetry" in out
        assert "peak open flows" in out
        assert "max watermark lag" in out
        assert "stage detect" in out
        # Same detections as the batch table would show.
        assert "Definition 1" in out

    def test_summary_streaming_workers(self, capsys):
        assert (
            cli.main(
                [
                    "--scenario", "tiny",
                    "--mode", "streaming",
                    "--workers", "2",
                    "summary",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Streaming pipeline telemetry" in out
        assert "workers" in out
        assert "worker 0" in out
        assert "worker 1" in out
        assert "Definition 1" in out

    def test_impact(self, capsys):
        assert cli.main(["--scenario", "tiny", "impact"]) == 0
        out = capsys.readouterr().out
        assert "Router-1" in out
        assert "%" in out

    def test_blocklist(self, capsys):
        assert cli.main(["--scenario", "tiny", "blocklist", "--day", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# ip,definitions")
        assert "entries" in captured.err

    def test_trends(self, capsys):
        assert cli.main(["--scenario", "tiny", "trends"]) == 0
        out = capsys.readouterr().out
        assert "daily AH" in out

    def test_ports(self, capsys):
        assert cli.main(["--scenario", "tiny", "ports"]) == 0
        out = capsys.readouterr().out
        assert "service" in out
        assert "zmap" in out

    def test_churn(self, capsys):
        assert cli.main(["--scenario", "tiny", "churn"]) == 0
        out = capsys.readouterr().out
        assert "retention" in out
        assert "refresh" in out

    def test_mitigation(self, capsys):
        assert cli.main(
            ["--scenario", "tiny", "mitigation", "--lag", "0", "--max-entries", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "blocked pkts" in out
        assert "AH coverage" in out
        assert "Overall:" in out
