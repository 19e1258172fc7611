"""Tests for the command-line interface."""

import os
import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        a = build_parser().parse_args(
            ["simulate", "--scenario", "small", "--hours", "0.5", "--out", "/tmp/x"]
        )
        assert a.command == "simulate" and a.hours == 0.5

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


@pytest.fixture(scope="module")
def city_prefix(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("cli") / "city")
    rc = main(["simulate", "--scenario", "small", "--hours", "1.0",
               "--seed", "3", "--out", prefix])
    assert rc == 0
    return prefix


class TestPipelineCommands:
    def test_simulate_outputs(self, city_prefix):
        assert os.path.exists(f"{city_prefix}.trace.txt")
        assert os.path.exists(f"{city_prefix}.net.json")
        assert os.path.getsize(f"{city_prefix}.trace.txt") > 10_000

    def test_stats(self, city_prefix, capsys):
        rc = main(["stats", f"{city_prefix}.trace.txt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "update interval" in out
        assert "stationary" in out

    def test_identify_with_truth(self, city_prefix, capsys):
        rc = main(["identify", "--city", city_prefix, "--at", "3600",
                   "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dCycle" in out  # ground truth present -> scored output
        assert "cycle" in out

    def test_identify_writes_report(self, city_prefix, capsys, tmp_path):
        import json

        path = str(tmp_path / "report.json")
        rc = main(["identify", "--city", city_prefix, "--at", "3600",
                   "--backend", "serial", "--report", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote run report" in out
        doc = json.loads(open(path).read())
        assert doc["schema"] == "repro.run_report/v1"
        assert doc["lights"]["total"] > 0
        assert doc["stages"]  # per-stage wall times present
        assert doc["counters"]["samples_primary"] > 0

    def test_navigate(self, capsys):
        rc = main(["navigate", "--cols", "4", "--rows", "4", "--trips", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall saving" in out


class TestEvaluateCommand:
    def test_evaluate(self, city_prefix, capsys):
        rc = main(["evaluate", "--city", city_prefix, "--times", "2700", "3600",
                   "--backend", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cycle length" in out and "cycle-locked" in out


class TestStreamCommand:
    def test_stream_replay(self, city_prefix, capsys, tmp_path):
        import json

        path = str(tmp_path / "stream_report.json")
        rc = main(["stream", "--city", city_prefix, "--chunk", "900",
                   "--report", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "chunk   0" in out
        assert "final estimates" in out
        assert "true cycle" in out  # ground truth present -> scored output
        doc = json.loads(open(path).read())
        assert doc["schema"] == "repro.run_report/v1"
        assert len(doc["chunks"]) >= 3
        assert sum(c["n_records"] for c in doc["chunks"]) > 0

    def test_stream_backend_flag_on_identify(self, city_prefix, capsys):
        """The one-shot stream alias and the process pool are gone;
        `repro stream` is the streaming entry point."""
        for args in (["identify", "--at", "3600"], ["evaluate", "--times", "3600"]):
            for backend in ("stream", "process"):
                with pytest.raises(SystemExit):
                    main([*args, "--city", city_prefix, "--backend", backend])
                assert "invalid choice" in capsys.readouterr().err


def _main_within(args, limit_s=60.0):
    """``main(args)`` on a daemon thread, failing if it runs past ``limit_s``.

    A lost wakeup in the serve layer parks ``serve-bench`` forever; the
    bound fails the test within a minute instead of hanging the run until
    the suite's watchdog.
    """
    outcome = {}

    def run():
        try:
            outcome["rc"] = main(args)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["exc"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(limit_s)
    if worker.is_alive():
        pytest.fail(f"{args[0]} did not return within {limit_s:.0f} s")
    if "exc" in outcome:
        raise outcome["exc"]
    return outcome["rc"]


class TestServeBenchCommand:
    def test_serve_bench_meets_slo(self, capsys, tmp_path):
        import json

        json_path = str(tmp_path / "serve.json")
        report_path = str(tmp_path / "serve_report.json")
        rc = _main_within(["serve-bench", "--tenants", "2", "--chunks", "3",
                           "--intersections", "1", "--evaluates-per-chunk", "2",
                           "--json", json_path, "--report", report_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLOs met" in out
        assert "0 stale, 0 torn, 0 parity mismatches" in out
        doc = json.loads(open(json_path).read())
        assert doc["n_tenants"] == 2
        assert doc["stale_violations"] == 0
        report = json.loads(open(report_path).read())
        assert report["schema"] == "repro.run_report/v1"
        assert len(report["services"]) == 2

    def test_serve_bench_flags_slo_violation(self, capsys):
        rc = _main_within(["serve-bench", "--tenants", "1", "--chunks", "2",
                           "--intersections", "1", "--evaluates-per-chunk", "1",
                           "--p99-slo-ms", "0.000001"])
        assert rc == 1
        assert "SLO FAILED" in capsys.readouterr().out


class TestMonitorCommand:
    def test_monitor(self, city_prefix, capsys):
        rc = main(["monitor", "--city", city_prefix, "--light", "0:NS",
                   "--every", "600"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "windows" in out and "cycle=" in out

    def test_monitor_bad_light(self, city_prefix, capsys):
        assert main(["monitor", "--city", city_prefix, "--light", "zzz"]) == 2
        assert main(["monitor", "--city", city_prefix, "--light", "99:NS"]) == 2


class TestOutputPaths:
    """An output path in a missing directory is a usage error raised
    while parsing, before the command does any work."""

    @pytest.mark.parametrize("args", [
        ["simulate", "--out"],
        ["identify", "--city", "nowhere", "--at", "0", "--report"],
        ["evaluate", "--city", "nowhere", "--times", "0", "--report"],
        ["stream", "--city", "nowhere", "--report"],
        ["serve-bench", "--tenants", "1", "--chunks", "2", "--intersections", "1",
         "--evaluates-per-chunk", "1", "--report"],
        ["serve-bench", "--json"],
        ["frontier", "--json"],
    ])
    def test_missing_directory_exits_2(self, args, tmp_path, capsys, monkeypatch):
        import repro.cli

        def no_work(_args):
            raise AssertionError("the command ran")

        command, flag = args[0], args[-1]
        missing = tmp_path / "missing"
        monkeypatch.setattr(repro.cli, f"_cmd_{command.replace('-', '_')}", no_work)
        with pytest.raises(SystemExit) as exc:
            main([*args, str(missing / "out.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err == (f"repro {command}: error: argument {flag}: "
                       f"directory {str(missing)!r} does not exist")

    def test_existing_directory_and_bare_name_parse(self, tmp_path):
        parser = build_parser()
        a = parser.parse_args(["simulate", "--out", str(tmp_path / "city")])
        assert a.out == str(tmp_path / "city")
        a = parser.parse_args(["frontier", "--json", "curve.json"])  # the working directory
        assert a.json == "curve.json"


class TestNumericRanges:
    """A count, duration or worker pool size out of range is a usage error
    raised while parsing.  The command's handler is replaced by one that
    fails and the city prefix does not exist, so a pass shows that the
    flag was refused before anything ran or was read."""

    @pytest.mark.parametrize("args", [
        ["simulate", "--out", "city", "--hours", "0"],
        ["simulate", "--out", "city", "--hours", "nan"],
        ["identify", "--city", "nowhere", "--at", "0", "--window", "0"],
        ["identify", "--city", "nowhere", "--at", "0", "--window", "inf"],
        ["identify", "--city", "nowhere", "--at", "0", "--backend", "shard",
         "--workers", "0"],
        ["evaluate", "--city", "nowhere", "--times", "0", "--workers", "-1"],
        ["monitor", "--city", "nowhere", "--light", "0:NS", "--every", "0"],
        ["monitor", "--city", "nowhere", "--light", "0:NS", "--window", "0"],
        ["stream", "--city", "nowhere", "--chunk", "0"],
        ["stream", "--city", "nowhere", "--chunk", "-60"],
        ["stream", "--city", "nowhere", "--window", "0"],
        ["serve-bench", "--tenants", "0"],
        ["serve-bench", "--chunks", "0"],
        ["serve-bench", "--evaluates-per-chunk", "0"],
        ["serve-bench", "--queue-depth", "0"],
        ["serve-bench", "--intersections", "0"],
        ["frontier", "--horizon", "0"],
        ["frontier", "--intersections", "0"],
        ["navigate", "--trips", "0"],
    ], ids=lambda a: "_".join((a[0], a[-2].lstrip("-"), a[-1])))
    def test_out_of_range_exits_2(self, args, capsys, monkeypatch):
        command, flag, value = args[0], args[-2], args[-1]
        assert self._refused(args, capsys, monkeypatch).startswith(
            f"repro {command}: error: argument {flag}: {value!r} is not a positive"
        )

    @pytest.mark.parametrize("args, reason", [
        (["navigate", "--cols", "1"], "is not an integer of at least 2"),
        (["navigate", "--rows", "1"], "is not an integer of at least 2"),
        (["frontier", "--horizon", "1000"],
         "ends before the first evaluation at 3600 s"),
    ], ids=["navigate_cols_1", "navigate_rows_1", "frontier_horizon_1000"])
    def test_below_command_minimum_exits_2(self, args, reason, capsys, monkeypatch):
        command, flag, value = args
        assert self._refused(args, capsys, monkeypatch) == (
            f"repro {command}: error: argument {flag}: {value!r} {reason}"
        )

    @staticmethod
    def _refused(args, capsys, monkeypatch):
        """The usage error's last line, with the command's handler stubbed out."""
        import repro.cli

        def no_work(_args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(repro.cli, f"_cmd_{args[0].replace('-', '_')}", no_work)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        return capsys.readouterr().err.strip().splitlines()[-1]

    def test_removed_backend_flags_are_usage_errors(self):
        for args in (["stream", "--city", "c", "--backend", "shard"],
                     ["stream", "--city", "c", "--workers", "2"],
                     ["frontier", "--backends", "batched", "serial"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(args)
            assert exc.value.code == 2

