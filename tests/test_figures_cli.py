"""Tests for the python -m repro.figures CLI (fast figures only)."""

import pytest

from repro.figures import FIGURES, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in FIGURES:
            assert fig in out

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_fig01_output(self, capsys):
        assert main(["fig01"]) == 0
        out = capsys.readouterr().out
        assert "wfq" in out and "2dfq" in out
        assert "W0 |" in out

    def test_fig05_and_fig06(self, capsys):
        assert main(["fig05", "fig06"]) == 0
        out = capsys.readouterr().out
        assert out.count("=====") >= 2
        assert "a1 c1 d1" in out  # the 2DFQ partitioned schedule

    def test_trace_flag_exports_run_telemetry(self, capsys, tmp_path):
        import json

        trace_dir = tmp_path / "traces"
        assert main(["fig06", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "trace artifacts" in out
        runs = [p for p in trace_dir.iterdir() if p.is_dir()]
        assert len(runs) == 1
        run_dir = runs[0]
        assert "2dfq" in run_dir.name
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
        ]
        assert any(e["kind"] == "select" for e in events)
        chrome = json.loads((run_dir / "chrome_trace.json").read_text())
        assert chrome["traceEvents"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["counters"]["scheduler.dispatches"] > 0
        assert manifest["scheduler"]["name"] == "2dfq"

    def test_without_trace_flag_nothing_is_written(self, capsys, tmp_path):
        from repro.obs import current_session

        assert main(["fig06"]) == 0
        assert current_session() is None

    def test_audit_flag_exports_audit_artifacts(self, capsys, tmp_path):
        import json

        # fig09's three production runs each write the three monitors
        # with five samples at 0.5 s: the smallest run that reaches every
        # artifact.
        audit_dir = tmp_path / "audit"
        assert main(["fig09", "--duration", "0.5", "--audit", str(audit_dir)]) == 0
        assert "trace artifacts" in capsys.readouterr().out
        runs = [p for p in audit_dir.iterdir() if p.is_dir()]
        assert runs
        for run_dir in runs:
            report = json.loads((run_dir / "audit_report.json").read_text())
            assert {"lag", "bursty", "estimator_drift"} <= set(report["monitors"])
            assert report["samples"] > 0
            assert {path.name for path in run_dir.iterdir()} <= {
                "events.jsonl",
                "chrome_trace.json",
                "manifest.json",
                "audit_report.json",
                "flight_recorder.json",
            }
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert "audit" in manifest


def assert_usage_error(capsys, argv):
    """``argv`` fails as a one-line usage error: exit 2, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("python -m repro.figures: error: ")
    return err


class TestParallelFlags:
    @pytest.mark.parametrize("flag", ["--trace", "--audit"])
    def test_trace_with_cache_rejected(self, capsys, tmp_path, flag):
        # A cached run has no events, so a traced run served from the
        # cache would export a trace without them.
        err = assert_usage_error(
            capsys,
            ["fig09", "--duration", "0.5", flag, str(tmp_path / "t"),
             "--cache", str(tmp_path / "c")],
        )
        assert "--cache" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig08", "--duration", "0"],
            ["fig08", "--duration", "nan"],
            ["fig08", "--duration", "-1"],
            ["figfleet", "--servers", "1"],
            ["fig08", "--cache", "/dev/null/x"],
            ["fig06", "--trace", "/dev/null/x"],
            ["fig06", "--audit", "/dev/null/x"],
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv):
        err = assert_usage_error(capsys, argv)
        assert argv[-2] in err

    def test_audit_with_trace_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["fig06", "--trace", str(tmp_path / "t"),
                 "--audit", str(tmp_path / "a")]
            )

    def test_bad_fault_plan_is_a_usage_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"deadlines": [{"deadline": NaN}]}')
        with pytest.raises(SystemExit) as exc:
            main(["fig08", "--duration", "1", "--faults", str(plan)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "deadlines[0]" in err
        assert "Traceback" not in err

    def test_cache_cold_then_warm_identical_output(self, capsys, tmp_path):
        def strip_cache_stats(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("run cache:")
            ]

        cache_dir = tmp_path / "runcache"
        args = ["fig09", "--duration", "0.5", "--cache", str(cache_dir)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        # One stored run per scheduler of fig09's comparison.
        assert "3 stored" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 miss(es)" in warm
        assert strip_cache_stats(warm) == strip_cache_stats(cold)
