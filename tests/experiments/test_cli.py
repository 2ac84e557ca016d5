"""Smoke tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "#1 (Fig 2)" in out


def test_list_policies(capsys):
    assert main(["list-policies"]) == 0
    out = capsys.readouterr().out
    assert "ewma" in out
    assert "lru" in out


def test_run_short_simulation(capsys):
    code = main(
        [
            "run",
            "--granularity",
            "AC",
            "--hours",
            "0.3",
            "--clients",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hit ratio" in out
    assert "response time" in out
    # Peak RSS is a host measurement: only --profile prints it.
    assert "peak RSS" not in out


def test_run_with_trace_and_summarize(capsys, tmp_path):
    trace_path = str(tmp_path / "run.jsonl")
    code = main(
        [
            "run",
            "--hours",
            "0.2",
            "--clients",
            "2",
            "--trace",
            trace_path,
            "--profile",
            "--staleness-timeline",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace         :" in out
    assert "wall-clock profile:" in out
    peak = next(
        line for line in out.splitlines() if line.startswith("peak RSS")
    )
    assert float(peak.split(":")[1].split()[0]) > 0
    assert "staleness timeline" in out

    assert main(["trace", "summarize", trace_path]) == 0
    summary_out = capsys.readouterr().out
    assert "QueryComplete" in summary_out
    assert "CacheAccess" in summary_out
    # The export and the summary agree on the event total.
    events_line = next(
        line for line in summary_out.splitlines()
        if line.startswith("events")
    )
    total = int(events_line.split(":")[1])
    assert f"trace         : {total} events" in out


def test_check_trace_reports_a_mistyped_record(capsys, tmp_path):
    # Parses as JSON but carries a string where an int belongs: the
    # check ends with its report, not a traceback from a checker.
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"type": "CacheAdmit", "time": 2.0, "client_id": 0, '
        '"cache": "c", "key": "k", "size_bytes": "big", '
        '"evictions": 0}\n'
    )
    assert main(["check-trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 events" in out and "1 malformed line(s) skipped" in out


def test_check_trace_reports_unknown_records(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type": "FutureEvent", "time": 1.0}\n')
    assert main(["check-trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok: 0 events" in out
    assert "1 unknown record(s) skipped" in out


def test_check_trace_failure_still_reports_skipped_lines(capsys, tmp_path):
    # A completion with no access fails CAU002; the truncated and the
    # unknown line must not vanish from the FAIL summary.
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"type": "QueryComplete", "time": 1.0, "client_id": 0, '
        '"query_id": 1, "response_seconds": 1.0, "connected": true}\n'
        '{"type": "CacheAccess", "time": 2.0, "cli\n'
        '{"type": "FutureEvent", "time": 3.0}\n'
    )
    assert main(["check-trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL: 1 violation(s) over 1 events (CAU002 x1)" in out
    assert "1 malformed line(s) skipped" in out
    assert "1 unknown record(s) skipped" in out


def test_check_trace_counts_an_undecodable_line(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    assert main(["check-trace", str(path)]) == 0
    captured = capsys.readouterr()
    assert "1 malformed line(s) skipped" in captured.out
    assert captured.err == ""


def test_run_trace_into_missing_directory_exits_2(
    capsys, monkeypatch, tmp_path
):
    from repro.experiments.runner import Simulation

    def no_run(self):
        raise AssertionError("the simulation started")

    monkeypatch.setattr(Simulation, "run", no_run)
    trace = str(tmp_path / "absent" / "x.jsonl")
    code = main([
        "run", "--hours", "0.05", "--clients", "1", "--trace", trace,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert trace in captured.err


def test_trace_summarize_missing_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "absent.jsonl")
    assert main(["trace", "summarize", missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "absent.jsonl" in captured.err


def test_trace_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_run_rejects_bad_granularity():
    with pytest.raises(SystemExit):
        main(["run", "--granularity", "ZZ"])


@pytest.mark.parametrize("hours", ["nan", "inf", "0", "-1"])
def test_run_rejects_bad_horizon(capsys, hours):
    assert main(["run", f"--hours={hours}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "horizon" in err


def test_run_rejects_nonfinite_beta(capsys):
    assert main(["run", "--hours", "0.1", "--beta", "nan"]) == 2
    assert "beta" in capsys.readouterr().err


def test_experiment_requires_valid_number(capsys):
    """Paper experiments run as scenarios; there is no Experiment #9."""
    assert main(["scenario", "run", "exp9-granularity", "--quiet"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    # The old per-number subcommand is gone.
    with pytest.raises(SystemExit):
        main(["experiment", "1", "--hours", "0.1"])


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


def paper_experiment(name, *extra):
    """The paper's single-run table of one scenario at a tiny horizon."""
    return main(["scenario", "run", name, "--replications", "1",
                 "--warmup", "0", "--hours", "0.2", "--quiet", *extra])


@pytest.fixture(scope="module")
def change_rates_table():
    """The serial Figure 5 table, shared by the tests that read it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert paper_experiment("exp4-change-rates", "--jobs", "1") == 0
    return out.getvalue()


def test_experiment_four_smoke(capsys, change_rates_table):
    """Experiment #4 (Figures 5 and 6) at a tiny horizon."""
    assert paper_experiment("exp4-cyclic") == 0
    out = change_rates_table + capsys.readouterr().out
    assert "Figure 5" in out
    assert "Figure 6" in out
    assert "ewma-0.5" in out
    # A single replication has no interval to print.
    assert "±" not in out


def test_experiment_six_smoke(capsys, tmp_path):
    """Experiment #6 (Figure 8) reports the disconnected error rate."""
    for name in ("exp6-durations", "exp6-client-counts"):
        out_path = tmp_path / f"{name}.json"
        assert paper_experiment(name, "--out", str(out_path)) == 0
        envelope = json.loads(out_path.read_text())
        assert not envelope["failures"]
        for record in envelope["records"]:
            assert 0.0 <= record["disconnected_error_rate"] <= 1.0


def test_experiment_jobs_flag_matches_serial(capsys, change_rates_table):
    """--jobs N must be invisible in the rendered output."""
    assert paper_experiment("exp4-change-rates", "--jobs", "2") == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == change_rates_table
    assert "Figure 5" in parallel_out
