"""Tests for the repro-condor command line."""

import fcntl
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import ABLATIONS, build_parser, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_month_subcommand_prints_exhibit(capsys):
    rc = main(["month", "--days", "2", "--scale", "0.03",
               "--exhibit", "headline_scalars"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Headline scalars" in out
    assert "hours consumed by Condor" in out


def test_ablation_subcommand(capsys):
    rc = main(["ablation", "updown", "fcfs", "--days", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "updown" in out and "fcfs" in out
    assert "light wait" in out


def test_trace_subcommand_writes_json(tmp_path, capsys):
    path = tmp_path / "trace.json"
    rc = main(["trace", str(path), "--days", "2", "--scale", "0.03"])
    assert rc == 0
    records = json.loads(path.read_text())
    assert records and "demand_seconds" in records[0]


def test_demo_subcommand(capsys):
    rc = main(["demo"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jobs completed" in out


def test_all_named_ablations_resolvable():
    for name, (kind, factory) in ABLATIONS.items():
        assert kind in ("policy", "config")
        assert factory() is not None


def test_stations_subcommand(capsys):
    rc = main(["stations", "--days", "2", "--scale", "0.03"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Per-station accounting" in out
    assert "TOTAL" in out


def test_month_csv_export(tmp_path, capsys):
    rc = main(["month", "--days", "2", "--scale", "0.03",
               "--exhibit", "table_1", "--csv", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CSV files" in out
    assert (tmp_path / "table_1.csv").exists()


@pytest.fixture(scope="module")
def mini_trace(tmp_path_factory):
    """A small recorded run shared by the query-verb tests."""
    path = tmp_path_factory.mktemp("cli-traces") / "mini.jsonl"
    rc = main(["month", "--days", "2", "--scale", "0.03",
               "--exhibit", "headline_scalars", "--trace", str(path)])
    assert rc == 0
    return path


def test_query_summary_matches_replay(mini_trace, tmp_path, capsys):
    db = tmp_path / "ops.sqlite"
    rc = main(["query", "summary", "--trace", str(mini_trace),
               "--db", str(db), "--check-replay", str(mini_trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ingested" in out
    assert "hours consumed by Condor" in out
    assert "matches replay" in out and "bit-for-bit" in out


def test_query_reingest_is_noop(mini_trace, tmp_path, capsys):
    db = tmp_path / "ops.sqlite"
    assert main(["query", "tables", "--trace", str(mini_trace),
                 "--db", str(db)]) == 0
    first = capsys.readouterr().out
    assert main(["query", "tables", "--trace", str(mini_trace),
                 "--db", str(db)]) == 0
    second = capsys.readouterr().out
    assert "ingested 0 new events" in second
    # Table row counts are identical after the no-op re-ingest.
    assert first.splitlines()[1:] == second.splitlines()[1:]


def test_query_canned_reports(mini_trace, tmp_path, capsys):
    db = tmp_path / "ops.sqlite"
    assert main(["query", "tables", "--trace", str(mini_trace),
                 "--db", str(db)]) == 0
    capsys.readouterr()
    for report, needle in [
        ("fair-share", "Up-Down view"),
        ("checkpoints", "Checkpoint-loss audit"),
        ("utilization", "heatmap"),
        ("timeline", "timeline"),
        ("jobs", "lifecycle"),
    ]:
        assert main(["query", report, "--db", str(db)]) == 0
        assert needle in capsys.readouterr().out


def test_query_sql_escape_hatch(mini_trace, tmp_path, capsys):
    db = tmp_path / "ops.sqlite"
    assert main(["query", "sql",
                 "SELECT kind, COUNT(*) AS n FROM events GROUP BY kind "
                 "ORDER BY n DESC LIMIT 3",
                 "--trace", str(mini_trace), "--db", str(db)]) == 0
    out = capsys.readouterr().out
    assert "kind" in out and "ledger_entry" in out


def test_query_sql_requires_statement(capsys):
    rc = main(["query", "sql", "--db", "unused.sqlite"])
    assert rc == 2
    assert "statement" in capsys.readouterr().err


def test_query_requires_db_or_trace(capsys):
    rc = main(["query", "summary"])
    assert rc == 2
    assert "--db" in capsys.readouterr().err


def test_query_missing_store_is_not_created(tmp_path, capsys):
    db = tmp_path / "typo.sqlite"
    rc = main(["query", "fair-share", "--db", str(db)])
    assert rc == 2
    assert f"error: no ops store at {db}" in capsys.readouterr().err
    assert not db.exists()


def test_query_missing_trace_errors(tmp_path, capsys):
    rc = main(["query", "summary", "--trace",
               str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_query_tails_a_trace_torn_mid_line(mini_trace, tmp_path, capsys):
    """A live trace is usually torn mid-line (the recorder writes through
    a block buffer): the complete prefix is ingested, the rest later."""
    data = mini_trace.read_bytes()
    complete = data.count(b"\n", 0, len(data) // 2)
    live = tmp_path / "live.jsonl"
    live.write_bytes(data[:len(data) // 2])
    assert not live.read_bytes().endswith(b"\n")
    db = tmp_path / "ops.sqlite"
    assert main(["query", "tables", "--trace", str(live),
                 "--db", str(db)]) == 0
    assert f"ingested {complete:,} new events" in capsys.readouterr().out
    live.write_bytes(data)
    assert main(["query", "summary", "--trace", str(live), "--db", str(db),
                 "--check-replay", str(mini_trace)]) == 0
    out = capsys.readouterr().out
    rest = data.count(b"\n") - complete
    assert f"ingested {rest:,} new events" in out
    assert "bit-for-bit" in out


@pytest.mark.parametrize("line, complaint", [
    ("garbage", "not JSON"),
    ('{"t": 0.0, "src": "ws-01", "kind": "job_submitted"}',
     "record lacks seq"),
    ('{"kind": "job_submitted", "payload": [1], "seq": 40, "src": "ws-01", '
     '"t": 0.0}', "payload is not a JSON object: list"),
    ('{"kind": "job_submitted", "seq": 40, "src": "ws-01", "t": "abc"}',
     "t is not a number: str"),
    ('{"kind": "job_submitted", "seq": 40, "src": "ws-01", "t": true}',
     "t is not a number: bool"),
    ('{"kind": "job_submitted", "seq": "0", "src": "ws-01", "t": 0.0}',
     "seq is not an integer: str"),
    ('{"kind": "job_submitted", "seq": false, "src": "ws-01", "t": 0.0}',
     "seq is not an integer: bool"),
    ('{"kind": 5, "seq": 40, "src": "ws-01", "t": 0.0}',
     "kind is not a string: int"),
    ('{"kind": "job_submitted", "seq": 40, "src": null, "t": 0.0}',
     "src is not a string: NoneType"),
    ('{"kind": "job_submitted", "seq": 39, "src": "ws-01", "t": 0.0}',
     "seq 39 repeats or steps back (after seq 39)"),
    ('{"kind": "job_submitted", "seq": 3, "src": "ws-01", "t": 0.0}',
     "seq 3 repeats or steps back (after seq 39)"),
    ('{"kind": "job_submitted", "seq": -1, "src": "ws-01", "t": 0.0}',
     "seq -1 is negative"),
])
def test_query_malformed_trace_names_the_line(mini_trace, tmp_path, capsys,
                                              line, complaint):
    lines = mini_trace.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:40] + [line] + lines[40:]) + "\n")
    rc = main(["query", "tables", "--trace", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {bad}:41: {complaint}")
    assert "Traceback" not in err
    # Nothing was ingested: the store is as empty as it was opened.
    assert main(["query", "sql", "SELECT COUNT(*) FROM events",
                 "--db", f"{bad}.sqlite"]) == 0
    assert capsys.readouterr().out.split()[-1] == "0"


def test_query_rejects_a_repeated_seq_appended_to_an_ingested_trace(
        mini_trace, tmp_path, capsys):
    lines = mini_trace.read_text().splitlines(keepends=True)
    live = tmp_path / "live.jsonl"
    live.write_text("".join(lines[:40]))
    assert main(["query", "tables", "--trace", str(live)]) == 0
    capsys.readouterr()
    with open(live, "a") as fh:
        fh.writelines([lines[39], lines[40]])
    assert main(["query", "tables", "--trace", str(live)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {live}:41: seq 39 repeats or steps back (after seq 39)")


@pytest.mark.parametrize("line, complaint", [
    ('{"kind": "job_submitted", "seq": 40, "src": "ws-01", "t": "abc"}',
     "t is not a number: str"),
    ('{"kind": "job_submitted", "seq": "0", "src": "ws-01", "t": 0.0}',
     "seq is not an integer: str"),
    ('{"kind": 5, "seq": 40, "src": "ws-01", "t": 0.0}',
     "kind is not a string: int"),
    ('{"kind": "job_submitted", "seq": 39, "src": "ws-01", "t": 0.0}',
     "seq 39 repeats or steps back (after seq 39)"),
    ('{"kind": "job_submitted", "seq": 3, "src": "ws-01", "t": 0.0}',
     "seq 3 repeats or steps back (after seq 39)"),
])
def test_replay_malformed_trace_names_the_line(mini_trace, tmp_path, capsys,
                                               line, complaint):
    lines = mini_trace.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:40] + [line] + lines[41:]) + "\n")
    rc = main(["replay", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(
        f"error: cannot replay {bad}: {bad}:41: {complaint}")
    assert "Traceback" not in err


def test_sweep_pools_runs_in_process(capsys):
    rc = main(["sweep", "--pools", "2", "--seeds", "1,2", "--days", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    header, _rule, *rows = out[out.index("seed "):].splitlines()
    assert "leases_granted" in header.split()
    assert [row.split()[0] for row in rows] == ["1", "2", "mean"]
    leases = header.split().index("leases_granted")
    assert all(float(row.split()[leases]) > 0 for row in rows)


@pytest.mark.parametrize("argv", [
    ["month", "--shards", "2"],
    ["month", "--stations", "8"],
    ["month", "--cells", "4"],
    ["sweep", "--shards", "2"],
    ["sweep", "--cells", "4"],
    ["chaos", "--shards", "2"],
    ["chaos", "--days", "1"],
    ["chaos", "--stations", "8"],
    ["chaos", "--cells", "4"],
    ["chaos", "--pools", "2"],
], ids=lambda argv: argv[0] + argv[1])
def test_space_parallel_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--seeds", "5..1"], "--seeds"),
    (["sweep", "--seeds", "x"], "--seeds"),
    (["month", "--days", "0"], "--days"),
    (["trace", "unused.json", "--days", "0"], "--days"),
    (["stations", "--days", "0"], "--days"),
    (["sweep", "--pools", "-1"], "--pools"),
    (["sweep", "--jobs", "-1"], "--jobs"),
    (["query", "jobs", "--db", "d.sqlite", "--limit", "-3"], "--limit"),
    (["serve", "--db", "d.sqlite", "--agent-timeout", "nan"],
     "--agent-timeout"),
    (["serve", "--db", "d.sqlite", "--agent-timeout", "0"],
     "--agent-timeout"),
    (["serve", "--db", "d.sqlite", "--poll", "-1"], "--poll"),
    (["serve", "--db", "d.sqlite", "--standby-check", "inf"],
     "--standby-check"),
    (["serve", "--db", "d.sqlite", "--standby-misses", "0"],
     "--standby-misses"),
    (["agent", "a", "--ckpt", "c", "--heartbeat", "0"], "--heartbeat"),
    (["submit", "m:f", "--count", "0"], "--count"),
    (["submit", "m:f", "--timeout", "nan"], "--timeout"),
    (["q", "--timeout", "-1"], "--timeout"),
    (["q", "--timeout", "nan"], "--timeout"),
    (["q", "--limit", "0"], "--limit"),
    (["rm", "#1", "--timeout", "0"], "--timeout"),
    (["drain", "--wait", "-5"], "--wait"),
    (["drain", "--timeout", "inf"], "--timeout"),
], ids=["seeds-reversed", "seeds-malformed", "month-days-0",
        "trace-days-0", "stations-days-0", "sweep-pools-negative",
        "sweep-jobs-negative", "query-limit-negative",
        "serve-agent-timeout-nan", "serve-agent-timeout-0",
        "serve-poll-negative", "serve-standby-check-inf",
        "serve-standby-misses-0", "agent-heartbeat-0", "submit-count-0",
        "submit-timeout-nan", "q-timeout-negative", "q-timeout-nan",
        "q-limit-0", "rm-timeout-0", "drain-wait-negative",
        "drain-timeout-inf"])
def test_bad_numeric_input_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["month", "--days", "1", "--scale", "nan"],
    ["sweep", "--seeds", "1", "--days", "1", "--scale", "inf"],
    ["month", "--days", "1", "--scale", "0"],
    ["month", "--days", "1", "--scale", "-1"],
], ids=["month-scale-nan", "sweep-scale-inf", "month-scale-0",
        "month-scale-negative"])
def test_scale_must_be_finite_and_positive(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "argument --scale:" in capsys.readouterr().err


@pytest.mark.parametrize("hours", ["0", "-3", "nan"])
def test_bucket_hours_must_be_finite_and_positive(hours, mini_trace,
                                                  tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "utilization", "--trace", str(mini_trace),
              "--db", str(tmp_path / "ops.sqlite"), "--bucket-hours", hours])
    assert excinfo.value.code == 2
    assert "argument --bucket-hours:" in capsys.readouterr().err


def test_more_pools_than_stations_is_an_error_not_a_traceback(capsys):
    assert main(["month", "--pools", "99", "--days", "1"]) == 2
    assert capsys.readouterr().err == "error: 99 pools for 23 stations\n"


def test_chaos_suite_help_lists_every_suite(capsys):
    from repro.analysis.chaos import SUITES

    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert ", ".join(sorted([*SUITES, "service"])) in out


def _reader_closes_after(argv, lines):
    """Run ``repro-condor argv`` into a one-page pipe whose reader takes
    ``lines`` lines and closes it; return (exit status, stderr).

    The pipe holds one page, so a verb that prints more than a page past
    those lines must still be writing when the reader has gone."""
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with os.fdopen(read_end, "rb", buffering=0) as reader:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC})
        os.close(write_end)
        for _ in range(lines):
            while reader.read(1) not in (b"\n", b""):
                pass
    err = proc.communicate(timeout=120)[1].decode()
    return proc.returncode, err


def test_month_output_to_a_reader_that_closes_early_exits_zero():
    # ``month ... | head -1``: the exhibits are 13 KB after the first line.
    status, err = _reader_closes_after(
        ["month", "--days", "1", "--scale", "0.03"], lines=1)
    assert (status, err) == (0, "")


def test_query_output_to_a_reader_that_closes_early_exits_zero(
        mini_trace, tmp_path):
    status, err = _reader_closes_after(
        ["query", "sql", "SELECT seq, kind FROM events",
         "--trace", str(mini_trace), "--db", str(tmp_path / "ops.sqlite")],
        lines=1)
    assert (status, err) == (0, "")


def test_replay_output_to_a_reader_that_closes_early_exits_zero(mini_trace):
    # Replay prints under a kilobyte, all of which a pipe holds, so only
    # a reader gone before the first line (``replay ... | true``) makes
    # it write to a closed pipe every time.
    status, err = _reader_closes_after(
        ["replay", str(mini_trace)], lines=0)
    assert (status, err) == (0, "")
