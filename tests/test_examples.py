"""Smoke tests: every example script runs to completion.

The month example is exercised at reduced scale via its CLI flags; the
live-cluster example runs real threads and finishes in about a second.
"""

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "completed: 6/6 jobs" in out
    assert "leverage" in out


def test_fairness_heavy_vs_light(capsys):
    run_example("fairness_heavy_vs_light.py")
    out = capsys.readouterr().out
    assert "Up-Down (the paper's algorithm)" in out
    assert "First-come-first-served baseline" in out
    assert "3/3 done" in out


def test_checkpoint_migration(capsys):
    run_example("checkpoint_migration.py")
    out = capsys.readouterr().out
    assert "desk -> spare" in out
    assert "leverage" in out


def test_parameter_sweep(capsys):
    run_example("parameter_sweep.py")
    out = capsys.readouterr().out
    assert "DAG finished" in out
    assert "reserved capacity" in out


def test_simulated_month_scaled(capsys):
    run_example("simulated_month.py",
                ["--days", "2", "--scale", "0.03",
                 "--exhibit", "headline_scalars"])
    out = capsys.readouterr().out
    assert "Headline scalars" in out


def test_live_cluster(capsys):
    run_example("live_cluster.py")
    out = capsys.readouterr().out
    assert "pi-series finished" in out
    assert "->" in out   # migrated between workers


def test_mixed_pool_parallel(capsys):
    run_example("mixed_pool_parallel.py")
    out = capsys.readouterr().out
    assert "gang finished: True" in out
    assert "sun-desk -> sun-spare" in out
