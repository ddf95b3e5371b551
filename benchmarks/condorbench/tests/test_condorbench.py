"""Self-test of condorbench on shrunken sizes (numbers not comparable).

Run explicitly — ``testpaths`` keeps it out of tier-1::

    PYTHONPATH=src python -m pytest benchmarks/condorbench/tests -q
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.dirname(HERE)
REPO = os.path.dirname(os.path.dirname(PACKAGE))
sys.path.insert(0, os.path.dirname(PACKAGE))

from condorbench import run, workloads  # noqa: E402
from condorbench.simpass import simulated_digest  # noqa: E402
from condorbench.trace import SimTracer  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section):
    return [entry["name"] for entry in MANIFEST[section]]


def test_manifest_names_the_workloads():
    assert _names("workloads") == list(workloads.WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/condorbench"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_pass_emits_exactly_the_manifest(name, tmp_path):
    plain = run.measure(name, 42, 1.0, trace=False, quick=True,
                        out_dir=str(tmp_path))
    traced = run.measure(name, 42, 1.0, trace=True, quick=True,
                         out_dir=str(tmp_path))
    assert plain["failed_checks"] == [] and plain["correct"]
    assert traced["failed_checks"] == [] and traced["correct"]
    assert list(plain["metrics"]) == _names("end_to_end")
    assert list(traced["metrics"]) == _names("per_layer")
    for section, record in (("end_to_end", plain), ("per_layer", traced)):
        units = {e["name"]: e["unit"] for e in MANIFEST[section]}
        for metric, cell in record["metrics"].items():
            assert NAME.fullmatch(metric)
            assert cell["unit"] == units[metric]
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())
    assert os.path.getsize(tmp_path / f"spans-{name}.jsonl") > 0
    if workloads.WORKLOADS[name]["kind"] == "sim":
        # Layer self times partition the traced wall: never more than
        # it, and nearly all of it.
        assert 0.85 <= traced["metrics"]["trace.attributed_ratio"][
            "value"] <= 1.0
    assert not os.path.exists(run.WORK_ROOT)


def test_wrappers_leave_the_simulation_unchanged():
    from repro.analysis.experiment import ExperimentRun
    from repro.sim.kernel import Simulation

    def digest():
        return simulated_digest(ExperimentRun(seed=7, days=1).execute())

    schedule = Simulation.schedule
    before = digest()
    tracer = SimTracer().install()
    try:
        assert Simulation.schedule is not schedule
        during = digest()
    finally:
        tracer.remove()
    assert Simulation.schedule is schedule
    assert before == during == digest()
    assert tracer.layers()["sim.kernel"][0] == 1


def test_calmest_share_drops_the_noisy_windows():
    from condorbench.stats import calmest_share

    # Ten one-second windows of ten jobs; a stall doubles six of them.
    offsets = [w + j / 10.0 for w in range(10) for j in range(10)]
    values = [(20.0 if w < 6 else 10.0) + j / 10.0
              for w in range(10) for j in range(10)]
    pool = calmest_share(offsets, values, 1.0, 1.0 / 3.0)
    assert len(pool) == 30 and max(pool) < 11.0
    # The ragged end of a run is not a window to choose.
    assert max(calmest_share(offsets + [10.0], values + [1.0],
                             1.0, 1.0 / 3.0)) < 11.0
    assert min(calmest_share(offsets + [10.0], values + [1.0],
                             1.0, 1.0 / 3.0)) >= 10.0
    assert calmest_share([], [], 1.0, 0.5) == []


def _result(wall_s):
    def side(value):
        return {"metrics": {m: {"value": value if m == "wall_s" else 1.0}
                            for m, *_ in run.names.END_TO_END},
                "samples": {"wall_s": [value * 0.99, value, value * 1.01]}}
    return {"workloads": {"paper_month": {"end_to_end": side(wall_s)}}}


def test_compare_flags_a_30_percent_regression(tmp_path):
    for label, wall_s in (("a", 3.0), ("b", 3.9), ("c", 3.1)):
        (tmp_path / f"{label}.json").write_text(json.dumps(_result(wall_s)))
    out = io.StringIO()
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                       out=out) == 1
    assert re.search(r"wall_s .* regressed", out.getvalue())
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "c.json"),
                       out=io.StringIO()) == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PACKAGE, tmp_path / "benchmarks" / "condorbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "spans-*"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/condorbench/run.py", "--workload",
         "paper_month", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
