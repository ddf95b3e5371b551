"""The exhibit table, EXPERIMENTS.md and benchmarks/results/ agree.

``benchmarks/exhibits.py`` is the one place an exhibit is defined: each
row writes ``results/<id>.txt`` and the EXPERIMENTS.md block after
``<!-- exhibit: <id> -->``.  A results file or a pasted block without a
row would drift unchecked, so the three id sets must be equal.  Nothing
here runs a simulation; ``exhibits.py --check`` compares the contents.
"""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Wall-clock tables: ``perf_smoke.py --suite coordinator --full``
#: rewrites this one, no row checks it.
TIMING_TABLES = {"scaling_delta_protocol"}


def _row_ids():
    spec = importlib.util.spec_from_file_location(
        "exhibits", ROOT / "benchmarks" / "exhibits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.ROWS)


def test_every_row_has_one_experiments_block_and_a_results_file():
    rows = _row_ids()
    markers = re.findall(r"^<!-- exhibit: (\S+) -->$",
                         (ROOT / "EXPERIMENTS.md").read_text(), re.MULTILINE)
    results = {path.stem for path in (ROOT / "benchmarks" / "results")
               .glob("*.txt")}
    assert sorted(markers) == rows
    assert sorted(results - TIMING_TABLES) == rows
