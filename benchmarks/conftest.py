"""Shared fixtures for the wall-clock benchmarks.

The deterministic exhibits (Table 1, Figures 2-9, ablations, extensions,
sensitivity) are not pytest benchmarks: ``benchmarks/exhibits.py``
regenerates and checks them.  What is left here times things: the
kernel micro-benchmarks, trace ingest, the service plane and the
delta-protocol scaling sweep.  ``show`` prints a timing table straight
to the terminal (bypassing capture) and archives it under
``benchmarks/results/``; ``quick`` is the CI-sized subset.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="benchmarks: skip the largest scaling sizes (CI subset)",
    )


@pytest.fixture(scope="session")
def quick(pytestconfig):
    """Whether the run asked for the CI-sized subset (``--quick``)."""
    return pytestconfig.getoption("--quick")


@pytest.fixture
def show(capsys):
    """Print text to the real terminal and save it under results/."""

    def _show(name, text):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _show
