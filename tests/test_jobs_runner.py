"""The evaluation runner ``jobs/run.py``: its table names the six
artefacts, and each entry binds to its experiment's ``run()``. Neither
Spark nor a search is started."""
import importlib.util
import inspect
from pathlib import Path

import pytest

ARTEFACTS = ("fig10", "fig11", "fig12", "fig13", "fig14", "table1")


@pytest.fixture(scope="module")
def runner():
    path = Path(__file__).resolve().parents[1] / "jobs" / "run.py"
    spec = importlib.util.spec_from_file_location("jobs_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_names_the_six_artefacts(runner):
    assert sorted(runner.ARTEFACTS) == sorted(ARTEFACTS)


@pytest.mark.parametrize("artefact", ARTEFACTS)
def test_runner_entry_binds_to_its_run(runner, artefact):
    """The session (when the entry needs Spark), the fixed keywords and
    every accepted option bind to ``run``, and nothing it requires is
    left out."""
    run, fixed, accepted, needs_spark = runner.ARTEFACTS[artefact]
    session = ["spark"] if needs_spark else []
    options = {runner.OPTIONS[opt]: None for opt in accepted}
    inspect.signature(run).bind(*session, **fixed, **options)
