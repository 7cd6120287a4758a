"""The evaluation runner ``jobs/run.py``: its table names the six
artefacts, each entry binds to its experiment's ``run()``, and every
command and module the docs name exists. Neither Spark nor a search is
started."""
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
ARTEFACTS = ("fig10", "fig11", "fig12", "fig13", "fig14", "table1")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


@pytest.fixture(scope="module")
def runner():
    path = ROOT / "jobs" / "run.py"
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


def _documented_commands():
    """(doc, arguments) for every ``python jobs/run.py ...`` in the docs,
    up to the end of its code span or line, or a shell comment."""
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for m in re.finditer(r"python jobs/run\.py ([^`\n#]*)", text):
            yield doc, m.group(1).split()


def test_documented_commands_parse(runner, monkeypatch):
    """Each documented command names an artefact and only options it
    takes: ``main()`` parses it, and the keywords it passes bind to the
    experiment's ``run()``, which is not called."""
    commands = list(_documented_commands())
    assert {args[0] for _, args in commands} == set(ARTEFACTS)

    class Session:
        def stop(self):
            pass

    monkeypatch.setattr(runner, "start_spark", lambda *a, **k: Session())
    for artefact, (run, *rest) in list(runner.ARTEFACTS.items()):
        def bind(*args, run=run, **kwargs):
            inspect.signature(run).bind(*args, **kwargs)
            return pd.DataFrame()
        monkeypatch.setitem(runner.ARTEFACTS, artefact, (bind, *rest))
    for doc, args in commands:
        monkeypatch.setattr(sys, "argv", ["run.py", *args])
        try:
            runner.main()
        except SystemExit:
            pytest.fail(f"{doc}: python jobs/run.py {' '.join(args)} is rejected")


def _module_map():
    """The ``src/repro/...`` paths named in DESIGN.md's module map."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("### Module map", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"src/repro/[\w/]+\.py", section))


def test_module_map_names_every_module():
    """DESIGN.md's module map names existing modules only, and every
    module of the package but its ``__init__`` files."""
    modules = {
        p.relative_to(ROOT).as_posix()
        for p in (ROOT / "src" / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert _module_map() == modules
