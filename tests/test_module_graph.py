"""The package's import graph points one way: each module loads only its layer
and the layers beneath it, and the package root loads nothing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import answer_or_search

CORPUS = {"_stopwords", "corpus", "errors", "fileio"}
INFERENCE = CORPUS | {"inference"}
EVALUATION = CORPUS | {"evaluation"}
ALL = {path.stem for path in Path(answer_or_search.__file__).parent.glob("*.py")} - {"__init__"}

EXPECTED = {
    "errors": {"errors"},
    "fileio": {"errors", "fileio"},
    "mock_service": {"errors", "fileio", "mock_service"},
    "corpus": CORPUS,
    "inference": INFERENCE,
    "labeling": INFERENCE | {"labeling"},
    "ppl_threshold": INFERENCE | {"ppl_threshold"},
    "evaluation": EVALUATION,
    "analysis": EVALUATION | {"analysis"},
    "cli": ALL - {"mock_service"},
}


def test_every_module_has_an_expected_set():
    assert set(EXPECTED) == ALL - {"_stopwords"}


def loaded_modules(name: str) -> set[str]:
    """The package modules in ``sys.modules`` after a fresh interpreter imports ``name``."""
    probe = (
        "import importlib, json, sys\n"
        f"importlib.import_module({name!r})\n"
        "prefix = 'answer_or_search.'\n"
        "print(json.dumps([m[len(prefix):] for m in sys.modules if m.startswith(prefix)]))\n"
    )
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_the_package_root_loads_no_module():
    assert loaded_modules("answer_or_search") == set()


@pytest.mark.parametrize("module", sorted(EXPECTED))
def test_importing_a_module_alone_loads_only_its_layers(module):
    assert loaded_modules(f"answer_or_search.{module}") == EXPECTED[module]
