"""The package's import graph points one way: each module loads only its layer
and the layers beneath it, and the package root loads nothing. Each CLI stage
loads only the modules of its own work."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import answer_or_search
from answer_or_search.cli import main
from answer_or_search.errors import EXIT_OK
from answer_or_search.mock_service import Script, serve

CORPUS = {"_stopwords", "corpus", "errors", "fileio"}
PREDICTIONS = CORPUS | {"predictions"}
ANALYSIS = {"errors", "fileio", "analysis"}
#: What every stage loads: ``cli`` and the homes of the names it checks a config against.
CLI = PREDICTIONS | ANALYSIS | {"ppl_threshold", "cli"}
ALL = {path.stem for path in Path(answer_or_search.__file__).parent.glob("*.py")} - {"__init__"}

EXPECTED = {
    "errors": {"errors"},
    "fileio": {"errors", "fileio"},
    "mock_service": {"errors", "fileio", "mock_service"},
    "corpus": CORPUS,
    "predictions": PREDICTIONS,
    "inference": PREDICTIONS | {"inference"},
    "labeling": PREDICTIONS | {"labeling"},
    "ppl_threshold": PREDICTIONS | {"ppl_threshold"},
    "analysis": ANALYSIS,
    "evaluation": CORPUS | ANALYSIS | {"evaluation"},
    "cli": CLI,
}


def test_every_module_has_an_expected_set():
    assert set(EXPECTED) == ALL - {"_stopwords"}


def loaded_modules(name: str, statement: str = "") -> set[str]:
    """The package modules in ``sys.modules`` after a fresh interpreter imports
    ``name`` and runs ``statement``."""
    probe = (
        "import importlib, json, sys\n"
        f"module = importlib.import_module({name!r})\n"
        f"{statement}\n"
        "prefix = 'answer_or_search.'\n"
        "print(json.dumps([m[len(prefix):] for m in sys.modules if m.startswith(prefix)]))\n"
    )
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_the_package_root_loads_no_module():
    assert loaded_modules("answer_or_search") == set()


@pytest.mark.parametrize("module", sorted(EXPECTED))
def test_importing_a_module_alone_loads_only_its_layers(module):
    assert loaded_modules(f"answer_or_search.{module}") == EXPECTED[module]


# (question, gold, model answer, log-prob): half right, half wrong, so the
# masked dataset can serve as a balanced few-shot pool.
ROWS = [
    ("what is the capital of france?", "Paris", "Paris", -0.05),
    ("who wrote hamlet?", "Shakespeare", "Marlowe", -2.0),
    ("what is the largest planet?", "Jupiter", "Jupiter", -0.1),
    ("what is the smallest prime?", "2", "3", -1.5),
]

#: Each stage, its arguments after ``-c CONFIG``, and the package modules it
#: loads beyond ``cli``'s own.
STAGES = [
    ("ingest", [], set()),
    ("infer", ["--split", "dev"], {"inference"}),
    ("label", ["--split", "dev"], {"labeling"}),
    ("calibrate", ["--split", "dev"], set()),
    ("evaluate", ["--split", "dev", "--threshold", "{out}/threshold.json"], {"evaluation"}),
    ("tradeoff", ["--report", "{out}/eval_report.json"], {"evaluation"}),
    ("histogram", ["--split", "dev", "--edges", "0", "1", "4"], {"evaluation"}),
    # Few-shot prompts are built from the masked dataset label wrote.
    ("infer-fewshot", ["--split", "dev"], {"inference", "labeling"}),
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Configs whose every stage has run once, so the cache is warm and each
    stage's inputs exist; the endpoint is gone before any stage is probed."""
    tmp = tmp_path_factory.mktemp("pipeline")
    dev_file = tmp / "dev.jsonl"
    dev_file.write_text("".join(
        json.dumps({"id": f"d{i}", "question": q, "answers": [gold]}) + "\n"
        for i, (q, gold, _, _) in enumerate(ROWS)
    ))
    script = Script()
    for question, _, answer, logprob in ROWS:
        script.add_question(question, answer, (logprob,))
    configs = {}
    with serve(script) as service:
        config = {
            "corpus": {"dev": {"path": str(dev_file)}},
            "endpoint": {"url": service.url},
            "cache_dir": str(tmp / "cache"),
            "output_dir": str(tmp / "out"),
        }
        configs["zeroshot"] = tmp / "zeroshot.yaml"
        configs["zeroshot"].write_text(yaml.safe_dump(config))
        config["prompt"] = {
            "style": "fewshot-balanced", "pool_path": str(tmp / "out/masked.dev.jsonl"), "fewshot_k": 2
        }
        config["output_dir"] = str(tmp / "fewshot")
        configs["fewshot"] = tmp / "fewshot.yaml"
        configs["fewshot"].write_text(yaml.safe_dump(config))
        assert main(["ingest", "-c", str(configs["fewshot"])]) == EXIT_OK
        for stage, args, _ in STAGES:
            assert main(stage_argv(tmp, configs, stage, args)) == EXIT_OK
    return tmp, configs


def stage_argv(tmp: Path, configs: dict[str, Path], stage: str, args: list[str]) -> list[str]:
    config = configs["fewshot" if stage == "infer-fewshot" else "zeroshot"]
    return [stage.split("-")[0], "-c", str(config), *(a.format(out=tmp / "out") for a in args)]


@pytest.mark.parametrize("stage, args, loads", STAGES, ids=[s[0] for s in STAGES])
def test_each_stage_loads_only_its_own_modules(pipeline, stage, args, loads):
    statement = f"assert module.main({stage_argv(*pipeline, stage, args)!r}) == 0"
    assert loaded_modules("answer_or_search.cli", statement) == CLI | loads
