"""Mutation gate: each row's tests must fail once its one mutant is applied.

Run from anywhere, with the test dependencies installed:

    python tools/mutants.py

Each row of :data:`MUTANTS` names a file under ``src/``, a snippet that must
occur in it exactly once, the snippet's replacement, and the tests that
guard it. For each row the runner copies ``src/`` to a temporary directory,
applies that one mutant to the copy, and runs ``pytest -x -q -p
no:cacheprovider`` on the row's tests from the repository root, with the
copy first on ``PYTHONPATH``; the interpreter that runs them first checks
that the package it imports is the copy's. Before any mutant, every row's
tests run once on an unmutated copy and must pass. Hypothesis does not
shrink here: a mutant only has to be caught, not minimised.

The gate fails (exit 1) when the unmutated run fails, when a snippet is not
found exactly once, or when a mutant survives. A change that moves a
guarded snippet updates its row; a change whose tests guard a line adds one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Run in a fresh interpreter: ``argv`` is the copy's ``src`` and the test ids. It
#: exits 9 if the package is imported from anywhere else, and then runs pytest
#: with a Hypothesis profile that skips shrinking.
_RUN_TESTS = """
import sys
from pathlib import Path
import answer_or_search
if not Path(answer_or_search.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    print(f"answer_or_search was imported from {answer_or_search.__file__}", file=sys.stderr)
    sys.exit(9)
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)
settings.load_profile("mutants")
import pytest
sys.exit(pytest.main(["-x", "-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


class Mutant(NamedTuple):
    file: str  # under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


INFERENCE = "answer_or_search/inference.py"
T = "tests/test_inference.py::"

MUTANTS = (
    # A record whose key is known is not fetched again: each distinct request is sent once.
    Mutant(
        INFERENCE,
        "            known.add(key)\n",
        "",
        (
            T + "test_a_repeated_question_is_sent_once",
            T + "test_run_corpus_resolves_hits_and_misses_across_read_ahead_chunks",
        ),
    ),
    # Once a fetch fails for good, no worker sends another attempt.
    Mutant(
        INFERENCE,
        "            if self.stopped:\n                raise _NotSent\n",
        "",
        (
            T + "test_a_retry_is_not_sent_once_another_record_has_failed",
            T + "test_an_abort_with_misses_started_ahead_stores_what_was_fetched_and_sends_no_more",
        ),
    ),
    # The oldest miss is stored as soon as its fetch ends.
    Mutant(
        INFERENCE,
        "                or fetcher.ended(waiting[0][2])\n",
        "",
        (T + "test_the_oldest_miss_is_stored_as_soon_as_its_fetch_ends",),
    ),
    # int refuses a Retry-After of more than 4300 digits with a ValueError.
    Mutant(
        INFERENCE,
        "min(float(value), cap)",
        "min(int(value), cap)",
        (T + "test_run_corpus_against_any_endpoint_returns_every_prediction_or_aborts",),
    ),
    # A cached row that breaks the response contract is a miss.
    Mutant(
        INFERENCE,
        "            check_response(response)\n",
        "",
        (
            T + "test_cache_unusable_row_is_a_miss",
            T + "test_run_corpus_refetches_a_cached_entry_that_breaks_the_contract",
        ),
    ),
    # A retry waits out its backoff before it is queued again.
    Mutant(
        INFERENCE,
        "if self.stopped or retry_at <= now:",
        "if self.stopped or True:",
        (
            T + "test_later_misses_are_sent_while_a_miss_waits_out_its_backoff",
            T + "test_a_repeated_question_is_sent_once",
        ),
    ),
)


def run_tests(src: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` from the repository root on the package in ``src``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", _RUN_TESTS, str(src), *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        every_test = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        unmutated = run_tests(src, every_test)
        if unmutated.returncode != 0:
            print(unmutated.stdout + unmutated.stderr, file=sys.stderr)
            failures.append(f"the tests fail on the unmutated source (exit {unmutated.returncode})")
        for number, mutant in enumerate(MUTANTS, 1):
            path = src / mutant.file
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant.snippet)
            if found != 1:
                failures.append(f"mutant {number}: snippet found {found} times in {mutant.file}")
                continue
            started = time.monotonic()
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            try:
                code = run_tests(src, list(mutant.tests)).returncode
            finally:
                path.write_text(original, encoding="utf-8")
            # Exit 1 is a failed test; any other code means the tests did not run to a verdict.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"NOT RUN (exit {code})")
            print(f"mutant {number} in {mutant.file}: {verdict} in {time.monotonic() - started:.1f} s")
            if code != 1:
                failures.append(f"mutant {number}: {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
