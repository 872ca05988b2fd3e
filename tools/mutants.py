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
found exactly once, when a mutant survives, or when a run of tests is
stopped at :data:`TIMEOUT_SECONDS` (reported as ``TIMED OUT``), so a mutant
that deadlocks fails the gate by name rather than hanging it. A change that
moves a guarded snippet updates its row; a change whose tests guard a line
adds one.
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
PPL = "answer_or_search/ppl_threshold.py"
CLI = "answer_or_search/cli.py"
FILEIO = "answer_or_search/fileio.py"
EVALUATION = "answer_or_search/evaluation.py"
T = "tests/test_inference.py::"
P = "tests/test_ppl_threshold.py::"
C = "tests/test_cli.py::"
F = "tests/test_fileio.py::"
E = "tests/test_evaluation.py::"

#: How long one run of a mutant's tests may take: a mutant that deadlocks fails the gate.
TIMEOUT_SECONDS = 120

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
    # Once a fetch fails for good, its worker stops the run: no worker sends another attempt.
    Mutant(
        INFERENCE,
        "                    self.stop()\n                    future.set_exception(exc)\n",
        "                    future.set_exception(exc)\n",
        (
            T + "test_a_retry_is_not_sent_once_another_record_has_failed",
            T + "test_an_abort_with_misses_started_ahead_stores_what_was_fetched_and_sends_no_more",
        ),
    ),
    # The oldest miss is stored as soon as its fetch ends.
    Mutant(
        INFERENCE,
        "                or waiting[0][2].done()\n",
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
    # A retry is sent only once its backoff is over.
    Mutant(
        INFERENCE,
        "if due is not None and due <= time.monotonic():",
        "if due is not None:",
        (
            T + "test_later_misses_are_sent_while_a_miss_waits_out_its_backoff",
            T + "test_a_repeated_question_is_sent_once",
        ),
    ),
    # A Retry-After holds every attempt of the run, not only the refused one.
    Mutant(
        INFERENCE,
        "if retry_after:",
        "if False:",
        (
            T + "test_a_retry_after_holds_every_attempt_of_the_run",
            T + "test_a_rate_limit_that_outlasts_the_retries_aborts_naming_the_first_record",
        ),
    ),
    # The attempt refused with a Retry-After keeps its place, so it is sent first after the pause.
    Mutant(
        INFERENCE,
        "self._not_before = max(self._not_before, time.monotonic() + wait)\n",
        "self._not_before = max(self._not_before, time.monotonic() + wait)\n"
        "                            key = (self._not_before, next(self._order))\n",
        (T + "test_a_rate_limit_that_outlasts_the_retries_aborts_naming_the_first_record",),
    ),
    # An attempt queued after the run stopped ends unsent, rather than waiting for no worker.
    Mutant(
        INFERENCE,
        "            if self._stopped:\n"
        "                future.set_exception(_NotSent())\n"
        "                return\n",
        "",
        (T + "test_an_attempt_in_flight_when_the_run_fails_is_not_retried",),
    ),
    # A read-ahead row is used: a warm run costs one query per chunk.
    Mutant(
        INFERENCE,
        "if key in self._ahead:",
        "if False:",
        (T + "test_a_warm_run_reads_the_cache_with_one_query_per_read_ahead_chunk",),
    ),
    # A key read ahead without a row is held too, so its miss costs no second query.
    Mutant(
        INFERENCE,
        "            self._ahead.update(dict.fromkeys(keys))\n",
        "",
        (T + "test_a_warm_run_reads_the_cache_with_one_query_per_read_ahead_chunk",),
    ),
    # Each chunk's keys start at the chunk's first record.
    Mutant(
        INFERENCE,
        "records[index : index + READ_AHEAD]",
        "records[index + 1 : index + READ_AHEAD + 1]",
        (T + "test_run_corpus_resolves_hits_and_misses_across_read_ahead_chunks",),
    ),
    # A put replaces the row a read-ahead holds.
    Mutant(
        INFERENCE,
        "            self._ahead.pop(key, None)\n",
        "",
        (T + "test_a_put_replaces_the_row_a_read_ahead_holds",),
    ),
    # A row is unpacked, never indexed: a row of another length is a miss.
    Mutant(
        INFERENCE,
        "answer, token_logprobs = response\n",
        "answer, token_logprobs = response[0], response[1]\n",
        (T + "test_cache_unusable_row_is_a_miss",),
    ),
    # A few-shot prompt takes an even number of demonstrations, half from each side.
    Mutant(
        INFERENCE,
        "if fewshot_k <= 0 or fewshot_k % 2 != 0:",
        "if fewshot_k <= 0:",
        (T + "test_fewshot_rejects_odd_k",),
    ),
    # The demonstrations are drawn under the run's seed.
    Mutant(
        INFERENCE,
        "random.Random(seed)",
        "random.Random(0)",
        (
            T + "test_fewshot_deterministic_under_seed",
            T + "test_run_corpus_draws_the_fewshot_demonstrations_once",
        ),
    ),
    # A line-delimited file is checked against its sidecar: a truncated one is refused.
    Mutant(
        FILEIO,
        "    check_manifest(path, len(rows))\n",
        "",
        (C + "test_malformed_input_exits_data[label-predictions-truncated]",),
    ),
    # A JSON document is checked against its sidecar too.
    Mutant(
        FILEIO,
        "    check_manifest(path, 1)\n",
        "",
        (C + "test_a_document_whose_manifest_counts_other_than_one_record_exits_data",),
    ),
    # A sidecar counts the rows under a .csv's header, not the header.
    Mutant(
        FILEIO,
        "        return sum(1 for _ in fh) - 1\n",
        "        return sum(1 for _ in fh)\n",
        (F + "test_the_sidecar_counts_what_atomic_write_wrote",),
    ),
    # The sidecar is written only once the data is in place: a failed rename writes none.
    Mutant(
        FILEIO,
        "        os.replace(tmp, path)\n",
        "        if manifest is not None:\n"
        '            write_json(manifest_path_for(path), {"records": records, **manifest})\n'
        "        os.replace(tmp, path)\n",
        (F + "test_a_failed_write_leaves_the_sidecar_as_it_was",),
    ),
    # With no base hallucination, the retention of hallucinations is undefined, not a division.
    Mutant(
        EVALUATION,
        "if base_h > 0 else None",
        "if base_h >= 0 else None",
        (E + "test_report_from_rates_with_no_base_hallucination_leaves_its_retention_undefined",),
    ),
    # The API token of the environment goes out as a bearer token.
    Mutant(
        INFERENCE,
        '            self._headers["Authorization"] = f"Bearer {token}"\n',
        "            pass\n",
        (T + "test_generate_sends_the_api_token_of_the_environment_as_a_bearer_token",),
    ),
    # A run with no worker is refused: nothing would ever fetch its misses.
    Mutant(
        INFERENCE,
        "    if max_in_flight < 1:\n",
        "    if max_in_flight < 0:\n",
        (T + "test_run_corpus_refuses_no_workers_before_sending_a_request",),
    ),
    # A threshold between a finite and an infinite perplexity is the finite one.
    Mutant(
        PPL,
        "            tau = tau if tau < math.inf else ppl\n",
        "",
        (
            P + "test_calibrate_accepts_an_infinite_perplexity",
            P + "test_max_f1_with_infinite_perplexities_reaches_the_best_f1_of_a_sweep",
        ),
    ),
    # A quantile next to an infinite perplexity is the finite one, never NaN.
    Mutant(
        PPL,
        "    if b == math.inf:\n        return a\n",
        "",
        (P + "test_target_rate_tau_is_never_nan_next_to_an_infinite_perplexity",),
    ),
    # Where a run keeps its files does not change its config hash.
    Mutant(
        CLI,
        '"cache", hashed=False, flag="--cache-dir"',
        '"cache", flag="--cache-dir"',
        (
            C + "test_config_hash_with_every_hashed_key_set_is_pinned",
            C + "test_config_hash_ignores_directory_overrides",
        ),
    ),
    # How often a run retries does not change its config hash.
    Mutant(
        CLI,
        'lambda n: n >= 0, ">= 0", hashed=False)',
        'lambda n: n >= 0, ">= 0")',
        (C + "test_config_hash_with_every_hashed_key_set_is_pinned",),
    ),
    # The override flag of the lambda key is --lambda.
    Mutant(
        CLI,
        'flag="--lambda"',
        'flag="--lam"',
        (
            C + "test_the_parser_offers_exactly_the_override_flags",
            C + "test_lambda_flag_sets_the_reports_lambda",
        ),
    ),
)


def run_tests(src: Path, tests: list[str]) -> subprocess.CompletedProcess | None:
    """Run ``tests`` from the repository root on the package in ``src``; None when
    they are stopped at :data:`TIMEOUT_SECONDS`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", _RUN_TESTS, str(src), *tests]
    try:
        return subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_SECONDS
        )
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src)
        every_test = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        unmutated = run_tests(src, every_test)
        if unmutated is None:
            failures.append("the tests on the unmutated source TIMED OUT")
        elif unmutated.returncode != 0:
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
                run = run_tests(src, list(mutant.tests))
            finally:
                path.write_text(original, encoding="utf-8")
            # Exit 1 is a failed test; any other code means the tests did not run to a verdict.
            code = None if run is None else run.returncode
            verdicts = {None: "TIMED OUT", 0: "SURVIVED", 1: "killed"}
            verdict = verdicts.get(code, f"NOT RUN (exit {code})")
            print(f"mutant {number} in {mutant.file}: {verdict} in {time.monotonic() - started:.1f} s")
            if code != 1:
                failures.append(f"mutant {number}: {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
