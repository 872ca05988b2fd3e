"""Pipeline benchmark for answer-or-search.

    python3 perfbench/run.py --workload cold-zeroshot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Each workload generates a corpus from
``--seed``, starts the endpoint stub (``endpoint.py``) as a separate process
and then, until ``--seconds`` are used, runs the seven CLI stages the way a
user does, one process per stage:

    ingest -> infer -> label -> calibrate -> evaluate --threshold -> tradeoff -> histogram

Every pipeline run passes a correctness gate (record counts, every
prediction and label against the oracle in ``synth.py``, the evaluation
report's rates, byte-identical outputs across the runs of one workload)
before its times count. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` traced and untraced
pipeline runs alternate and the metrics are the per-layer ones, computed from
the spans ``tracing.py`` writes.

The load is one closed loop: the only requests are the ``infer`` stage's own,
at most ``MAX_IN_FLIGHT`` at a time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import synth
import tracing

HERE = Path(__file__).resolve().parent

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
MAX_IN_FLIGHT = 2
SEARCH_TOKEN = "<search>"
HISTOGRAM_EDGES = ("0", "0.25", "0.5", "1", "1.5", "2", "3")
STAGES = ("ingest", "infer", "label", "calibrate", "evaluate", "tradeoff", "histogram")
POST_INFER = STAGES[2:]


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    prompt_style: str
    service_ms: float
    #: "cold": empty cache every run; "full": the whole corpus cached by the
    #: program's own infer before timing; "half": every other record cached.
    warmth: str
    fail_first: bool = False


# Sized for two CPUs: each pipeline run takes about 4-6 s, so one 30 s
# benchmark run holds five to seven of them and reports their medians.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-zeroshot", 500, "zeroshot-qa", 5.0, "cold"),
        Workload("warm-rerun", 3000, "zeroshot-qa", 0.0, "full"),
        Workload("fewshot-partial", 800, "fewshot-balanced", 5.0, "half", fail_first=True),
    )
}

#: Few-shot settings: a pool of long questions labeled by the program itself.
FEWSHOT_K = 16
POOL_RECORDS = 48
POOL_QUESTION_BYTES = 1000

END_TO_END = {
    "setup_s": "s",
    "infer_rps": "rec/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
}


class GateError(Exception):
    """A pipeline run whose outputs are wrong; all its records count as failed."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class StageRun:
    name: str
    launch: float
    exit: float
    maxrss_mb: float
    spans_file: Path | None

    @property
    def wall(self) -> float:
        return self.exit - self.launch


class Endpoint:
    """The stub endpoint process; stopped and waited for by ``close``."""

    def __init__(self, workload: Workload, seed: int, log: Path) -> None:
        argv = [sys.executable, str(HERE / "endpoint.py"), "--seed", str(seed)]
        argv += ["--service-ms", str(workload.service_ms)]
        if workload.fail_first:
            argv.append("--fail-first")
        self._log = log.open("w")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"endpoint stub did not start; see {log}")
        self.port = json.loads(line)["port"]
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    """One workload's working directory, endpoint and stage runner."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        (self.dir / "spans").mkdir()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.endpoint: Endpoint | None = None

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()

    def write_config(self, name: str, corpus: str, out: str, cache: str, style: str) -> Path:
        config = {
            "corpus": {"dev": {"path": corpus, "format": "canonical-jsonl"}},
            "endpoint": {"url": self.endpoint.url, "model_tag": "stub-model", "max_retries": 3},
            "max_in_flight": MAX_IN_FLIGHT,
            "prompt": {
                "style": style,
                "template": "{q}",
                "fewshot_k": FEWSHOT_K,
                "seed": 13,
                "pool_path": "pool_out/masked.dev.jsonl",
            },
            "ppl": {"strategy": "max-f1"},
            "lambda": 1.0,
            "search_token": SEARCH_TOKEN,
            "cache_dir": cache,
            "output_dir": out,
        }
        path = self.dir / name
        # JSON is valid YAML, so the benchmark needs no YAML writer.
        path.write_text(json.dumps(config, indent=1))
        return path

    def stage(self, name: str, config: Path, spans_file: Path | None = None) -> StageRun:
        args = [name, "-c", config.name]
        if name not in ("ingest", "tradeoff"):
            args += ["--split", "dev"]
        if name == "evaluate":
            args += ["--threshold", "out/threshold.json"]
        elif name == "tradeoff":
            args += ["--report", "out/eval_report.json"]
        elif name == "histogram":
            args += ["--edges", *HISTOGRAM_EDGES, "--transform", "log"]
        if spans_file is None:
            argv = [sys.executable, "-m", "answer_or_search.cli", *args]
        else:
            run_id = spans_file.stem
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans_file), run_id, "--", *args]
        log = self.dir / "logs" / f"{name}.log"
        with log.open("w") as fh:
            launch = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=fh, stderr=fh)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise GateError(f"stage {name} exited {proc.returncode}:\n{tail}")
        # ru_maxrss is in KiB on Linux.
        return StageRun(name, launch, end, usage.ru_maxrss / 1024.0, spans_file)


# ---------------------------------------------------------------------------
# Workload set-up (not timed)
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    items: list[synth.Item]
    config: Path
    prefilled_cache: Path | None = None


def prepare(bench: Bench) -> Prepared:
    w, seed, d = bench.workload, bench.seed, bench.dir
    n_faults = (w.records // 2) // synth.FAULT_EVERY if w.fail_first else 0
    items = synth.make_items(seed, w.records, "r", n_faults=n_faults)
    synth.write_corpus(items, d / "dev.jsonl")
    bench.endpoint = Endpoint(w, seed, d / "logs" / "endpoint.log")
    config = bench.write_config("config.yaml", "dev.jsonl", "out", "cache", w.prompt_style)

    # Compile the package's bytecode once, as an installed package would have.
    subprocess.run(
        [sys.executable, "-c", "import answer_or_search.cli"], env=bench.env, check=True
    )

    if w.prompt_style == "fewshot-balanced":
        pool = synth.make_items(seed, POOL_RECORDS, "p", question_bytes=POOL_QUESTION_BYTES)
        synth.write_corpus(pool, d / "pool.jsonl")
        pool_config = bench.write_config(
            "pool.yaml", "pool.jsonl", "pool_out", "pool_cache", "zeroshot-qa"
        )
        for name in ("ingest", "infer", "label"):
            bench.stage(name, pool_config)

    prefilled = None
    if w.warmth == "full":
        for name in ("ingest", "infer"):
            bench.stage(name, config)
    elif w.warmth == "half":
        synth.write_corpus(items[::2], d / "half.jsonl")
        half_config = bench.write_config(
            "half.yaml", "half.jsonl", "prefill_out", "prefill_cache", w.prompt_style
        )
        for name in ("ingest", "infer"):
            bench.stage(name, half_config)
        prefilled = d / "prefill_cache"
    return Prepared(items, config, prefilled)


# ---------------------------------------------------------------------------
# One pipeline run
# ---------------------------------------------------------------------------


@dataclass
class PipelineRun:
    stages: list[StageRun]
    endpoint: dict
    cache_bytes: int
    cache_entries: int
    digest: str
    failed_ids: set[str]

    def wall(self, name: str) -> float:
        return next(s.wall for s in self.stages if s.name == name)


def _reset(bench: Bench, prep: Prepared) -> None:
    shutil.rmtree(bench.dir / "out", ignore_errors=True)
    if bench.workload.warmth == "cold":
        shutil.rmtree(bench.dir / "cache", ignore_errors=True)
    elif bench.workload.warmth == "half":
        shutil.rmtree(bench.dir / "cache", ignore_errors=True)
        shutil.copytree(prep.prefilled_cache, bench.dir / "cache")


def _dir_usage(path: Path) -> tuple[int, int]:
    """(allocated bytes, number of files) under ``path``."""
    total = entries = 0
    for entry in os.scandir(path):
        if entry.is_file(follow_symlinks=False):
            total += entry.stat(follow_symlinks=False).st_blocks * 512
            entries += 1
    return total, entries


def _digest_outputs(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_pipeline(
    bench: Bench, prep: Prepared, index: int, traced: bool, reference: str | None
) -> PipelineRun:
    """Run the seven stages once; ``reference`` is the first run's output digest."""
    _reset(bench, prep)
    before = bench.endpoint.stats()
    stages = []
    for name in STAGES:
        spans = bench.dir / "spans" / f"{index}-{name}.json" if traced else None
        stages.append(bench.stage(name, prep.config, spans))
    after = bench.endpoint.stats()
    delta = {
        "requests": after["requests"] - before["requests"],
        "connections": after["connections"] - before["connections"],
        "status": {
            code: n - before["status"].get(code, 0) for code, n in after["status"].items()
        },
    }
    out = bench.dir / "out"
    digest = _digest_outputs(out)
    if reference is not None and digest != reference:
        raise GateError("outputs differ between runs of one workload")
    try:
        failed_ids = check_outputs(out, prep.items, bench.seed)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise GateError(f"unreadable output: {exc!r}") from exc
    cache_bytes, cache_entries = _dir_usage(bench.dir / "cache")
    return PipelineRun(stages, delta, cache_bytes, cache_entries, digest, failed_ids)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _manifest(path: Path) -> dict:
    return json.loads(Path(str(path) + ".manifest.json").read_text())


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise GateError(what)


def check_outputs(out: Path, items: list[synth.Item], seed: int) -> set[str]:
    """Ids of records whose prediction or label is wrong.

    Raises GateError when a count or a rate is wrong, which fails every record.
    """
    n = len(items)
    n_known = sum(it.known for it in items)
    ids = [it.id for it in items]

    corpus = out / "corpus.dev.jsonl"
    _expect(len(_jsonl(corpus)) == n, "canonical corpus record count")
    _expect(_manifest(corpus)["records"] == n, "corpus manifest record count")

    preds_path = out / "predictions.dev.jsonl"
    preds = _jsonl(preds_path)
    _expect([p["id"] for p in preds] == ids, "prediction ids or order")
    _expect(_manifest(preds_path)["records"] == n, "predictions manifest record count")

    masked_path = out / "masked.dev.jsonl"
    masked = _jsonl(masked_path)
    _expect([m["id"] for m in masked] == ids, "masked ids or order")
    stats = _manifest(masked_path)["stats"]
    _expect(stats == {"n_total": n, "n_answer": n_known, "n_masked": n - n_known},
            f"masked manifest stats {stats}")
    _expect(sum(m["was_masked"] for m in masked) == n - n_known, "masked count vs unknown count")

    report = json.loads((out / "eval_report.json").read_text())
    _expect(report["n_items"] == n, "eval report n_items")
    known_share = n_known / n
    expected_rates = {
        "base_rates": {"c": known_share, "h": 1 - known_share},
        # A calibrated threshold separates the stub's two perplexity bands.
        "rates": {"c": known_share, "h": 0.0, "s": 1 - known_share},
    }
    for key, rates in expected_rates.items():
        for rate, value in rates.items():
            _expect(abs(report[key][rate] - value) < 1e-9, f"eval report {key}.{rate}")
    confusion = {"tp": n_known, "fp": 0, "tn": n - n_known, "fn": 0}
    _expect(report["confusion"] == confusion, f"eval report confusion {report['confusion']}")
    _expect((out / "threshold.json").stat().st_size > 0, "threshold.json is empty")
    _expect((out / "eval_report.txt").stat().st_size > 0, "eval_report.txt is empty")

    # Every base prediction is C (known) or H (unknown), all inside the edges.
    counts: dict[str, int] = {}
    for row in _csv(out / "histogram.csv"):
        counts[row["class"]] = counts.get(row["class"], 0) + int(row["count"])
        _expect(row["bin_lo"] != "out_of_range" or row["count"] == "0", "histogram out of range")
    _expect(counts == {"C": n_known, "H": n - n_known}, f"histogram class counts {counts}")
    tradeoff = _csv(out / "tradeoff.csv")
    _expect(len(tradeoff) == 11, "tradeoff row count")
    _expect(abs(float(tradeoff[-1]["c"]) - 100.0) < 1e-6, "tradeoff c at ratio 1")

    failed = set()
    for it, pred, mask in zip(items, preds, masked):
        expected = synth.response_for(seed, it.question)
        label = it.gold if it.known else SEARCH_TOKEN
        if (
            pred["text"] != expected["text"]
            or pred["token_logprobs"] != expected["token_logprobs"]
            or mask["target"] != label
            or mask["was_masked"] == it.known
        ):
            failed.add(it.id)
    return failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run: PipelineRun, n: int) -> dict[str, float]:
    return {
        "setup_s": run.wall("ingest"),
        "infer_rps": n / run.wall("infer"),
        "pipeline_s": sum(run.wall(s) for s in STAGES),
        "peak_rss_mb": max(s.maxrss_mb for s in run.stages),
        "cache_mb": run.cache_bytes / 1e6,
    }


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


PER_LAYER_UNITS: dict[str, str] = {
    **{f"cli.{s}.s": "s" for s in STAGES},
    "cli.post_infer_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "corpus.ingest.s": "s",
    "corpus.exact_match.calls": "count",
    "corpus.exact_match.us_per_call": "us",
    "corpus.normalize.calls": "count",
    "inference.run_corpus.s": "s",
    "inference.run_corpus.slot_busy_share": "fraction",
    "inference.in_flight_max": "count",
    "inference.generate.calls": "count",
    "inference.generate.ms_p50": "ms",
    "inference.generate.ms_p99": "ms",
    "inference.http.ms_p50": "ms",
    "inference.http.ms_p99": "ms",
    "inference.cache.get.calls": "count",
    "inference.cache.hit_ratio": "fraction",
    "inference.cache.get.us_p50": "us",
    "inference.cache.put.calls": "count",
    "inference.cache.put.us_p50": "us",
    "inference.cache.bytes_per_entry": "B",
    "inference.read_predictions.s": "s",
    "inference.read_predictions.calls": "count",
    "inference.write_predictions.s": "s",
    "labeling.build_masked_dataset.s": "s",
    "labeling.write_masked_dataset.s": "s",
    "labeling.read_masked_dataset.s": "s",
    "ppl_threshold.calibrate.s": "s",
    "ppl_threshold.apply_threshold.s": "s",
    "evaluation.judge.calls": "count",
    "evaluation.judge.s": "s",
    "evaluation.evaluate_pair.s": "s",
    "evaluation.write_report.s": "s",
    "analysis.histogram.s": "s",
    "analysis.tradeoff_curve.s": "s",
    "endpoint.requests": "count",
    "endpoint.connections": "count",
    "endpoint.status_503": "count",
    "endpoint.attempts_per_miss": "count",
    "endpoint.calls_per_record": "count",
    "trace.overhead_share": "fraction",
}


def per_layer(run: PipelineRun, n: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, from its span files."""
    by_name: dict[str, list[tracing.Span]] = {}
    children: dict[tuple[str, int], list[tracing.Span]] = {}
    startup = self_s = 0.0
    for stage in run.stages:
        imported_at, dumped_at, spans = tracing.load_spans(str(stage.spans_file))
        run_id = stage.spans_file.stem
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
            children.setdefault((run_id, s.parent), []).append(s)
        root = tracing.Span(run_id, tracing.ROOT_ID, -1, f"cli.{stage.name}", stage.launch, stage.exit)
        boot = tracing.Span(run_id, -1, root.id, "cli.startup", stage.launch, imported_at)
        # Writing the spans and exiting is tracing cost, not the stage's own.
        dump = tracing.Span(run_id, -2, root.id, "trace.dump", dumped_at, stage.exit)
        startup += boot.duration
        self_s += tracing.self_time(root, [boot, dump, *children.get((run_id, root.id), [])])

    def kids(span: tracing.Span) -> list[tracing.Span]:
        return children.get((span.run_id, span.id), [])

    def spans(name: str) -> list[tracing.Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in spans(name))

    generate = spans("inference.generate")
    gets = spans("inference.cache.get")
    hits = sum(1 for s in gets if s.hit)
    misses = [
        g for g in generate
        if any(c.name == "inference.cache.get" and not c.hit for c in kids(g))
    ]
    http_ms = [1e3 * tracing.self_time(g, kids(g)) for g in misses]
    run_corpus = total("inference.run_corpus")
    exact = spans("corpus.exact_match")
    status = run.endpoint["status"]
    metrics = {f"cli.{s.name}.s": s.wall for s in run.stages}
    metrics.update({
        "cli.post_infer_s": sum(s.wall for s in run.stages if s.name in POST_INFER),
        "cli.startup_s": startup,
        "cli.self_s": self_s,
        "corpus.ingest.s": total("corpus.ingest"),
        "corpus.exact_match.calls": len(exact),
        "corpus.exact_match.us_per_call": 1e6 * total("corpus.exact_match") / max(1, len(exact)),
        "corpus.normalize.calls": len(spans("corpus.normalize")),
        "inference.run_corpus.s": run_corpus,
        "inference.run_corpus.slot_busy_share":
            sum(g.duration for g in generate) / (run_corpus * MAX_IN_FLIGHT) if run_corpus else 0.0,
        "inference.in_flight_max": tracing.max_overlap(generate),
        "inference.generate.calls": len(generate),
        "inference.generate.ms_p50": _pct([1e3 * g.duration for g in generate], 50),
        "inference.generate.ms_p99": _pct([1e3 * g.duration for g in generate], 99),
        "inference.http.ms_p50": _pct(http_ms, 50),
        "inference.http.ms_p99": _pct(http_ms, 99),
        "inference.cache.get.calls": len(gets),
        "inference.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "inference.cache.get.us_p50": _pct([1e6 * s.duration for s in gets], 50),
        "inference.cache.put.calls": len(spans("inference.cache.put")),
        "inference.cache.put.us_p50": _pct([1e6 * s.duration for s in spans("inference.cache.put")], 50),
        "inference.cache.bytes_per_entry": run.cache_bytes / max(1, run.cache_entries),
        "inference.read_predictions.s": total("inference.read_predictions"),
        "inference.read_predictions.calls": len(spans("inference.read_predictions")),
        "inference.write_predictions.s": total("inference.write_predictions"),
        "labeling.build_masked_dataset.s": total("labeling.build_masked_dataset"),
        "labeling.write_masked_dataset.s": total("labeling.write_masked_dataset"),
        "labeling.read_masked_dataset.s": total("labeling.read_masked_dataset"),
        "ppl_threshold.calibrate.s": total("ppl_threshold.calibrate"),
        "ppl_threshold.apply_threshold.s": total("ppl_threshold.apply_threshold"),
        "evaluation.judge.calls": len(spans("evaluation.judge")),
        "evaluation.judge.s": total("evaluation.judge"),
        "evaluation.evaluate_pair.s": total("evaluation.evaluate_pair"),
        "evaluation.write_report.s": total("evaluation.write_report"),
        "analysis.histogram.s": total("analysis.histogram"),
        "analysis.tradeoff_curve.s": total("analysis.tradeoff_curve"),
        "endpoint.requests": run.endpoint["requests"],
        "endpoint.connections": run.endpoint["connections"],
        "endpoint.status_503": status.get("503", 0),
        "endpoint.attempts_per_miss":
            run.endpoint["requests"] / status["200"] if status.get("200") else 0.0,
        "endpoint.calls_per_record": run.endpoint["requests"] / n,
    })
    return metrics


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def _median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _summary(name: str, unit: str, values: list[float]) -> str:
    # With a handful of pipeline runs per benchmark run no percentile has ten
    # samples beyond it, so the spread is shown as the extremes.
    return (
        f"  {name:<16} median={statistics.median(values):.6g} {unit}"
        f"  min={min(values):.6g}  max={max(values):.6g}  n={len(values)}"
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``workload``, run pipelines for ``seconds`` and return the result line."""
    n = workload.records
    runs: list[PipelineRun] = []
    bench = Bench(workload, seed)
    try:
        prep = prepare(bench)
        started = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            reference = runs[0].digest if runs else None
            runs.append(run_pipeline(bench, prep, len(runs), traced, reference))
            elapsed = time.perf_counter() - started
            # Stop before a pipeline run that would overshoot the time budget.
            if len(runs) >= 2 and elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
    except GateError as exc:
        # The run in progress counts as attempted and failed in full.
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        attempted = n * (len(runs) + 1)
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    finally:
        bench.close()

    failed = sum(len(r.failed_ids) for r in runs)
    result = {"correct": failed == 0, "attempted": n * len(runs), "failed": failed}
    if failed:
        print(f"{failed} records with a wrong prediction or label", file=sys.stderr)
        result["metrics"] = {}
        return result
    plain = [end_to_end(r, n) for r in runs if r.stages[0].spans_file is None]
    print(f"{workload.name}: seed={seed} records={n} pipeline runs={len(runs)}")
    if not trace:
        for name, unit in END_TO_END.items():
            print(_summary(name, unit, [row[name] for row in plain]))
        values = _median_of(plain)
        units = END_TO_END
    else:
        layers = [per_layer(r, n) for r in runs if r.stages[0].spans_file is not None]
        values = _median_of(layers)
        traced_s = statistics.median(sum(row[f"cli.{s}.s"] for s in STAGES) for row in layers)
        plain_s = statistics.median(row["pipeline_s"] for row in plain)
        values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
        for name, value in values.items():
            print(f"  {name:<40} {value:.6g} {PER_LAYER_UNITS[name]}")
        units = PER_LAYER_UNITS
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="answer-or-search pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the endpoint process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "answer_or_search" / "cli.py").is_file():
        print(f"error: run from the repository root; no src/answer_or_search under {ROOT}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
