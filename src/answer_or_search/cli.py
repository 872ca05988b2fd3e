"""Pipeline CLI: ingest, infer, label, calibrate, evaluate, tradeoff, histogram.

Stages communicate only through files in the configured output directory, so
each one can be re-run independently. With a warm response cache every
subcommand is idempotent: rerunning it produces byte-identical outputs. Each
emitted file holds only its data; its provenance (record count, config hash,
normalization profile) is in a sidecar ``<name>.manifest.json`` written after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

# Only what every stage needs is imported here; each subcommand imports the
# modules of its own stage, so a stage never pays to load another's.
from .analysis import (
    TRANSFORMS,
    HistogramSpec,
    histogram,
    tradeoff_curve,
    write_histogram_table,
    write_tradeoff_table,
)
from .corpus import (
    CORPUS_FORMATS,
    DEFAULT_PROFILE,
    DEFAULT_SEARCH_TOKEN,
    SPLITS,
    Corpus,
    Judgment,
    NormalizationProfile,
    SearchToken,
    exact_match,
    ingest,
    parse_record_id,
    write_canonical,
)
from .errors import EXIT_OK, AnswerOrSearchError, ConfigError, DataError, RunAbortedError
from .fileio import atomic_write, read_jsonl, write_json, write_manifest
from .ppl_threshold import STRATEGIES, apply_threshold, calibrate, load_threshold, save_threshold
from .predictions import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPLATE, PROMPT_STYLES, Prediction
from .predictions import FEWSHOT_BALANCED, ZEROSHOT_QA, read_predictions, write_predictions


def _key(key: str, kind: type, default=None, valid=None, must="", *, hashed=True, flag=None):
    """Declare a config field: :func:`_get` reads it with these arguments.

    ``hashed=False`` marks how a run reaches the endpoint or where it keeps
    files, never what it writes: ``config_hash`` leaves it out. ``flag`` is
    the command-line option that overrides it, if any.
    """
    return field(metadata=dict(get=(key, kind, default, valid, must), hashed=hashed, flag=flag))


@dataclass
class PipelineConfig:
    """Validated, flattened view of the pipeline configuration file."""

    corpus: dict[str, dict]
    endpoint_url: str = _key(
        "endpoint.url", str, "http://127.0.0.1:8811", hashed=False, flag="--endpoint-url"
    )
    model_tag: str = _key("endpoint.model_tag", str, "unnamed-model", flag="--model-tag")
    max_new_tokens: int = _key(
        "endpoint.max_new_tokens", int, DEFAULT_MAX_NEW_TOKENS, lambda n: n >= 1, ">= 1"
    )
    max_retries: int = _key("endpoint.max_retries", int, 3, lambda n: n >= 0, ">= 0", hashed=False)
    timeout: float = _key(
        "endpoint.timeout", float, 30.0, lambda t: 0 < t < math.inf, "positive and finite",
        hashed=False,
    )
    max_in_flight: int = _key("max_in_flight", int, 4, lambda n: n >= 1, ">= 1", hashed=False)
    profile: NormalizationProfile
    token: SearchToken = _key(
        "search_token", SearchToken, DEFAULT_SEARCH_TOKEN, str.strip, "non-empty"
    )
    prompt_style: str = _key("prompt.style", str, ZEROSHOT_QA, PROMPT_STYLES)
    template: str = _key("prompt.template", str, DEFAULT_TEMPLATE)
    fewshot_k: int = _key(
        "prompt.fewshot_k", int, 16, lambda k: k > 0 and k % 2 == 0, "even and positive"
    )
    seed: int = _key("prompt.seed", int, 13)
    pool_path: str | None = _key("prompt.pool_path", str)
    ppl_strategy: str = _key("ppl.strategy", str, "max-f1", STRATEGIES)
    ppl_target_rate: float | None = _key(
        "ppl.target_rate", float, None, lambda r: 0 <= r <= 1, "in [0, 1]"
    )
    lam: float = _key(
        "lambda", float, 1.0, lambda x: 1 <= x < math.inf, ">= 1 and finite", flag="--lambda"
    )
    cache_dir: Path = _key("cache_dir", Path, "cache", hashed=False, flag="--cache-dir")
    output_dir: Path = _key("output_dir", Path, "out", hashed=False, flag="--output-dir")

    @property
    def config_hash(self) -> str:
        """SHA-256 of the validated fields, defaults filled in, but those not ``hashed``."""
        unhashed = {f.name for f in fields(self) if not f.metadata.get("hashed", True)}
        hashed = {k: v for k, v in asdict(self).items() if k not in unhashed}
        blob = json.dumps(hashed, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def provenance(self) -> dict:
        # The full profile rides along in every sidecar manifest so results
        # can be reproduced bit-for-bit, not just compared by hash.
        return {
            "config_hash": self.config_hash,
            "normalization_profile": self.profile.to_dict(),
            "normalization_profile_hash": self.profile.fingerprint(),
        }


#: YAML types accepted for each kind of config value, and how the error names
#: the kind. A bool is never a number, and a string is never converted.
_KINDS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "a mapping"),
    Path: (str, "a string"),
    SearchToken: (str, "a string"),
}


def _get(raw: dict, key: str, kind: type, default=None, valid=None, must: str = ""):
    """The value at dotted ``key`` as ``kind``, or ``default`` when it is absent.

    Every section on the way must be a mapping. A null value stands for the
    default only where the default is None. ``valid`` is a tuple of choices,
    or a predicate the value must pass, described by ``must``; it sees the
    value as the YAML holds it, before it is converted to ``kind``. Every
    error is a :class:`ConfigError` naming the key.
    """
    *parents, leaf = key.split(".")
    section = raw
    for depth, part in enumerate(parents, start=1):
        section = section.get(part, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{'.'.join(parents[:depth])} must be a mapping, got {section!r}")
    value = section.get(leaf, default)
    if value is None and default is None:
        return None
    accepted, name = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    if isinstance(valid, tuple):
        valid, must = valid.__contains__, f"one of {', '.join(valid)}"
    if valid is not None and not valid(value):
        raise ConfigError(f"{key} must be {must}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the range of a float
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from None


def _build_profile(raw: dict) -> NormalizationProfile:
    words = _get(raw, "normalization.stopwords", list, list(DEFAULT_PROFILE.stopwords))
    if not all(isinstance(word, str) for word in words):
        raise ConfigError(f"normalization.stopwords must be a list of strings, got {words!r}")
    flags = {
        f.name: _get(raw, f"normalization.{f.name}", bool, getattr(DEFAULT_PROFILE, f.name))
        for f in fields(NormalizationProfile)
        if isinstance(getattr(DEFAULT_PROFILE, f.name), bool)
    }
    return NormalizationProfile(stopwords=tuple(words), **flags)


def _override_flags():
    """(flag, dotted key, type) of each field a flag overrides; a float's flag reads a number."""
    for f in fields(PipelineConfig):
        if f.metadata.get("flag"):
            key, kind = f.metadata["get"][:2]
            yield f.metadata["flag"], key, float if kind is float else str


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read, override, and validate a YAML pipeline configuration."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except (OSError, ValueError, yaml.YAMLError) as exc:  # missing, not UTF-8, not YAML
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    for key, value in (overrides or {}).items():
        if value is not None:
            parent, _, leaf = key.rpartition(".")
            section = raw
            if parent:
                section = raw[parent] = _get(raw, parent, dict, {})
            section[leaf] = value

    corpus: dict[str, dict] = {}
    is_file = lambda p: Path(p).is_file()
    for split in _get(raw, "corpus", dict, {}, bool, "a mapping of at least one split"):
        if split not in SPLITS:
            raise ConfigError(f"unknown corpus split {split!r}")
        split_path = _get(raw, f"corpus.{split}.path", str, "", is_file, "an existing file")
        fmt = _get(raw, f"corpus.{split}.format", str, "canonical-jsonl", CORPUS_FORMATS)
        corpus[split] = {"path": str(Path(split_path)), "format": fmt}

    values = {f.name: _get(raw, *f.metadata["get"]) for f in fields(PipelineConfig) if f.metadata}
    if values["ppl_target_rate"] is None and values["ppl_strategy"] == "target-search-rate":
        raise ConfigError("ppl.target_rate is required for target-search-rate calibration")
    return PipelineConfig(corpus=corpus, profile=_build_profile(raw), **values)


# ---------------------------------------------------------------------------
# Pipeline file locations
# ---------------------------------------------------------------------------


def corpus_path(config: PipelineConfig, split: str) -> Path:
    return config.output_dir / f"corpus.{split}.jsonl"


def predictions_path(config: PipelineConfig, split: str) -> Path:
    return config.output_dir / f"predictions.{split}.jsonl"


def _load_split(config: PipelineConfig, split: str) -> Corpus:
    path = corpus_path(config, split)
    if not path.exists():
        raise DataError(f"canonical corpus for split {split!r} not found at {path}; run 'ingest'")
    return ingest(path, "canonical-jsonl", split)


def _load_split_and_predictions(
    config: PipelineConfig, args: argparse.Namespace
) -> tuple[Corpus, list[Prediction]]:
    """The ``--split`` corpus and the ``--predictions`` file (default: infer's output)."""
    corpus = _load_split(config, args.split)
    return corpus, read_predictions(args.predictions or predictions_path(config, args.split))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(config: PipelineConfig, args: argparse.Namespace) -> int:
    seen: dict[str, str] = {}
    corpora: dict[str, Corpus] = {}
    for split, meta in config.corpus.items():
        corpora[split] = ingest(meta["path"], meta["format"], split)
        for rec in corpora[split]:
            if rec.id in seen:
                raise DataError(
                    f"record id {rec.id!r} appears in both splits "
                    f"{seen[rec.id]!r} and {split!r}"
                )
            seen[rec.id] = split
    for split, corp in corpora.items():
        out = write_canonical(corp, corpus_path(config, split))
        write_manifest(out, len(corp), split=split, **config.provenance)
        print(f"ingest: split={split} records={len(corp)} -> {out}")
    return EXIT_OK


def cmd_infer(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .inference import GenerationClient, ResponseCache, prompt_builder, run_corpus

    corpus = _load_split(config, args.split)
    pool: tuple = ()
    if config.prompt_style == FEWSHOT_BALANCED:
        if not config.pool_path:
            raise ConfigError(f"prompt.pool_path is required for {FEWSHOT_BALANCED} prompts")
        from .labeling import read_masked_dataset

        dataset = read_masked_dataset(config.pool_path)
        if dataset.token != config.token:
            raise DataError(
                f"few-shot pool {config.pool_path} was labeled with search token "
                f"{dataset.token.literal!r}, not {config.token.literal!r}; rerun 'label' "
                "under this config"
            )
        pool = dataset.examples
    # Bad prompt settings fail here, before cache_dir is created or a request sent.
    prompt_for = prompt_builder(
        config.prompt_style, config.template, pool, config.fewshot_k, config.seed
    )
    progress = config.output_dir / f"progress.{args.split}.json"
    with ResponseCache(config.cache_dir) as cache, closing(
        GenerationClient(
            config.endpoint_url,
            config.model_tag,
            cache,
            max_new_tokens=config.max_new_tokens,
            max_retries=config.max_retries,
            timeout=config.timeout,
        )
    ) as client:
        try:
            predictions = run_corpus(corpus, prompt_for, client, max_in_flight=config.max_in_flight)
        except RunAbortedError as exc:
            write_json(
                progress, {"done": exc.completed_ids, "failed": exc.failed_id, **config.provenance}
            )
            print(
                f"infer: aborted at record {exc.failed_id}; progress -> {progress}", file=sys.stderr
            )
            raise

    out = write_predictions(predictions, predictions_path(config, args.split))
    write_manifest(
        out,
        len(predictions),
        split=args.split,
        model_tag=config.model_tag,
        prompt_style=config.prompt_style,
        **config.provenance,
    )
    # The progress an aborted run left is stale once every prediction is written.
    try:
        progress.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"{progress} cannot be removed: {exc.strerror}") from exc
    print(f"infer: split={args.split} predictions={len(predictions)} -> {out}")
    return EXIT_OK


def cmd_label(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .labeling import build_masked_dataset, write_masked_dataset

    corpus, preds = _load_split_and_predictions(config, args)
    if not preds:
        print("label: warning: no predictions; emitting an empty dataset", file=sys.stderr)
    dataset = build_masked_dataset(preds, corpus, config.profile, config.token)
    out = write_masked_dataset(
        dataset,
        config.output_dir / f"masked.{args.split}.jsonl",
        split=args.split,
        **config.provenance,
    )
    stats = dataset.stats()
    rate = (stats["n_masked"] / stats["n_total"] * 100) if stats["n_total"] else 0.0
    print(
        f"label: split={args.split} total={stats['n_total']} answer={stats['n_answer']} "
        f"masked={stats['n_masked']} mask_rate={rate:.1f}% -> {out}"
    )
    return EXIT_OK


def cmd_calibrate(config: PipelineConfig, args: argparse.Namespace) -> int:
    corpus, preds = _load_split_and_predictions(config, args)
    scored = [
        (p.perplexity, exact_match(p.text, corpus[p.record_id].gold_answers, config.profile))
        for p in preds
    ]
    threshold = calibrate(scored, strategy=config.ppl_strategy, target_rate=config.ppl_target_rate)
    out = save_threshold(threshold, config.output_dir / "threshold.json")
    write_manifest(out, 1, split=args.split, **config.provenance)
    print(
        f"calibrate: strategy={threshold.calibration} tau={threshold.tau:g} "
        f"items={len(scored)} -> {out}"
    )
    return EXIT_OK


def _parse_adapted(raw: dict) -> tuple[str, str]:
    record_id = parse_record_id(raw["id"])
    if not isinstance(raw["output"], str):
        raise DataError(f"output of record {record_id} is not a string")
    return record_id, raw["output"]


def cmd_evaluate(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .evaluation import evaluate_pair, judge, render_table, write_report

    if (args.adapted is None) == (args.threshold is None):
        raise ConfigError("evaluate needs exactly one of --adapted or --threshold")
    corpus, base_preds = _load_split_and_predictions(config, args)
    base_ids = [p.record_id for p in base_preds]
    base_judgments = [
        judge(p.text, corpus[p.record_id], config.profile, config.token) for p in base_preds
    ]

    if args.threshold is not None:
        threshold = load_threshold(args.threshold)
        adapted = list(zip(base_ids, apply_threshold(base_preds, threshold, config.token)))
    else:
        adapted = read_jsonl(args.adapted, _parse_adapted, "adapted outputs file")
    adapted_judgments = [
        judge(out, corpus[rid], config.profile, config.token) for rid, out in adapted
    ]

    report = evaluate_pair(
        base_judgments,
        adapted_judgments,
        lam=config.lam,
        base_ids=base_ids,
        adapted_ids=[rid for rid, _ in adapted],
    )
    json_path = write_report(report, config.output_dir / "eval_report.json")
    write_manifest(json_path, 1, split=args.split, **config.provenance)
    table = render_table(report, title=f"split={args.split} lambda={config.lam:g}")
    txt_path = config.output_dir / "eval_report.txt"
    with atomic_write(txt_path) as fh:
        fh.write(table)
    write_manifest(txt_path, 1, split=args.split, **config.provenance)
    print(table, end="")
    print(f"evaluate: report -> {json_path}")
    return EXIT_OK


def cmd_tradeoff(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .evaluation import read_report

    report = read_report(args.report)
    points = tradeoff_curve(report.c * 100, report.h * 100, report.s * 100, args.ratios)
    out = write_tradeoff_table(points, config.output_dir / "tradeoff.csv")
    write_manifest(out, len(points), source=args.report, **config.provenance)
    for pt in points:
        print(f"tradeoff: ratio={pt.ratio:.2f} c={pt.c:.1f} h={pt.h:.1f}")
    print(f"tradeoff: table -> {out}")
    return EXIT_OK


def cmd_histogram(config: PipelineConfig, args: argparse.Namespace) -> int:
    from .evaluation import judge

    corpus, preds = _load_split_and_predictions(config, args)
    grouped: dict[str, list[float]] = {cls: [] for cls in args.classes}
    for pred in preds:
        verdict = judge(pred.text, corpus[pred.record_id], config.profile, config.token)
        if verdict.value in grouped:
            grouped[verdict.value].append(pred.perplexity)
    results = {
        cls: histogram(
            values,
            HistogramSpec(bin_edges=tuple(args.edges), value_transform=args.transform),
        )
        for cls, values in grouped.items()
    }
    out = write_histogram_table(results, config.output_dir / "histogram.csv")
    rows = sum(len(result.counts) + 1 for result in results.values())  # + out-of-range
    write_manifest(out, rows, split=args.split, **config.provenance)
    for cls, result in results.items():
        print(f"histogram: class={cls} in_range={sum(result.counts)} out_of_range={result.out_of_range}")
    print(f"histogram: table -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", required=True, help="pipeline config file (YAML)")
    for flag, key, kind in _override_flags():
        common.add_argument(flag, dest=key, type=kind, help=f"override {key}")
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--split", choices=SPLITS, default="dev")
    predictions = argparse.ArgumentParser(add_help=False)
    predictions.add_argument("--predictions", help="predictions file (default: infer output)")

    parser = argparse.ArgumentParser(
        prog="answer-or-search",
        description="Teach and evaluate answer-or-search behavior for QA models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, run, summary: str, *parents: argparse.ArgumentParser):
        stage_parser = sub.add_parser(name, parents=[common, *parents], help=summary)
        stage_parser.set_defaults(run=run)
        return stage_parser

    stage("ingest", cmd_ingest, "read corpora into canonical files")
    stage("infer", cmd_infer, "collect predictions", split)
    stage("label", cmd_label, "emit masked training data", split, predictions)
    stage("calibrate", cmd_calibrate, "fit the perplexity threshold", split, predictions)

    p_eval = stage("evaluate", cmd_evaluate, "score a (base, adapted) pair", split)
    p_eval.add_argument(
        "--base",
        dest="predictions",
        metavar="BASE",
        help="base predictions file (default: infer output)",
    )
    p_eval.add_argument("--adapted", help="adapted outputs file ({id, output} lines)")
    p_eval.add_argument("--threshold", help="threshold file to route base predictions")

    p_trade = stage("tradeoff", cmd_tradeoff, "search-quality trade-off table")
    p_trade.add_argument("--report", required=True, help="evaluation report JSON")
    p_trade.add_argument(
        "--ratios",
        nargs="+",
        type=float,
        default=[i / 10 for i in range(11)],
        help="search success ratios (default 0.0..1.0 step 0.1)",
    )

    p_hist = stage(
        "histogram", cmd_histogram, "perplexity histograms per class", split, predictions
    )
    p_hist.add_argument("--edges", nargs="+", type=float, required=True)
    p_hist.add_argument("--transform", choices=TRANSFORMS, default="log")
    p_hist.add_argument(
        "--classes", nargs="+", choices=[j.value for j in Judgment], default=["C", "H"]
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {key: getattr(args, key) for _, key, _ in _override_flags()}
        config = load_config(args.config, overrides)
        try:
            config.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir {config.output_dir} cannot be created: {exc}") from exc
        return args.run(config, args)
    except AnswerOrSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
