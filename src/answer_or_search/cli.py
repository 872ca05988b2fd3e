"""Pipeline CLI: ingest, infer, label, calibrate, evaluate, tradeoff, histogram.

Stages communicate only through files in the configured output directory, so
each one can be re-run independently. With a warm response cache every
subcommand is idempotent: rerunning it produces byte-identical outputs. All
emitted files carry the config hash and normalization-profile hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from .analysis import tradeoff_curve, write_tradeoff_table, HistogramSpec, histogram, write_histogram_table
from .corpus import (
    DEFAULT_PROFILE,
    SPLITS,
    Corpus,
    NormalizationProfile,
    exact_match,
    ingest,
    write_canonical,
)
from .errors import (
    AnswerOrSearchError,
    CapabilityError,
    ConfigError,
    DataError,
    RunAbortedError,
    TransportError,
)
from .evaluation import Judgment, evaluate_pair, judge, render_table, read_report, write_report
from .fileio import atomic_write, check_manifest, read_jsonl, write_json, write_manifest
from .inference import (
    DEFAULT_MAX_NEW_TOKENS,
    PROMPT_STYLES,
    FewShotPool,
    GenerationClient,
    ResponseCache,
    read_predictions,
    run_corpus,
    write_predictions,
)
from .labeling import (
    SearchToken,
    build_masked_dataset,
    read_masked_dataset,
    write_masked_dataset,
)
from .ppl_threshold import STRATEGIES, apply_threshold, calibrate, load_threshold, save_threshold

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4
EXIT_CAPABILITY = 5


@dataclass
class PipelineConfig:
    """Validated, flattened view of the pipeline configuration file."""

    corpus: dict[str, dict]
    endpoint_url: str
    model_tag: str
    max_new_tokens: int
    max_retries: int
    timeout: float
    max_in_flight: int
    profile: NormalizationProfile
    token: SearchToken
    prompt_style: str
    template: str
    fewshot_k: int
    seed: int
    pool_path: str | None
    ppl_strategy: str
    ppl_target_rate: float | None
    lam: float
    cache_dir: Path
    output_dir: Path
    config_hash: str

    @property
    def provenance(self) -> dict:
        # The full profile rides along with every emitted report so results
        # can be reproduced bit-for-bit, not just compared by hash.
        return {
            "config_hash": self.config_hash,
            "normalization_profile": self.profile.to_dict(),
            "normalization_profile_hash": self.profile.fingerprint(),
        }

    def comments(self) -> list[str]:
        return [
            f"config_hash={self.config_hash}",
            f"normalization_profile_hash={self.profile.fingerprint()}",
        ]


def _build_profile(raw: dict) -> NormalizationProfile:
    base = DEFAULT_PROFILE
    return NormalizationProfile(
        lowercase=raw.get("lowercase", base.lowercase),
        strip_punctuation=raw.get("strip_punctuation", base.strip_punctuation),
        stopwords=tuple(raw["stopwords"]) if "stopwords" in raw else base.stopwords,
        collapse_whitespace=raw.get("collapse_whitespace", base.collapse_whitespace),
        unicode_fold=raw.get("unicode_fold", base.unicode_fold),
    )


def _number(kind: type, section: dict, key: str, default: object):
    """``kind(section[key])`` or the default; a bad value is a configuration error."""
    value = section.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read, override, validate, and hash a YAML pipeline configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section = raw
        parts = key.split(".")
        for part in parts[:-1]:
            section = section.setdefault(part, {})
        section[parts[-1]] = value

    corpus_cfg = raw.get("corpus", {})
    if not isinstance(corpus_cfg, dict) or not corpus_cfg:
        raise ConfigError("config must declare at least one corpus split under 'corpus'")
    corpus: dict[str, dict] = {}
    for split, meta in corpus_cfg.items():
        if split not in SPLITS:
            raise ConfigError(f"unknown corpus split {split!r}")
        if not isinstance(meta, dict) or "path" not in meta:
            raise ConfigError(f"corpus split {split!r} needs a 'path'")
        split_path = Path(meta["path"])
        if not split_path.exists():
            raise ConfigError(f"corpus file for split {split!r} does not exist: {split_path}")
        corpus[split] = {"path": str(split_path), "format": meta.get("format", "canonical-jsonl")}

    endpoint = raw.get("endpoint", {})
    prompt = raw.get("prompt", {})
    ppl = raw.get("ppl", {})

    fewshot_k = _number(int, prompt, "fewshot_k", 16)
    if fewshot_k <= 0 or fewshot_k % 2 != 0:
        raise ConfigError(f"prompt.fewshot_k must be an even positive integer, got {fewshot_k}")
    lam = _number(float, raw, "lambda", 1.0)
    if not lam >= 1.0:
        raise ConfigError(f"lambda must be >= 1, got {lam}")
    max_retries = _number(int, endpoint, "max_retries", 3)
    if max_retries < 0:
        raise ConfigError(f"endpoint.max_retries must be >= 0, got {max_retries}")
    timeout = _number(float, endpoint, "timeout", 30.0)
    if not 0.0 < timeout < math.inf:
        raise ConfigError(f"endpoint.timeout must be a positive finite number, got {timeout}")
    prompt_style = prompt.get("style", "zeroshot-qa")
    if prompt_style not in PROMPT_STYLES:
        raise ConfigError(f"unknown prompt style {prompt_style!r}")
    strategy = ppl.get("strategy", "max-f1")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown ppl calibration strategy {strategy!r}")
    target_rate = ppl.get("target_rate")
    if target_rate is not None:
        target_rate = _number(float, ppl, "target_rate", None)
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError(f"ppl.target_rate must lie in [0, 1], got {target_rate}")
    elif strategy == "target-search-rate":
        raise ConfigError("ppl.target_rate is required for target-search-rate calibration")

    blob = json.dumps(raw, sort_keys=True, ensure_ascii=True, default=str)
    config_hash = hashlib.sha256(blob.encode("utf-8")).hexdigest()

    return PipelineConfig(
        corpus=corpus,
        endpoint_url=endpoint.get("url", "http://127.0.0.1:8811"),
        model_tag=endpoint.get("model_tag", "unnamed-model"),
        max_new_tokens=_number(int, endpoint, "max_new_tokens", DEFAULT_MAX_NEW_TOKENS),
        max_retries=max_retries,
        timeout=timeout,
        max_in_flight=_number(int, raw, "max_in_flight", 4),
        profile=_build_profile(raw.get("normalization", {})),
        token=SearchToken(raw.get("search_token", "<search>")),
        prompt_style=prompt_style,
        template=prompt.get("template", "{q}"),
        fewshot_k=fewshot_k,
        seed=_number(int, prompt, "seed", 13),
        pool_path=prompt.get("pool_path"),
        ppl_strategy=strategy,
        ppl_target_rate=target_rate,
        lam=lam,
        cache_dir=Path(raw.get("cache_dir", "cache")),
        output_dir=Path(raw.get("output_dir", "out")),
        config_hash=config_hash,
    )


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
    corpus = ingest(path, "canonical-jsonl", split, profile=config.profile)
    check_manifest(path, len(corpus))
    return corpus


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(config: PipelineConfig) -> int:
    seen: dict[str, str] = {}
    corpora: dict[str, Corpus] = {}
    for split, meta in config.corpus.items():
        corpora[split] = ingest(meta["path"], meta["format"], split, profile=config.profile)
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


def _fewshot_pool(config: PipelineConfig) -> FewShotPool | None:
    if config.prompt_style != "fewshot-balanced":
        return None
    if not config.pool_path:
        raise ConfigError("prompt.pool_path is required for fewshot-balanced prompts")
    dataset = read_masked_dataset(config.pool_path)
    return FewShotPool(
        examples=tuple((ex.question, ex.target) for ex in dataset.examples),
        seed=config.seed,
        search_token=config.token.literal,
    )


def cmd_infer(config: PipelineConfig, split: str) -> int:
    corpus = _load_split(config, split)
    client = GenerationClient(
        config.endpoint_url,
        config.model_tag,
        ResponseCache(config.cache_dir),
        max_retries=config.max_retries,
        timeout=config.timeout,
    )
    try:
        predictions = run_corpus(
            corpus,
            config.prompt_style,
            client,
            template=config.template,
            pool=_fewshot_pool(config),
            fewshot_k=config.fewshot_k,
            max_new_tokens=config.max_new_tokens,
            max_in_flight=config.max_in_flight,
        )
    except RunAbortedError as exc:
        progress = write_json(
            config.output_dir / f"progress.{split}.json",
            {"done": exc.completed_ids, "failed": exc.failed_id, **config.provenance},
        )
        print(f"infer: aborted at record {exc.failed_id}; progress -> {progress}", file=sys.stderr)
        raise

    out = write_predictions(predictions, predictions_path(config, split))
    write_manifest(
        out,
        len(predictions),
        split=split,
        model_tag=config.model_tag,
        prompt_style=config.prompt_style,
        **config.provenance,
    )
    print(f"infer: split={split} predictions={len(predictions)} -> {out}")
    return EXIT_OK


def cmd_label(config: PipelineConfig, split: str, predictions_file: str | None) -> int:
    corpus = _load_split(config, split)
    preds = read_predictions(predictions_file or predictions_path(config, split))
    if not preds:
        print("label: warning: no predictions; emitting an empty dataset", file=sys.stderr)
    dataset = build_masked_dataset(preds, corpus, config.profile, config.token)
    out = write_masked_dataset(
        dataset,
        config.output_dir / f"masked.{split}.jsonl",
        corpus=corpus,
        extra_manifest={"split": split, **config.provenance},
    )
    stats = dataset.stats()
    rate = (stats["n_masked"] / stats["n_total"] * 100) if stats["n_total"] else 0.0
    print(
        f"label: split={split} total={stats['n_total']} answer={stats['n_answer']} "
        f"masked={stats['n_masked']} mask_rate={rate:.1f}% -> {out}"
    )
    return EXIT_OK


def cmd_calibrate(config: PipelineConfig, split: str, predictions_file: str | None) -> int:
    corpus = _load_split(config, split)
    preds = read_predictions(predictions_file or predictions_path(config, split))
    scored = [
        (p.perplexity, exact_match(p.text, corpus[p.record_id].gold_answers, config.profile))
        for p in preds
    ]
    threshold = calibrate(
        scored,
        strategy=config.ppl_strategy,
        target_rate=config.ppl_target_rate,
        fitted_on=f"model={config.model_tag} corpus={corpus.name} split={split}",
    )
    out = save_threshold(threshold, config.output_dir / "threshold.json", extra=config.provenance)
    print(
        f"calibrate: strategy={threshold.calibration} tau={threshold.tau:g} "
        f"items={len(scored)} -> {out}"
    )
    return EXIT_OK


def cmd_evaluate(
    config: PipelineConfig,
    split: str,
    base_file: str | None,
    adapted_file: str | None,
    threshold_file: str | None,
) -> int:
    if (adapted_file is None) == (threshold_file is None):
        raise ConfigError("evaluate needs exactly one of --adapted or --threshold")
    corpus = _load_split(config, split)
    base_preds = read_predictions(base_file or predictions_path(config, split))
    base_ids = [p.record_id for p in base_preds]
    base_judgments = [
        judge(p.text, corpus[p.record_id], config.profile, config.token) for p in base_preds
    ]

    if threshold_file is not None:
        threshold = load_threshold(threshold_file)
        adapted = list(zip(base_ids, apply_threshold(base_preds, threshold, config.token)))
    else:
        adapted = read_jsonl(
            adapted_file, lambda raw: (str(raw["id"]), raw["output"]), "adapted outputs file"
        )
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
    json_path = write_report(report, config.output_dir / "eval_report.json", extra=config.provenance)
    table = render_table(report, title=f"split={split} lambda={config.lam:g}")
    with atomic_write(config.output_dir / "eval_report.txt") as fh:
        for comment in config.comments():
            fh.write(f"# {comment}\n")
        fh.write(table)
    print(table, end="")
    print(f"evaluate: report -> {json_path}")
    return EXIT_OK


def cmd_tradeoff(config: PipelineConfig, report_file: str, ratios: list[float]) -> int:
    report = read_report(report_file)
    points = tradeoff_curve(report.c * 100, report.h * 100, report.s * 100, ratios)
    out = write_tradeoff_table(
        points,
        config.output_dir / "tradeoff.csv",
        comments=config.comments() + [f"source={report_file}"],
    )
    for pt in points:
        print(f"tradeoff: ratio={pt.ratio:.2f} c={pt.c:.1f} h={pt.h:.1f}")
    print(f"tradeoff: table -> {out}")
    return EXIT_OK


def cmd_histogram(
    config: PipelineConfig,
    split: str,
    predictions_file: str | None,
    edges: list[float],
    transform: str,
    classes: list[str],
) -> int:
    valid = {j.value for j in Judgment}
    for cls in classes:
        if cls not in valid:
            raise ConfigError(f"unknown judgment class {cls!r}; expected one of {sorted(valid)}")
    corpus = _load_split(config, split)
    preds = read_predictions(predictions_file or predictions_path(config, split))
    grouped: dict[str, list[float]] = {cls: [] for cls in classes}
    for pred in preds:
        verdict = judge(pred.text, corpus[pred.record_id], config.profile, config.token)
        if verdict.value in grouped:
            grouped[verdict.value].append(pred.perplexity)
    results = {
        cls: histogram(
            values,
            HistogramSpec(bin_edges=tuple(edges), value_transform=transform),
        )
        for cls, values in grouped.items()
    }
    out = write_histogram_table(
        results, config.output_dir / "histogram.csv", comments=config.comments()
    )
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
    common.add_argument("--output-dir", help="override output_dir")
    common.add_argument("--cache-dir", help="override cache_dir")
    common.add_argument("--endpoint-url", help="override endpoint.url")
    common.add_argument("--model-tag", help="override endpoint.model_tag")
    common.add_argument("--lambda", dest="lam", type=float, help="override lambda")

    parser = argparse.ArgumentParser(
        prog="answer-or-search",
        description="Teach and evaluate answer-or-search behavior for QA models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest", parents=[common], help="read corpora into canonical files")

    p_infer = sub.add_parser("infer", parents=[common], help="collect predictions")
    p_infer.add_argument("--split", default="dev")

    p_label = sub.add_parser("label", parents=[common], help="emit masked training data")
    p_label.add_argument("--split", default="dev")
    p_label.add_argument("--predictions", help="predictions file (default: infer output)")

    p_cal = sub.add_parser("calibrate", parents=[common], help="fit the perplexity threshold")
    p_cal.add_argument("--split", default="dev")
    p_cal.add_argument("--predictions", help="predictions file (default: infer output)")

    p_eval = sub.add_parser("evaluate", parents=[common], help="score a (base, adapted) pair")
    p_eval.add_argument("--split", default="dev")
    p_eval.add_argument("--base", help="base predictions file (default: infer output)")
    p_eval.add_argument("--adapted", help="adapted outputs file ({id, output} lines)")
    p_eval.add_argument("--threshold", help="threshold manifest to route base predictions")

    p_trade = sub.add_parser("tradeoff", parents=[common], help="search-quality trade-off table")
    p_trade.add_argument("--report", required=True, help="evaluation report JSON")
    p_trade.add_argument(
        "--ratios",
        nargs="+",
        type=float,
        default=[i / 10 for i in range(11)],
        help="search success ratios (default 0.0..1.0 step 0.1)",
    )

    p_hist = sub.add_parser("histogram", parents=[common], help="perplexity histograms per class")
    p_hist.add_argument("--split", default="dev")
    p_hist.add_argument("--predictions", help="predictions file (default: infer output)")
    p_hist.add_argument("--edges", nargs="+", type=float, required=True)
    p_hist.add_argument("--transform", choices=["log", "identity"], default="log")
    p_hist.add_argument("--classes", nargs="+", default=["C", "H"])
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "output_dir": args.output_dir,
        "cache_dir": args.cache_dir,
        "endpoint.url": args.endpoint_url,
        "endpoint.model_tag": args.model_tag,
        "lambda": args.lam,
    }


def _dispatch(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "ingest":
        return cmd_ingest(config)
    if args.command == "infer":
        return cmd_infer(config, args.split)
    if args.command == "label":
        return cmd_label(config, args.split, args.predictions)
    if args.command == "calibrate":
        return cmd_calibrate(config, args.split, args.predictions)
    if args.command == "evaluate":
        return cmd_evaluate(config, args.split, args.base, args.adapted, args.threshold)
    if args.command == "tradeoff":
        return cmd_tradeoff(config, args.report, args.ratios)
    if args.command == "histogram":
        return cmd_histogram(
            config, args.split, args.predictions, args.edges, args.transform, args.classes
        )
    raise ConfigError(f"unknown command {args.command!r}")


def exit_code_for(exc: AnswerOrSearchError) -> int:
    if isinstance(exc, RunAbortedError):
        cause = exc.cause
        if isinstance(cause, CapabilityError):
            return EXIT_CAPABILITY
        if isinstance(cause, TransportError):
            return EXIT_TRANSPORT
        return EXIT_DATA
    if isinstance(exc, CapabilityError):
        return EXIT_CAPABILITY
    if isinstance(exc, TransportError):
        return EXIT_TRANSPORT
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, DataError):
        return EXIT_DATA
    return EXIT_UNEXPECTED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except AnswerOrSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
