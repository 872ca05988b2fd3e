"""Answer-or-search: teach and evaluate when a QA model should call a search tool.

The toolkit covers the full loop around an external text-generation service:
ingest QA corpora, collect cached greedy predictions with token
log-probabilities, mask wrong answers with a search token to produce training
labels, calibrate a perplexity-threshold router, and score answer /
hallucinate / search behavior with confusion-matrix metrics, retention
fractions, budget costs, and trade-off curves.
"""

from .corpus import (
    DEFAULT_PROFILE,
    Corpus,
    NormalizationProfile,
    QaRecord,
    exact_match,
    ingest,
    normalize,
    write_canonical,
)
from .errors import (
    AnswerOrSearchError,
    BalanceError,
    CalibrationError,
    CapabilityError,
    ConfigError,
    DataError,
    PairingError,
    RunAbortedError,
    TemplateError,
    TransportError,
)
from .evaluation import (
    Cell,
    ConfusionCounts,
    EvalReport,
    Judgment,
    confusion_cell,
    confusion_from_rates,
    evaluate_pair,
    f1_score,
    judge,
    render_table,
    report_from_rates,
)
from .inference import (
    FewShotPool,
    GenerationClient,
    GenerationRequest,
    Prediction,
    ResponseCache,
    build_fewshot_balanced_prompt,
    build_instruct_prompt,
    build_zeroshot_prompt,
    perplexity,
    run_corpus,
)
from .labeling import (
    MaskedDataset,
    MaskedExample,
    SearchToken,
    build_masked_dataset,
    mask_prediction,
    read_masked_dataset,
    write_masked_dataset,
)
from .ppl_threshold import (
    Decision,
    PplThreshold,
    apply_threshold,
    calibrate,
    decide,
    load_threshold,
    save_threshold,
)
from .analysis import (
    HistogramResult,
    HistogramSpec,
    TradeoffPoint,
    histogram,
    tradeoff_curve,
)

__version__ = "0.1.0"
