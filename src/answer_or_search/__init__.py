"""Answer-or-search: teach and evaluate when a QA model should call a search tool.

The toolkit covers the full loop around an external text-generation service:
ingest QA corpora, collect cached greedy predictions with token
log-probabilities, mask wrong answers with a search token to produce training
labels, calibrate a perplexity-threshold router, and score answer /
hallucinate / search behavior with confusion-matrix metrics, retention
fractions, budget costs, and trade-off curves.

The package root re-exports nothing: each name is imported from the one
module that defines it, so importing a module loads only what it needs.
"""

__version__ = "0.1.0"
