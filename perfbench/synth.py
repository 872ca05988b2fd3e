"""Seeded inputs for the pipeline benchmark, and the oracle both sides share.

The endpoint stub and the benchmark's correctness gate must agree on what
the "model" answers without exchanging any state, so every decision is a
pure function of the question text and the endpoint seed:

* ``gold_answer(q)``      the answer the corpus accepts;
* ``knows(seed, q)``      whether the stub answers correctly (about half);
* ``faults(seed, q)``     whether the stub fails the first attempt with 503;
* ``response_for(seed, q)`` the exact text and log-probabilities served.

The generator then draws questions until each record has the flags the
workload asked for, so a workload's known share and fault count are exact
for every seed and only the question texts vary.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: One fault per this many questions whose first attempt fails.
FAULT_EVERY = 200

# Made-up words: none is an English stopword, so normalization keeps them.
_VOCAB = (
    "velmar", "ostik", "quarn", "dribel", "sundo", "felk", "maritov", "plesh",
    "hondar", "kyvo", "tramel", "zobin", "gresk", "ulvan", "pirot", "nadek",
    "ebrow", "cintal", "morvex", "yaldi", "brusk", "tenvo", "halpin", "oskar",
    "wevel", "jintar", "clumo", "rafsen", "idrel", "vantok", "pomer", "sklid",
)
_TOPICS = ("capital", "founder", "river", "author", "inventor", "summit", "harbor", "emblem")


def _digest(*parts: str) -> int:
    blob = "\x1f".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _words(h: int, n: int) -> list[str]:
    out = []
    for _ in range(n):
        out.append(_VOCAB[h % len(_VOCAB)])
        h //= len(_VOCAB)
    return out


def gold_answer(question: str) -> str:
    h = _digest("gold", question)
    return " ".join(_words(h >> 2, 2 + h % 2))


def wrong_answer(question: str) -> str:
    # A third word no gold answer has guarantees a mismatch after normalization.
    return gold_answer(question) + " " + _words(_digest("wrong", question), 1)[0] + "x"


def knows(seed: int, question: str) -> bool:
    return _digest("knows", str(seed), question) % 2 == 0


def faults(seed: int, question: str) -> bool:
    return _digest("fault", str(seed), question) % FAULT_EVERY == 0


def response_for(seed: int, question: str) -> dict:
    """The generation the stub serves for ``question``: gold or a wrong answer."""
    h = _digest("logprobs", str(seed), question)
    if knows(seed, question):
        text = gold_answer(question)
        logprobs = [-0.01 * (1 + (h >> (4 * i)) % 9) for i in range(len(text.split()))]
    else:
        text = wrong_answer(question)
        logprobs = [-1.2 - 0.1 * ((h >> (4 * i)) % 16) for i in range(len(text.split()))]
    return {"text": text, "token_logprobs": logprobs}


def target_question(prompt: str) -> str:
    """The question a prompt asks: the last ``Q: ...\\nA:`` block, or the whole prompt."""
    if prompt.endswith("\nA:"):
        head, sep, tail = prompt[: -len("\nA:")].rpartition("Q: ")
        if sep:
            return tail
    return prompt


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    id: str
    question: str
    known: bool
    fault: bool

    @property
    def gold(self) -> str:
        return gold_answer(self.question)


def _question(rng: random.Random, label: str, size: int) -> str:
    topic = rng.choice(_TOPICS)
    if not size:
        a, b = rng.sample(_VOCAB, 2)
        return f"what is the {topic} of {a} {b} ({label})?"
    words: list[str] = []
    while sum(len(w) + 1 for w in words) < size:
        words.append(rng.choice(_VOCAB))
    return f"given the record {' '.join(words)}, what is its {topic} ({label})?"


def make_items(
    seed: int,
    n: int,
    tag: str,
    n_faults: int = 0,
    question_bytes: int = 0,
) -> list[Item]:
    """``n`` records, exactly half known to a stub seeded with ``seed`` and
    ``n_faults`` of them faulting.

    Flags are assigned to shuffled positions first; then questions are drawn
    until the stub's hash agrees with each position's flags. Faults sit at odd
    positions, which a cache warmed with every other record leaves uncached.
    ``question_bytes`` of 0 gives short questions, otherwise questions of
    about that length.
    """
    rng = random.Random(f"{tag}:{seed}")
    flags = [(i < n // 2, False) for i in range(n)]
    rng.shuffle(flags)
    for pos in rng.sample(range(1, n, 2), n_faults):
        flags[pos] = (flags[pos][0], True)
    items = []
    for i, (known, fault) in enumerate(flags):
        attempt = 0
        while True:
            question = _question(rng, f"{tag}{seed}-{i}.{attempt}", question_bytes)
            if knows(seed, question) == known and faults(seed, question) == fault:
                break
            attempt += 1
        items.append(Item(id=f"{tag}{i:06d}", question=question, known=known, fault=fault))
    return items


def write_corpus(items: list[Item], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for it in items:
            row = {"id": it.id, "question": it.question, "answers": [it.gold]}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path
