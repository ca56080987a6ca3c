"""Benchmark workloads: corpus generators and the pipeline flags of each shape.

Every corpus is a pure function of (workload, seed); the pipeline itself
always runs with seed 42, so the workload seed only changes the input.

* ``topic`` corpora reproduce ``tests/conftest.make_collection(n, seed)``
  followed by ``write_corpus_jsonl`` byte for byte, so the ROADMAP baseline
  table stays comparable. Documents are 60 words drawn from a 20-word topic
  vocabulary: few, very long postings, and the hash-embed token cache
  always hits.
* ``zipf`` corpora draw tokens from a Zipf law over a 50k-word vocabulary
  with lognormal document lengths. Ranks above a shared head are permuted
  per topic, so documents still cluster by topic while the vocabulary is
  large and most postings are short.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PIPELINE_SEED = 42
THREADS = 2

# Copied from tests/conftest.py; the self-test checks the output stays identical.
TOPIC_VOCAB = {
    "sports": ("game team player season score win league match coach goal "
               "championship fans stadium tournament defense offense referee "
               "playoff roster trade").split(),
    "cooking": ("recipe flavor oven bake simmer garlic butter sauce dough salt "
                "pepper roast tender crispy whisk skillet marinade broth glaze "
                "season").split(),
    "space": ("orbit rocket launch satellite crew module lunar mars telescope "
              "gravity mission payload booster capsule thrust docking reentry "
              "probe lander flyby").split(),
}
TOPICS = ("sports", "cooking", "space")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                 # "topic" or "zipf"
    n_docs: int
    min_chars: int
    clusters: int
    sample_size: int
    mmr_lambda: float = 1.0
    http: bool = False          # serve the mock LLM from a separate process
    restarts: int = 1

    def stage_flags(self) -> dict[str, list[str]]:
        """Pipeline flags per stage; run-all receives all of them."""
        return {
            "ingest": ["--min-chars", str(self.min_chars), "--hash-embed-dim", "128"],
            "cluster": ["--clusters", str(self.clusters), "--kmeans-restarts", str(self.restarts)],
            "select": ["--sample-size", str(self.sample_size),
                       "--mmr-lambda", repr(self.mmr_lambda)],
            "generate": ["--threads", str(THREADS)],
            "mine": [],
            "build": [],
        }


WORKLOADS = {
    "wide-k": Workload("wide-k", "topic", 10_000, 100, 1000, 1000),
    "few-k": Workload("few-k", "topic", 6_000, 100, 3, 240, mmr_lambda=0.5, restarts=3),
    "zipf-http": Workload("zipf-http", "zipf", 12_000, 300, 100, 500, http=True),
}


@dataclass
class Corpus:
    docs: list[tuple[str, str, str]]    # (_id, title, text)

    def kept_texts(self, min_chars: int) -> list[str]:
        """Rendered title + text of the documents the ingest length filter keeps."""
        rendered = (title + " " + text if title else text for _, title, text in self.docs)
        return [r for r in rendered if len(r) >= min_chars]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for doc_id, title, text in self.docs:
                fh.write(json.dumps({"_id": doc_id, "title": title, "text": text}) + "\n")


def topic_corpus(n_docs: int, seed: int, n_words: int = 60) -> Corpus:
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        topic = TOPICS[i % len(TOPICS)]
        words = [rng.choice(TOPIC_VOCAB[topic]) for _ in range(n_words)]
        docs.append((f"{topic[:2]}{i:05d}", f"{topic} note {i}", " ".join(words)))
    return Corpus(docs)


ZIPF_VOCAB = 50_000
ZIPF_EXPONENT = 1.07
ZIPF_TOPICS = 50
ZIPF_HEAD = 100             # ranks shared by every topic, like stop words
ZIPF_LOG_MEDIAN_LEN = 4.62  # lognormal document length, in tokens
ZIPF_LOG_SIGMA = 0.6
ZIPF_TITLE_TOKENS = 3

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]   # 100 two-letter syllables


def zipf_word(word_id: int) -> str:
    """Distinct pronounceable word; frequent ids get shorter words."""
    n_syllables = 1 if word_id < 100 else 2 if word_id < 10_000 else 3
    parts = []
    for _ in range(n_syllables):
        word_id, digit = divmod(word_id, 100)
        parts.append(_SYLLABLES[digit])
    return "".join(parts)


def zipf_corpus(n_docs: int, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, ZIPF_VOCAB + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    tails = np.argsort(rng.random((ZIPF_TOPICS, ZIPF_VOCAB - ZIPF_HEAD)), axis=1) + ZIPF_HEAD
    word_of_rank = np.hstack(
        [np.broadcast_to(np.arange(ZIPF_HEAD), (ZIPF_TOPICS, ZIPF_HEAD)), tails]
    ).astype(np.int32)

    lengths = np.clip(
        np.rint(rng.lognormal(ZIPF_LOG_MEDIAN_LEN, ZIPF_LOG_SIGMA, n_docs)), 8, 2000
    ).astype(np.int64)
    topics = rng.integers(ZIPF_TOPICS, size=n_docs)
    # inverse-CDF sampling: one uniform per token, one searchsorted for the corpus
    ranks = np.minimum(np.searchsorted(cdf, rng.random(int(lengths.sum())), side="right"),
                       ZIPF_VOCAB - 1)
    word_ids = word_of_rank[np.repeat(topics, lengths), ranks]

    vocab = np.array([zipf_word(w) for w in range(ZIPF_VOCAB)], dtype=object)
    words = vocab[word_ids].tolist()
    docs = []
    start = 0
    for i, length in enumerate(lengths.tolist()):
        end = start + length
        docs.append((
            f"z{i:06d}",
            " ".join(words[start:start + ZIPF_TITLE_TOKENS]),
            " ".join(words[start + ZIPF_TITLE_TOKENS:end]),
        ))
        start = end
    return Corpus(docs)


def make_corpus(workload: Workload, seed: int) -> Corpus:
    if workload.corpus == "topic":
        return topic_corpus(workload.n_docs, seed)
    return zipf_corpus(workload.n_docs, seed)


def input_properties(corpus: Corpus, min_chars: int) -> dict[str, float]:
    """Shape of the kept collection as the pipeline tokenizes it."""
    from rankforge.corpus import tokenize

    kept = corpus.kept_texts(min_chars)
    tokens = 0
    postings = 0
    vocab: set[str] = set()
    for text in kept:
        doc_tokens = tokenize(text)
        distinct = set(doc_tokens)
        tokens += len(doc_tokens)
        postings += len(distinct)
        vocab |= distinct
    return {
        "docs_in": len(corpus.docs),
        "docs_kept": len(kept),
        "tokens": tokens,
        "vocab": len(vocab),
        "postings": postings,
        "tokens_per_unique": tokens / max(1, len(vocab)),
    }
