"""The pipeline's one configuration type: every setting, its default and its bounds.

Stages read the fields by the names users set them under. A value out of
bounds raises DataError when the object is built, so the CLI
rejects it before any stage runs. Checks that need the data (K against
the document count, the sample budget against cluster sizes) stay with the
stage that has it. No numpy here: the mock LLM server imports this module
through ``querygen``.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, fields

from .errors import DataError

# Lowest allowed value per field; fields not listed have the bounds further down.
_AT_LEAST = {
    "min_chars": 0, "hash_embed_dim": 8, "seed": 0,
    "clusters": 1, "kmeans_restarts": 1, "kmeans_max_iters": 1, "kmeans_tol": 0,
    "sample_size": 1, "sample_rounds": 1,
    "shots": 0, "decode_temperature": 0, "max_new_tokens": 1, "max_doc_chars": 1,
    "first_stage_hits": 2, "num_negatives": 1, "bm25_k1": 0,
    "threads": 1, "max_retries": 0, "ndcg_k": 1, "recall_k": 1,
    # the least normal float: cosines over it stay finite, so the softmax is never NaN
    "softmax_temperature": sys.float_info.min,
}
_UNIT_INTERVAL = ("mmr_lambda", "bm25_b")
_NON_EMPTY = ("endpoint", "model")


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pipeline with its default."""

    min_chars: int = 300
    hash_embed_dim: int = 256
    clusters: int = 1000
    kmeans_restarts: int = 3
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-4
    sample_size: int = 1000
    softmax_temperature: float = 1.0
    mmr_lambda: float = 1.0
    sample_rounds: int = 5
    shots: int = 3
    decode_temperature: float = 0.0
    max_new_tokens: int = 64
    max_doc_chars: int = 2048
    first_stage_hits: int = 100
    num_negatives: int = 4
    bm25_k1: float = 0.9
    bm25_b: float = 0.4
    seed: int = 42
    threads: int = 4
    max_retries: int = 3
    request_timeout: float = 30.0
    endpoint: str = "mock:deterministic"
    model: str = "llama-2-7b-chat"
    ndcg_k: int = 10
    recall_k: int = 100

    def __post_init__(self) -> None:
        # each test is written as "value satisfies the bound", so NaN fails it
        for name, low in _AT_LEAST.items():
            if not getattr(self, name) >= low:
                _reject(name, getattr(self, name), f">= {low}")
        # socket.settimeout overflows on a longer timeout
        if not 0 < self.request_timeout <= threading.TIMEOUT_MAX:
            _reject("request_timeout", self.request_timeout, f"in (0, {threading.TIMEOUT_MAX}]")
        for name in _UNIT_INTERVAL:
            if not 0 <= getattr(self, name) <= 1:
                _reject(name, getattr(self, name), "in [0, 1]")
        for name in _NON_EMPTY:
            if not getattr(self, name):
                _reject(name, getattr(self, name), "non-empty")
        if not self.num_negatives < self.first_stage_hits:
            _reject("num_negatives", self.num_negatives,
                    f"< first_stage_hits ({self.first_stage_hits})")
        # infinity passes the lower bounds, but an infinite bm25_k1 makes every BM25 score NaN
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                _reject(f.name, value, "finite")


def _reject(name: str, value: object, rule: str) -> None:
    raise DataError(f"{name} must be {rule}, got {value!r}")
