"""Synthetic training data pipeline for adapting neural rankers to a new corpus.

Stages: ingest a document collection, cluster its embeddings, sample and
diversify representatives per cluster, generate one synthetic query per
representative with a few-shot LLM prompt, mine BM25 hard negatives, and
emit reranker training files plus an evaluation harness.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AccessDeniedError,
    AlignmentError,
    DataError,
    EndpointError,
    FormatError,
    RankforgeError,
    UsageError,
)
