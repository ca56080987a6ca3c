"""BM25 indexing, retrieval, and hard-negative mining for training pairs.

Negatives for a query come from the tail of its top-x BM25 candidate list
after removing the positive document: the last ``num_negatives`` entries,
so the negatives are lexically related yet ranked well below the head of
the list. When fewer candidates exist the pair is flagged as a shortfall
rather than dropped.

Index files (magic ``DQGIDX03``, little-endian) hold no document ids: the
embeddings' ``.ids`` sidecar is the one id table. The header holds u64
document, term and posting counts, the u64 byte size of the term table, and
the SHA-256 of the ``.ids`` bytes (``corpus.encode_lines`` of the ids). Then
come the sorted terms, one ``\\n``-ended UTF-8 line each; u32 doc lengths,
u64 indptr, u32 ordinals and u32 term frequencies. k1 and b are not stored:
``load_index`` takes them with the ids.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import PipelineConfig
from .corpus import (TokenizedCollection, encode_lines, read_header, read_records, replacing,
                     tokenize, write_jsonl)
from .errors import AlignmentError, DataError, DuplicateIdError, FormatError
from .querygen import SyntheticQuery

MAGIC = b"DQGIDX03"

# magic, n_docs, n_terms, n_postings, term table bytes, SHA-256 of the `.ids` bytes
_HEADER = struct.Struct("<8sQQQQ32s")
# build_index adds document ordinals to its per-token keys about this many tokens at a time
_BLOCK_TOKENS = 1 << 19


@dataclass(frozen=True)
class TrainingPair:
    query_text: str
    positive_doc_id: str
    negative_doc_ids: tuple[str, ...]
    shortfall: bool


class Bm25Index:
    """BM25 (Lucene-style idf) over CSR postings of a sorted vocabulary.

    The postings of ``terms[t]`` are ``ords[indptr[t]:indptr[t + 1]]``,
    ascending document ordinals, with their term frequencies in ``tfs``.
    """

    def __init__(self, doc_ids: Sequence[str], doc_lengths: np.ndarray, terms: Sequence[str],
                 indptr: np.ndarray, ords: np.ndarray, tfs: np.ndarray,
                 k1: float = PipelineConfig.bm25_k1, b: float = PipelineConfig.bm25_b):
        self.doc_ids = list(doc_ids)
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        self.terms = list(terms)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.ords, self.tfs = ords, tfs
        self.k1, self.b = float(k1), float(b)
        self.avgdl = float(self.doc_lengths.mean()) if len(self.doc_ids) else 0.0
        self._weights: dict[int, np.ndarray] = {}   # term id -> BM25 weight of each posting

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def score_all(self, query_tokens: Sequence[str]) -> np.ndarray:
        """Score every document; repeated query tokens contribute once per occurrence.

        Each known term's weights are added in place in query order, so every
        document's score runs ``0.0 + w1 + w2 ...``. ``terms`` is sorted, so a
        binary search finds a term.
        """
        scores = np.zeros(self.n_docs)
        for term in query_tokens:
            t = bisect_left(self.terms, term)
            if t == len(self.terms) or self.terms[t] != term:
                continue
            lo, hi = int(self.indptr[t]), int(self.indptr[t + 1])
            ords = self.ords[lo:hi]
            term_weights = self._weights.get(t)
            if term_weights is None:
                df = hi - lo
                idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
                tf = self.tfs[lo:hi].astype(np.float64)
                norm = self.k1 * (1.0 - self.b + self.b * self.doc_lengths[ords] / self.avgdl)
                term_weights = idf * tf * (self.k1 + 1.0) / (tf + norm)
                self._weights[t] = term_weights
            np.add.at(scores, ords, term_weights)
        return scores

    def top_k(self, query_text: str, k: int) -> np.ndarray:
        """Top-k ordinals with positive score, ordered by score desc then ordinal asc."""
        return _top_k(self.score_all(tokenize(query_text)), k)

    def search(self, query_text: str, k: int) -> list[tuple[int, float]]:
        """``top_k`` as (ordinal, score) pairs."""
        scores = self.score_all(tokenize(query_text))
        return [(int(o), float(scores[o])) for o in _top_k(scores, k)]


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    hits = np.flatnonzero(scores > 0.0)
    if 0 < k < hits.size:
        # exactly the top k: all above the k-th largest score, then ties at it by ordinal
        hit_scores = scores[hits]
        kth = np.partition(hit_scores, hits.size - k)[hits.size - k]
        above = hits[hit_scores > kth]
        ties = hits[hit_scores == kth][: k - above.size]
        hits = np.concatenate((above, ties))
    return hits[np.lexsort((hits, -scores[hits]))][:k]


def build_index(tokens: TokenizedCollection) -> Bm25Index:
    """Index a collection's token stream, with default k1 and b.

    One in-place sort of ``term_rank * n + ordinal`` keys gives the postings
    (the starts of runs of equal keys) and their term frequencies (the run lengths).
    """
    n = len(tokens.doc_ids)
    if n == 0:
        raise DataError("cannot build an index over an empty collection")
    by_term = sorted(range(len(tokens.terms)), key=tokens.terms.__getitem__)
    rank = np.empty(len(by_term), dtype=np.int64)
    rank[by_term] = np.arange(len(by_term))
    keys = rank[tokens.ids]
    keys *= n
    # the ordinals go in a block of documents at a time, not as one more per-token array
    doc_starts = np.concatenate(([0], np.cumsum(tokens.lengths)))
    step = max(1, _BLOCK_TOKENS * n // max(1, keys.size))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        keys[doc_starts[lo]:doc_starts[hi]] += np.repeat(np.arange(lo, hi), tokens.lengths[lo:hi])
    keys.sort()
    run_start = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    tfs = np.diff(starts, append=keys.size).astype(np.uint32)
    keys = keys[starts]                 # one key per posting; frees the per-token keys
    del run_start, starts
    ords = np.remainder(keys, n, out=np.empty(keys.size, dtype=np.uint32), casting="unsafe")
    keys //= n                          # now the term rank of each posting
    indptr = np.searchsorted(keys, np.arange(len(by_term) + 1))
    return Bm25Index(tokens.doc_ids, tokens.lengths,
                     [tokens.terms[t] for t in by_term], indptr, ords, tfs)


def mine_negatives(
    index: Bm25Index, query_text: str, positive_ordinal: int, cfg: PipelineConfig
) -> tuple[list[int], bool]:
    """Tail of the top-x candidates minus the positive; flags when under quota.

    The tail is the last ``num_negatives + 1`` hits: with the positive removed,
    its last ``num_negatives`` are those of the whole list.
    """
    tail = index.top_k(query_text, cfg.first_stage_hits)[-(cfg.num_negatives + 1):]
    negatives = [int(o) for o in tail if o != positive_ordinal][-cfg.num_negatives:]
    return negatives, len(negatives) < cfg.num_negatives


def assemble_pairs(
    index: Bm25Index, queries: Sequence[SyntheticQuery], cfg: PipelineConfig
) -> list[TrainingPair]:
    """One training pair per query, in query order; positives are looked up in the index."""
    ordinals = {doc_id: o for o, doc_id in enumerate(index.doc_ids)}
    if len(ordinals) != index.n_docs:
        raise DuplicateIdError("duplicate document ids in index")
    pairs = []
    for q in queries:
        positive = ordinals.get(q.doc_id)
        if positive is None:
            raise DataError(f"query references unknown document id {q.doc_id!r}")
        negatives, shortfall = mine_negatives(index, q.query_text, positive, cfg)
        pairs.append(
            TrainingPair(
                query_text=q.query_text,
                positive_doc_id=q.doc_id,
                negative_doc_ids=tuple(index.doc_ids[o] for o in negatives),
                shortfall=shortfall,
            )
        )
    return pairs


def save_pairs(pairs: Sequence[TrainingPair], path: str | Path) -> None:
    write_jsonl(path, ({"query": p.query_text, "positive_doc_id": p.positive_doc_id,
                        "negative_doc_ids": list(p.negative_doc_ids), "shortfall": p.shortfall}
                       for p in pairs))


def load_pairs(path: str | Path) -> list[TrainingPair]:
    pairs = []
    fields = {"query": (str,), "positive_doc_id": (str,), "negative_doc_ids": (list,),
              "shortfall": (bool,)}
    for line_number, obj in read_records(path, fields):
        negatives = tuple(obj["negative_doc_ids"])
        if not all(type(v) is str for v in negatives):
            raise FormatError("`negative_doc_ids` must hold strings only", line_number)
        pairs.append(TrainingPair(query_text=obj["query"], positive_doc_id=obj["positive_doc_id"],
                                  negative_doc_ids=negatives, shortfall=obj["shortfall"]))
    return pairs


def _ids_digest(doc_ids: Sequence[str]) -> bytes:
    return hashlib.sha256(encode_lines(doc_ids)).digest()


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Serialize the index; byte-stable because terms and postings are sorted."""
    terms = encode_lines(index.terms)
    with replacing(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, index.n_docs, len(index.terms), len(index.ords), len(terms),
                              _ids_digest(index.doc_ids)))
        fh.write(terms)
        for values, dtype in ((index.doc_lengths, "<u4"), (index.indptr, "<u8"),
                              (index.ords, "<u4"), (index.tfs, "<u4")):
            fh.write(np.ascontiguousarray(values, dtype=dtype))   # no copy where types match


def _payload_bytes(n_docs: int, n_terms: int, nnz: int, term_bytes: int, _digest: bytes) -> int:
    return term_bytes + 4 * n_docs + 8 * (n_terms + 1) + 8 * nnz


def load_index(path: str | Path, doc_ids: Sequence[str], k1: float = PipelineConfig.bm25_k1,
               b: float = PipelineConfig.bm25_b) -> Bm25Index:
    """Read and validate an index of the documents ``doc_ids``; k1 and b are the caller's."""
    with open(path, "rb") as fh:
        n_docs, n_terms, nnz, term_bytes, digest = read_header(fh, _HEADER, MAGIC, _payload_bytes)
        if n_docs != len(doc_ids) or digest != _ids_digest(doc_ids):
            raise AlignmentError(f"{path} does not index the given document ids")
        try:
            terms = fh.read(term_bytes).decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: term table is not UTF-8") from exc
        if terms.pop() or len(terms) != n_terms:
            raise FormatError(f"{path}: term table does not hold {n_terms} lines")
        doc_lengths = np.fromfile(fh, dtype="<u4", count=n_docs)
        indptr = np.fromfile(fh, dtype="<u8", count=n_terms + 1).astype(np.int64)
        ords = np.fromfile(fh, dtype="<u4", count=nnz)
        tfs = np.fromfile(fh, dtype="<u4", count=nnz)
    for previous, term in zip(terms, terms[1:]):
        if term <= previous:
            raise FormatError(f"{path}: terms out of order at {term!r}")
    if indptr[0] != 0 or (np.diff(indptr) < 1).any():
        raise FormatError(f"{path}: indptr does not start at 0 and strictly increase")
    if indptr[-1] != nnz:
        raise FormatError(f"{path}: indptr ends at {indptr[-1]}, expected {nnz} postings")
    if nnz and int(ords.max()) >= n_docs:
        raise FormatError(f"{path}: posting ordinal {int(ords.max())} out of range")
    if (tfs < 1).any():
        raise FormatError(f"{path}: non-positive term frequency")
    unordered = ords[1:] <= ords[:-1]
    unordered[indptr[1:-1] - 1] = False              # a new term starts its own run
    if unordered.any():
        raise FormatError(f"{path}: postings out of order after posting {int(unordered.argmax())}")
    wrong = np.bincount(ords, weights=tfs, minlength=n_docs) != doc_lengths   # so avgdl > 0
    if wrong.any():
        raise FormatError(f"{path}: document {int(wrong.argmax())}'s length is not its tf sum")
    return Bm25Index(doc_ids, doc_lengths, terms, indptr, ords, tfs, k1=k1, b=b)
