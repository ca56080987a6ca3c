"""Document embeddings: storage, alignment with document ids, and a deterministic test embedder.

Stages pass embeddings as one C-contiguous float32 ``(n, d)`` array whose row i belongs
to document ordinal i; ``load_embeddings``, ``embed_collection`` and ``load_aligned``
return one. On disk: 8-byte magic ``DQGEMB01``, row count n (u64 LE), dimension d
(u32 LE), then n*d float32 LE in row-major order. The optional ``<path>.ids`` sidecar
(one document id per line, UTF-8) names the document of each row; ``load_aligned``
lines a file's rows up with document ids through it, or in file order without one.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .corpus import (TokenizedCollection, encode_lines, read_header, read_text, replacing,
                     tokenize)
from .errors import AlignmentError, DataError, FormatError

MAGIC = b"DQGEMB01"
_HEADER = struct.Struct("<8sQI")
# embed_collection sums rows in blocks whose float64 rows x d slice stays under this;
# the block's per-token cells, bucket and sign arrays come on top of it
_BLOCK_BYTES = 1 << 20


def _read_shape(fh: BinaryIO) -> tuple[int, int]:
    n, d = read_header(fh, _HEADER, MAGIC, lambda n, d: n * d * 4)
    if d < 1:
        raise FormatError(f"{fh.name}: dimension must be >= 1, got {d}")
    return n, d


def read_shape(path: str | Path) -> tuple[int, int]:
    """(rows, dimension) of an embedding file, from its header alone."""
    with open(path, "rb") as fh:
        return _read_shape(fh)


def load_embeddings(path: str | Path) -> np.ndarray:
    """Read an embedding file, validating magic, shape, and finiteness."""
    with open(path, "rb") as fh:
        n, d = _read_shape(fh)
        data = np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)
    # max and min are NaN or infinite exactly when a value of the row is, without an n x d mask
    finite = np.isfinite(data.max(axis=1)) & np.isfinite(data.min(axis=1))
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise DataError(f"{path}: non-finite value in row {bad}")
    return data


def save_embeddings(data: np.ndarray, path: str | Path, ids: list[str] | None = None) -> None:
    """Write an ``(n, d)`` array in the binary format; optionally emit the `.ids` sidecar."""
    n, d = data.shape
    if ids is not None and len(ids) != n:
        raise DataError(f"{len(ids)} ids for {n} rows")
    with replacing(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, n, d))
        fh.write(np.ascontiguousarray(data, dtype="<f4"))   # the buffer, not a copy
    if ids is not None:
        with replacing(str(path) + ".ids", binary=True) as fh:
            fh.write(encode_lines(ids))


def load_ids(path: str | Path) -> list[str]:
    """Read an `.ids` sidecar: one id per line (any ``str.splitlines`` break ends one)."""
    return [doc_id for doc_id in read_text(path).splitlines() if doc_id]


def load_aligned(path: str | Path, doc_ids: list[str]) -> np.ndarray:
    """The rows of an embedding file for ``doc_ids``, in that order.

    Through the sidecar, rows may come in any order and cover more documents;
    a sidecar already in ``doc_ids`` order returns the loaded array, not a copy.
    """
    data = load_embeddings(path)
    ids_path = Path(str(path) + ".ids")
    if not ids_path.exists():
        if len(data) != len(doc_ids):
            raise AlignmentError(
                f"embedding rows ({len(data)}) != collection size ({len(doc_ids)})")
        return data
    ids = load_ids(ids_path)
    if len(ids) != len(data):
        raise AlignmentError(f"sidecar has {len(ids)} ids for {len(data)} embedding rows")
    if ids == doc_ids:          # distinct ids (the caller's), so no duplicate to find
        return data
    id_to_row: dict[str, int] = {}
    for i, row_id in enumerate(ids):
        if row_id in id_to_row:
            raise AlignmentError(f"duplicate id {row_id!r} in embedding sidecar")
        id_to_row[row_id] = i
    try:
        rows = [id_to_row[doc_id] for doc_id in doc_ids]
    except KeyError as exc:
        raise AlignmentError(f"no embedding row for document {exc.args[0]!r}") from None
    return data[rows]


def _term_hasher(d: int, seed: int) -> Callable[[str], tuple[int, float]]:
    """A token's bucket in [0, d) and its +/-1 sign, from two keyed BLAKE2b hashes.

    The key is ``seed % 2**64``; the personalisation tells the hashes apart.
    Each hasher absorbs the key block once, and every token hashes from a copy.
    """
    key = struct.pack("<Q", seed % (1 << 64))
    keyed_bucket = hashlib.blake2b(digest_size=8, key=key, person=b"bucket")
    keyed_sign = hashlib.blake2b(digest_size=8, key=key, person=b"sign")

    def bucket_and_sign(token: str) -> tuple[int, float]:
        data = token.encode("utf-8")
        bucket, sign = keyed_bucket.copy(), keyed_sign.copy()
        bucket.update(data)
        sign.update(data)
        return (int.from_bytes(bucket.digest(), "little") % d,
                1.0 if sign.digest()[0] & 1 else -1.0)

    return bucket_and_sign


def hash_embed(text: str, d: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-hashed-tokens unit vector; a stand-in encoder for tests.

    Tokens are hashed to a bucket in [0, d) with a +/-1 sign from a second
    hash, accumulated, and L2-normalized. Identical (text, d, seed) always
    produce an identical vector.
    """
    if d < 8:
        raise DataError(f"hash_embed dimension must be >= 8, got {d}")
    tokens = tokenize(text)
    if not tokens:
        raise DataError("hash_embed on text with no tokens")
    vec = np.zeros(d, dtype=np.float64)
    bucket_and_sign = _term_hasher(d, seed)
    for token in tokens:
        bucket, sign = bucket_and_sign(token)
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DataError("hash_embed accumulated to the zero vector")
    return (vec / norm).astype(np.float32)


def embed_collection(tokens: TokenizedCollection, d: int, seed: int) -> np.ndarray:
    """hash_embed every document of a token stream, a block of rows at a time, in order.

    Each distinct term is hashed once. The +/-1 sums are integers, exact in
    float64 in any order, and so is each row's sum of squares, so every row
    has the bytes ``hash_embed`` gives for that document's rendered text.
    d is >= 8 (``PipelineConfig`` checks ``hash_embed_dim``).
    """
    hashed = list(map(_term_hasher(d, seed), tokens.terms))
    bucket = np.array([h[0] for h in hashed], dtype=np.int64)
    sign = np.array([h[1] for h in hashed], dtype=np.float64)
    n = len(tokens.lengths)
    starts = np.concatenate(([0], np.cumsum(tokens.lengths)))
    rows = np.empty((n, d), dtype=np.float32)
    step = max(1, _BLOCK_BYTES // (8 * d))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        ids = tokens.ids[starts[lo]:starts[hi]]
        cells = np.repeat(np.arange(0, (hi - lo) * d, d, dtype=np.int64), tokens.lengths[lo:hi])
        cells += bucket[ids]
        sums = np.bincount(cells, weights=sign[ids], minlength=(hi - lo) * d).reshape(hi - lo, d)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        degenerate = np.flatnonzero(norms == 0.0)
        if degenerate.size:
            first = lo + int(degenerate[0])
            what = "no tokens" if tokens.lengths[first] == 0 else "tokens that cancel out"
            raise DataError(f"document {tokens.doc_ids[first]!r} has {what}")
        sums /= norms[:, None]
        rows[lo:hi] = sums
    return rows
