"""Spherical k-means over document embeddings plus elbow-method model selection.

Rows are L2-normalized internally, so the squared-Euclidean training
objective and the cosine-based SSE used for the elbow scan order models the
same way. Initialization is k-means++ with a seeded generator; every run is
reproducible from (matrix, config) alone.

Model files are binary: magic ``DQGKMC01``, K (u32 LE), d (u32 LE),
n (u64 LE), inertia (f64 LE), centroids (K*d f32 LE, row-major),
assignments (n u32 LE).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    DegenerateClusterError,
    DegenerateVectorError,
    FormatError,
    InvalidConfigError,
    SizeMismatchError,
    ValidationError,
)

DEFAULT_K = 1000

MAGIC = b"DQGKMC01"
_HEADER = struct.Struct("<8sIIQd")

# Byte budget of the rows x K distance block in the assignment step and in
# cosine_sse; memory stays bounded however large n x K grows.
_BLOCK_BYTES = 4 << 20
# k-means++ seeding distances below this are recomputed exactly (see _seed_dists).
_EXACT_BELOW = 1e-9


@dataclass
class ClusteringConfig:
    K: int
    seed: int = 0
    max_iters: int = 100
    tol: float = 1e-4          # relative inertia change between iterations
    restarts: int = 3

    def validate(self, n: int) -> None:
        if self.K < 1:
            raise InvalidConfigError(f"K must be >= 1, got {self.K}")
        if self.K > n:
            raise InvalidConfigError(f"K ({self.K}) exceeds row count ({n})")
        if self.max_iters < 1:
            raise InvalidConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise InvalidConfigError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class KMeansModel:
    K: int
    centroids: np.ndarray      # K x d float64, means of members' normalized rows
    assignments: np.ndarray    # length n, values in [0, K)
    inertia: float
    inertia_history: list[float] = field(default_factory=list)
    converged: bool = True

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.K)

    def members(self, k: int) -> np.ndarray:
        """Ordinals assigned to cluster k, ascending."""
        return np.flatnonzero(self.assignments == k)


def _normalized_rows(X: EmbeddingMatrix) -> np.ndarray:
    rows = X.data.astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateVectorError(f"zero-norm embedding row {int(zero[0])}")
    return rows / norms[:, None]


def _seed_dists(Xn: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of every row to c, from one mat-vec (rows are unit vectors).

    Distances below _EXACT_BELOW are recomputed as sum((x - c)**2), so a row
    equal to c gets exactly 0 and duplicate points leave no stray mass.
    """
    d2 = Xn @ c
    d2 *= -2.0
    d2 += 2.0
    np.maximum(d2, 0.0, out=d2)
    near = np.flatnonzero(d2 < _EXACT_BELOW)
    d2[near] = np.sum((Xn[near] - c) ** 2, axis=1)
    return d2


def _kmeans_pp_init(Xn: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = Xn.shape[0]
    centroids = np.empty((K, Xn.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = Xn[first]
    if K == 1:
        return centroids
    d2 = _seed_dists(Xn, centroids[0])
    for j in range(1, K):
        total = float(d2.sum())
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            idx = min(idx, n - 1)
        else:
            # all remaining mass is zero (duplicate points): fall back to uniform
            idx = int(rng.integers(n))
        centroids[j] = Xn[idx]
        np.minimum(d2, _seed_dists(Xn, centroids[j]), out=d2)
    return centroids


def _row_blocks(n: int, K: int):
    """Row slices whose rows x K float64 block fits in _BLOCK_BYTES (at least one row)."""
    step = max(1, _BLOCK_BYTES // (8 * K))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _assign(Xn: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, one row block of distances at a time."""
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    out = np.empty(Xn.shape[0], dtype=np.int64)
    for rows in _row_blocks(Xn.shape[0], centroids.shape[0]):
        # rows are unit vectors: ||x - c||^2 = 1 - 2 x.c + ||c||^2
        d2 = Xn[rows] @ centroids.T
        d2 *= 2.0
        np.subtract(1.0, d2, out=d2)
        d2 += c_sq
        np.maximum(d2, 0.0, out=d2)
        out[rows] = d2.argmin(axis=1)
    return out


def _update_centroids(Xn: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> None:
    """Each centroid becomes the mean of its members, taken in ascending row order."""
    order = np.argsort(assignments, kind="stable")
    ends = np.cumsum(np.bincount(assignments, minlength=centroids.shape[0]))
    start = 0
    for k, end in enumerate(ends):
        centroids[k] = Xn[order[start:end]].mean(axis=0)
        start = end


def _repair_empty(Xn: np.ndarray, centroids: np.ndarray, assignments: np.ndarray, K: int) -> None:
    """Reseed each empty cluster with the point farthest from its own centroid."""
    counts = np.bincount(assignments, minlength=K)
    for k in np.flatnonzero(counts == 0):
        own = np.sum((Xn - centroids[assignments]) ** 2, axis=1)
        own[counts[assignments] < 2] = -np.inf   # never empty a donor cluster
        p = int(np.argmax(own))
        counts[assignments[p]] -= 1
        assignments[p] = k
        counts[k] = 1
        centroids[k] = Xn[p]


def _lloyd(Xn: np.ndarray, cfg: ClusteringConfig, rng: np.random.Generator) -> KMeansModel:
    n = Xn.shape[0]
    K = cfg.K
    centroids = _kmeans_pp_init(Xn, K, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    converged = False
    prev_inertia: float | None = None

    for _ in range(cfg.max_iters):
        new_assignments = _assign(Xn, centroids)
        _repair_empty(Xn, centroids, new_assignments, K)
        _update_centroids(Xn, centroids, new_assignments)
        inertia = float(np.sum((Xn - centroids[new_assignments]) ** 2))
        history.append(inertia)
        if np.array_equal(new_assignments, assignments):
            converged = True
            assignments = new_assignments
            break
        assignments = new_assignments
        if prev_inertia is not None and prev_inertia - inertia <= cfg.tol * prev_inertia:
            converged = True
            break
        prev_inertia = inertia

    return KMeansModel(
        K=K,
        centroids=centroids,
        assignments=assignments.astype(np.int64),
        inertia=history[-1],
        inertia_history=history,
        converged=converged,
    )


def kmeans_fit(X: EmbeddingMatrix, cfg: ClusteringConfig) -> KMeansModel:
    """Fit spherical k-means; best of cfg.restarts seeded runs by inertia."""
    cfg.validate(X.n)
    Xn = _normalized_rows(X)
    best: KMeansModel | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
        model = _lloyd(Xn, cfg, rng)
        if best is None or model.inertia < best.inertia:
            best = model
    assert best is not None
    return best


def cosine_sse(X: EmbeddingMatrix, model: KMeansModel) -> float:
    """Sum over rows of (1 - cosine to the nearest centroid), nearest by cosine."""
    if X.d != model.d:
        raise ValidationError(f"matrix dimension {X.d} != model dimension {model.d}")
    if X.n == 0:
        return 0.0
    if not X.data.any(axis=1).all():
        raise DegenerateVectorError("zero-norm embedding row in cosine_sse")
    cen_norms = np.linalg.norm(model.centroids, axis=1)
    zero = cen_norms == 0.0
    if zero.all():
        raise DegenerateClusterError("all centroids have zero norm")
    unit_centroids = model.centroids / np.where(zero, 1.0, cen_norms)[:, None]
    best = np.empty(X.n, dtype=np.float64)
    for rows in _row_blocks(X.n, model.K):
        block = X.data[rows].astype(np.float64)
        cos = (block / np.linalg.norm(block, axis=1)[:, None]) @ unit_centroids.T
        cos[:, zero] = -np.inf   # zero-norm centroid is never nearest
        best[rows] = cos.max(axis=1)
    np.clip(best, -1.0, 1.0, out=best)
    return float(np.sum(1.0 - best))


@dataclass
class ElbowResult:
    points: list[tuple[int, float]]    # (K, cosine SSE) per scanned K
    knee: int | None                   # K maximizing the discrete second difference


def elbow_scan(X: EmbeddingMatrix, k_values: list[int], cfg: ClusteringConfig) -> ElbowResult:
    """Fit one model per K (shared seed policy) and locate the SSE knee."""
    if not k_values:
        raise InvalidConfigError("k_values must be non-empty")
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise InvalidConfigError("k_values must be strictly ascending")
    points: list[tuple[int, float]] = []
    for k in k_values:
        model = kmeans_fit(X, ClusteringConfig(K=k, seed=cfg.seed, max_iters=cfg.max_iters,
                                               tol=cfg.tol, restarts=cfg.restarts))
        points.append((k, cosine_sse(X, model)))
    knee: int | None = None
    if len(points) >= 3:
        best_curv = -np.inf
        for i in range(1, len(points) - 1):
            curv = points[i - 1][1] - 2.0 * points[i][1] + points[i + 1][1]
            if curv > best_curv:
                best_curv = curv
                knee = points[i][0]
    return ElbowResult(points=points, knee=knee)


def save_model(model: KMeansModel, path: str | Path) -> None:
    n = int(model.assignments.shape[0])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, model.K, model.d, n, model.inertia))
        fh.write(np.ascontiguousarray(model.centroids, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(model.assignments, dtype="<u4").tobytes())


def load_model(path: str | Path) -> KMeansModel:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file too short for header")
    magic, K, d, n, inertia = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    expected = K * d * 4 + n * 4
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise SizeMismatchError(f"{path}: expected {expected} payload bytes, found {len(payload)}")
    centroids = np.frombuffer(payload[: K * d * 4], dtype="<f4").reshape(K, d).astype(np.float64)
    assignments = np.frombuffer(payload[K * d * 4:], dtype="<u4").astype(np.int64)
    if n and (assignments >= K).any():
        raise ValidationError(f"{path}: assignment out of range [0, {K})")
    return KMeansModel(K=K, centroids=centroids, assignments=assignments, inertia=inertia)
