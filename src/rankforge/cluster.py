"""Spherical k-means over document embeddings plus elbow-method model selection.

Rows are L2-normalized internally, so the squared-Euclidean training
objective and the cosine-based SSE used for the elbow scan order models the
same way. Initialization is k-means++ with a seeded generator; every run is
reproducible from (matrix, config) alone: the config's ``clusters``, ``seed``,
``kmeans_restarts``, ``kmeans_max_iters`` and ``kmeans_tol``.

Model files are binary: magic ``DQGKMC01``, K (u32 LE), d (u32 LE),
n (u64 LE), inertia (f64 LE), centroids (K*d f32 LE, row-major),
assignments (n u32 LE).
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import PipelineConfig
from .corpus import read_header, replacing
from .errors import (DegenerateClusterError, DegenerateVectorError, InvalidConfigError,
                     ValidationError)

MAGIC = b"DQGKMC01"
_HEADER = struct.Struct("<8sIIQd")

# Byte budget of the rows x K distance block in the assignment step and in
# cosine_sse; memory stays bounded however large n x K grows.
_BLOCK_BYTES = 4 << 20
# Largest run of squared differences that _inertia hands to numpy's own sum.
_LEAF = 1 << 16
# k-means++ seeding distances below this are recomputed exactly (see _seed_dists).
_EXACT_BELOW = 1e-9


@dataclass
class KMeansModel:
    K: int
    centroids: np.ndarray      # K x d float64, means of members' normalized rows
    assignments: np.ndarray    # length n, values in [0, K)
    inertia: float
    inertia_history: list[float] = field(default_factory=list)
    converged: bool = True
    # work counters of the fit, kept out of the model file
    rescanned: list[int] = field(default_factory=list)   # rows scanned whole, per iteration
    near_ties: int = 0          # rows resolved through their whole row block
    repairs: int = 0            # empty clusters reseeded
    float64_rows: int = 0       # scanned rows the float32 filter left to float64

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.K)


def groups(assignments: np.ndarray, K: int) -> list[np.ndarray]:
    """The ordinals of each cluster's members, ascending, from one stable argsort.

    Member order fixes the bytes of every centroid and every selection pool.
    """
    order = np.argsort(assignments, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assignments, minlength=K))[:-1])


def _normalized_rows(X: np.ndarray) -> np.ndarray:
    """The rows as float64 unit vectors, in the one n x d float64 array of the fit."""
    rows = X.astype(np.float64)
    norms = np.empty(len(X), dtype=np.float64)
    for block in _row_blocks(*X.shape):     # norm() squares its input into a temporary
        norms[block] = np.linalg.norm(rows[block], axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateVectorError(f"zero-norm embedding row {int(zero[0])}")
    rows /= norms[:, None]
    return rows


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


def _pp_index(d2: np.ndarray, rng: np.random.Generator) -> int:
    """A row drawn with probability d2 / sum(d2); uniform when every d2 is 0.

    The total is numpy's pairwise sum and the running sums are sequential, so
    the target can land past the last running sum. It then takes the last row
    with positive mass, as sample_without_replacement does.
    """
    total = float(d2.sum())
    if total <= 0.0:
        # all remaining mass is zero (duplicate points): fall back to uniform
        return int(rng.integers(d2.size))
    idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right"))
    if idx == d2.size:
        idx = int(np.flatnonzero(d2)[-1])
    return idx


def _kmeans_pp_init(Xn: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = Xn.shape[0]
    centroids = np.empty((K, Xn.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = Xn[first]
    if K == 1:
        return centroids
    d2 = _seed_dists(Xn, centroids[0])
    for j in range(1, K):
        idx = _pp_index(d2, rng)
        centroids[j] = Xn[idx]
        np.minimum(d2, _seed_dists(Xn, centroids[j]), out=d2)
    return centroids


def _row_step(width: int) -> int:
    """Rows per block whose rows x width float64 slice fits in _BLOCK_BYTES (at least one)."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _row_blocks(n: int, width: int):
    """Row slices of _row_step(width) rows."""
    step = _row_step(width)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _distances(rows: np.ndarray, centroids: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """Squared distances of unit rows to centroids: 1 - 2 x.c + ||c||^2, clamped at 0."""
    d2 = rows @ centroids.T
    d2 *= 2.0
    np.subtract(1.0, d2, out=d2)
    d2 += c_sq
    np.maximum(d2, 0.0, out=d2)
    return d2


def _offsets32(rows32: np.ndarray, c2: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """||c||^2 - 2 x.c in float32, from c2 = -2 c: each squared distance less 1.

    Comparisons need no more, so the float32 passes skip _distances' other steps.
    """
    v = rows32 @ c2.T
    v += c_sq
    return v


def _row_min(d2: np.ndarray) -> np.ndarray:
    """Each row's minimum; argmin then a gather beats min(axis=1) on short rows."""
    return d2[np.arange(d2.shape[0]), d2.argmin(axis=1)]


def _nearest_two(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's argmin (lowest index on ties), its value and the smallest other
    value; overwrites d2."""
    r = np.arange(d2.shape[0])
    best = d2.argmin(axis=1)
    best_d2 = d2[r, best]
    d2[r, best] = np.inf
    return best, best_d2, _row_min(d2)


def _margin(d: int, dtype) -> float:
    """Slack for comparing distances of d-dimensional rows computed in dtype.

    Let u be dtype's unit roundoff. Rows are unit vectors and centroids have
    norm at most 1, so one float64 evaluation of 1 - 2 x.c + ||c||^2 is within
    (3d + 7) u of the exact value, and two evaluations of it differ by at most
    (6d + 14) u. The float32 operands of _offsets32 are roundings of the
    float64 unit rows and centroids, so their exact dot product is within
    (2 + u) u of the float64 operands'; the float32 dot product of d terms adds
    at most d u / (1 - d u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, §3.1). With the exact factor -2, the rounding of
    ||c||^2 to float32 and that of the sum, which is at most 3 in size, 1 plus
    the float32 value is within (2d + 8) u of the exact one. The margin taken,
    16 (d + 4) u, is at least twice either gap: in float64, a gap wider than
    one margin cannot change sign from one product to another; in float32, it
    also covers the far smaller float64 error several times over.
    """
    return 8.0 * (d + 4) * float(np.finfo(dtype).eps)


def _block_argmin(Xn: np.ndarray, centroids: np.ndarray, c_sq: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """Nearest centroid of each point, read off the whole row block that holds it.

    Blocks are the _row_blocks(n, K) slices, so a near tie resolves to the
    same index, bit for bit, as a full blocked pass over every row would.
    """
    step = _row_step(centroids.shape[0])
    out = np.empty(points.size, dtype=np.int64)
    blocks = points // step
    for b in np.unique(blocks):
        start = int(b) * step
        sel = blocks == b
        d2 = _distances(Xn[start:start + step], centroids, c_sq)
        out[sel] = d2[points[sel] - start].argmin(axis=1)
        del d2      # one block alive at a time
    return out


def _assign(Xn: np.ndarray, rows32: np.ndarray, centroids: np.ndarray,
            assignments: np.ndarray, lb: np.ndarray,
            moved: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Nearest centroid per row, lowest index on ties, by exact incremental assignment.

    ``lb[i]`` is at most the squared distance from row i to every centroid
    other than its own, less the float64 margin, as of the previous call; -inf
    forces a whole-row scan. A centroid whose bytes did not change has
    unchanged distances, so only the ``moved`` centroids can lower it. lb is
    updated in place.

    Distances are found in float32 (_offsets32, on ``rows32``, the float32
    copy of Xn, and a float32 copy of the centroids), each within the float32
    margin of every float64 evaluation. A row whose float32 best is nearer
    than its second by more than twice that keeps the float32 argmin, which a
    full float64 pass would also pick; its bound is the float32 second less
    the float32 margin. Every other row is decided in float64.

    Returns (assignments, rows scanned whole, rows decided in float64, near-tie
    rows resolved through _block_argmin).
    """
    n, K = Xn.shape[0], centroids.shape[0]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c2, c_sq32 = centroids.astype(np.float32), c_sq.astype(np.float32)
    c2 *= -2.0
    margin, margin32 = _margin(Xn.shape[1], np.float64), _margin(Xn.shape[1], np.float32)
    shift = 1.0 - margin32 - margin     # float32 offset + shift: a bound for lb
    # rows per block: the distance slice and the gathered rows both fit in _BLOCK_BYTES
    width = max(K, Xn.shape[1])
    if moved.all():
        scan = np.arange(n)
    else:
        idx = np.flatnonzero(moved)
        moved_c2, moved_sq = c2[idx], c_sq32[idx]
        column = np.full(K, -1, dtype=np.int64)
        column[idx] = np.arange(idx.size)
        own = np.empty(n, dtype=np.float64)
        for rows in _row_blocks(n, width):
            a = assignments[rows]
            if idx.size:
                v = _offsets32(rows32[rows], moved_c2, moved_sq)
                col = column[a]
                hit = np.flatnonzero(col >= 0)
                v[hit, col[hit]] = np.inf       # a row's own centroid is not a rival
                rival = _row_min(v).astype(np.float64)
                del v       # one distance block alive at a time
                rival += shift
                np.minimum(lb[rows], rival, out=lb[rows])
            own[rows] = np.einsum("ij,ij->i", Xn[rows], centroids[a])
        own *= -2.0
        own += 1.0
        own += c_sq[assignments]
        np.maximum(own, 0.0, out=own)
        # own < lb - margin: the own centroid is nearer than any rival, whatever product
        scan = np.flatnonzero(own >= lb - margin)
        del own
    out = assignments.copy()
    whole = scan.size == n      # every row: read the rows in place, not gathered
    step = _row_step(K if whole else width)
    unsure = []
    for start in range(0, scan.size, step):
        points = scan[start:start + step]
        best, best_v, second = _nearest_two(
            _offsets32(rows32[start:start + step] if whole else rows32[points], c2, c_sq32))
        second = second.astype(np.float64)
        out[points] = best
        lb[points] = second + shift
        unsure.append(points[second - best_v <= 2.0 * margin32])
    # rows the float32 gap cannot decide: float64 distances, and a near tie
    # there reads the whole row block, so it resolves as a full pass would
    unsure = np.concatenate(unsure or [scan])
    ties = 0
    step = _row_step(2 * width)     # half blocks: _block_argmin's block is the largest
    for start in range(0, unsure.size, step):
        points = unsure[start:start + step]
        best, best_d2, second = _nearest_two(_distances(Xn[points], centroids, c_sq))
        tie = np.flatnonzero(second - best_d2 <= margin)
        if tie.size:
            best[tie] = _block_argmin(Xn, centroids, c_sq, points[tie])
            second[tie] = best_d2[tie]      # the subset's best may be a rival now
            ties += tie.size
        out[points] = best
        lb[points] = second - margin
    return out, int(scan.size), int(unsure.size), ties


def _update_centroids(Xn: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
                      clusters: np.ndarray) -> None:
    """Each listed centroid becomes the mean of its members, taken in ascending row order."""
    members = groups(assignments, centroids.shape[0])
    for k in clusters:
        centroids[k] = Xn[members[k]].mean(axis=0)


def _repair_empty(Xn: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
                  K: int) -> np.ndarray:
    """Reseed each empty cluster with the point farthest from its own centroid.

    Returns the points moved. A move changes only the centroid of the empty
    cluster it fills, so every other point's distance to its own centroid is
    computed once per call.
    """
    counts = np.bincount(assignments, minlength=K)
    empty = np.flatnonzero(counts == 0)
    moved = np.empty(empty.size, dtype=np.int64)
    if not empty.size:
        return moved
    own = np.empty(assignments.size, dtype=np.float64)
    for rows in _row_blocks(assignments.size, Xn.shape[1]):
        diff = Xn[rows] - centroids[assignments[rows]]
        np.square(diff, out=diff)
        own[rows] = diff.sum(axis=1)
    own[counts[assignments] < 2] = -np.inf   # never empty a donor cluster
    for i, k in enumerate(empty):
        p = int(np.argmax(own))
        donor = assignments[p]
        counts[donor] -= 1
        if counts[donor] < 2:
            own[assignments == donor] = -np.inf
        assignments[p] = k
        counts[k] = 1
        own[p] = -np.inf
        centroids[k] = Xn[p]
        moved[i] = p
    return moved


def _inertia(Xn: np.ndarray, centroids: np.ndarray, assignments: np.ndarray,
             start: int = 0, stop: int | None = None) -> float:
    """float(np.sum((Xn - centroids[assignments]) ** 2)), bit for bit, without the
    n x d temporary; start and stop bound a run of the flattened n x d values.

    numpy sums a contiguous float64 array pairwise: a run of more than 128
    values splits at n2 = n//2 - (n//2) % 8 and sums each half the same way.
    Replaying the splits down to runs of at most _LEAF values, each summed by
    numpy from the rows that hold it, gives the same tree and so the same bits.
    """
    stop = Xn.size if stop is None else stop
    size = stop - start
    if size > _LEAF:
        half = size // 2
        half -= half % 8
        return (_inertia(Xn, centroids, assignments, start, start + half)
                + _inertia(Xn, centroids, assignments, start + half, stop))
    d = Xn.shape[1]
    first, last = start // d, -(-stop // d)
    sq = Xn[first:last] - centroids[assignments[first:last]]
    np.square(sq, out=sq)
    return float(sq.ravel()[start - first * d:stop - first * d].sum())


def _lloyd(Xn: np.ndarray, rows32: np.ndarray, cfg: PipelineConfig,
           rng: np.random.Generator) -> KMeansModel:
    """One seeded Lloyd run on the unit rows Xn and their float32 copy rows32."""
    n = Xn.shape[0]
    K = cfg.clusters
    centroids = _kmeans_pp_init(Xn, K, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    lb = np.full(n, -np.inf)
    previous = np.full_like(centroids, np.nan)      # NaN: every centroid moved at first
    history: list[float] = []
    rescanned: list[int] = []
    float64_rows = near_ties = repairs = 0
    converged = False
    prev_inertia: float | None = None

    for _ in range(cfg.kmeans_max_iters):
        moved = (centroids != previous).any(axis=1)
        previous[...] = centroids
        new_assignments, scanned, rows64, ties = _assign(Xn, rows32, centroids, assignments,
                                                         lb, moved)
        rescanned.append(scanned)
        float64_rows += rows64
        near_ties += ties
        repaired = _repair_empty(Xn, centroids, new_assignments, K)
        lb[repaired] = -np.inf
        repairs += repaired.size
        changed = np.flatnonzero(new_assignments != assignments)
        touched = np.unique(np.concatenate((assignments[changed], new_assignments[changed])))
        _update_centroids(Xn, centroids, new_assignments, touched[touched >= 0])
        inertia = _inertia(Xn, centroids, new_assignments)
        history.append(inertia)
        if not changed.size:
            converged = True
            break
        assignments = new_assignments
        if prev_inertia is not None and prev_inertia - inertia <= cfg.kmeans_tol * prev_inertia:
            converged = True
            break
        prev_inertia = inertia

    return KMeansModel(
        K=K,
        centroids=centroids,
        assignments=assignments,
        inertia=history[-1],
        inertia_history=history,
        converged=converged,
        rescanned=rescanned,
        near_ties=near_ties,
        repairs=repairs,
        float64_rows=float64_rows,
    )


def kmeans_fit(X: np.ndarray, cfg: PipelineConfig) -> KMeansModel:
    """Fit spherical k-means; best of cfg.kmeans_restarts seeded runs by inertia.

    The fit holds one float64 and one float32 copy of the unit rows. A caller
    that passes its only reference to X lets the float32 input go once the
    unit rows exist.
    """
    if cfg.clusters > len(X):
        raise InvalidConfigError(f"K ({cfg.clusters}) exceeds row count ({len(X)})")
    Xn = _normalized_rows(X)
    del X
    rows32 = Xn.astype(np.float32)
    best: KMeansModel | None = None
    for restart in range(cfg.kmeans_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
        model = _lloyd(Xn, rows32, cfg, rng)
        if best is None or model.inertia < best.inertia:
            best = model
    assert best is not None
    return best


def cosine_sse(X: np.ndarray, model: KMeansModel) -> float:
    """Sum over rows of (1 - cosine to the nearest centroid), nearest by cosine."""
    if X.shape[1] != model.d:
        raise ValidationError(f"matrix dimension {X.shape[1]} != model dimension {model.d}")
    if len(X) == 0:
        return 0.0
    Xn = _normalized_rows(X)
    cen_norms = np.linalg.norm(model.centroids, axis=1)
    zero = cen_norms == 0.0
    if zero.all():
        raise DegenerateClusterError("all centroids have zero norm")
    unit_centroids = model.centroids / np.where(zero, 1.0, cen_norms)[:, None]
    best = np.empty(len(X), dtype=np.float64)
    for rows in _row_blocks(len(X), model.K):
        cos = Xn[rows] @ unit_centroids.T
        cos[:, zero] = -np.inf   # zero-norm centroid is never nearest
        best[rows] = cos.max(axis=1)
    np.clip(best, -1.0, 1.0, out=best)
    return float(np.sum(1.0 - best))


@dataclass
class ElbowResult:
    points: list[tuple[int, float]]    # (K, cosine SSE) per scanned K
    knee: int | None                   # K maximizing the discrete second difference


def elbow_scan(X: np.ndarray, k_values: list[int], cfg: PipelineConfig) -> ElbowResult:
    """Fit one model per K (cfg with its clusters replaced) and locate the SSE knee."""
    if not k_values:
        raise InvalidConfigError("k_values must be non-empty")
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise InvalidConfigError("k_values must be strictly ascending")
    points: list[tuple[int, float]] = []
    for k in k_values:
        model = kmeans_fit(X, dataclasses.replace(cfg, clusters=k))
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
    with replacing(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, model.K, model.d, n, model.inertia))
        fh.write(np.ascontiguousarray(model.centroids, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(model.assignments, dtype="<u4").tobytes())


def _read_header(fh: BinaryIO) -> list:
    return read_header(fh, _HEADER, MAGIC, lambda K, d, n, inertia: K * d * 4 + n * 4)


def read_shape(path: str | Path) -> tuple[int, int, int]:
    """(K, d, n) of a model file, from its header alone."""
    with open(path, "rb") as fh:
        return tuple(_read_header(fh)[:3])


def load_model(path: str | Path) -> KMeansModel:
    with open(path, "rb") as fh:
        K, d, n, inertia = _read_header(fh)
        centroids = np.fromfile(fh, dtype="<f4", count=K * d).reshape(K, d).astype(np.float64)
        assignments = np.fromfile(fh, dtype="<u4", count=n).astype(np.int64)
    if n and (assignments >= K).any():
        raise ValidationError(f"{path}: assignment out of range [0, {K})")
    return KMeansModel(K=K, centroids=centroids, assignments=assignments, inertia=inertia)
