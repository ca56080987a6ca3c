"""Spherical k-means over document embeddings plus elbow-method model selection.

Rows are L2-normalized internally, and the elbow scan reads each fit's own
inertia, its squared-Euclidean SSE on those unit rows. Initialization is
k-means++ with a seeded generator; every run is reproducible from (matrix,
config) alone: the config's ``clusters``, ``seed``, ``kmeans_restarts``,
``kmeans_max_iters`` and ``kmeans_tol``.

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
from .errors import DataError

MAGIC = b"DQGKMC01"
_HEADER = struct.Struct("<8sIIQd")

# Byte budget of the rows x K distance block in the assignment step; memory
# stays bounded however large n x K grows. The norm pass and row_blocks take an
# eighth of it: most of their passes run every iteration, and 4 MiB blocks
# raised peak RSS by 3.6 MB at 10k x 128.
_BLOCK_BYTES = 4 << 20


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
    near_ties: int = 0          # (row, centroid) candidates evaluated by _pair_d2
    repairs: int = 0            # empty clusters reseeded
    float64_rows: int = 0       # scanned rows the float32 filter left to _pair_d2

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


def row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a float64 array, with the bits of
    ``np.linalg.norm(x, axis=1)``."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


# Row norms for which the float32 filter is certified (see _margin). A row
# outside gets a NaN reciprocal, and every comparison leaves it to the exact path.
_FILTER_NORMS = (2.0 ** -100, 2.0 ** 100)


@dataclass(frozen=True)
class _Rows:
    """The fit's rows: the caller's X, read but never changed, beside each row's
    float64 norm and the float32 reciprocal of it that scales the float32 filter."""
    X: np.ndarray
    norms: np.ndarray       # float64, all positive
    recip: np.ndarray       # float32 1 / norm; NaN outside _FILTER_NORMS

    def unit(self, idx) -> np.ndarray:
        """The float64 unit rows X[idx], with the bits of casting all of X and
        dividing each row by its norm: the division is per value."""
        x = self.X[idx].astype(np.float64)
        x /= self.norms[idx, None]
        return x


def _rows(X: np.ndarray) -> _Rows:
    """X with its row norms."""
    norms = np.empty(len(X), dtype=np.float64)
    step = _rows_per_block(X.shape[1], _BLOCK_BYTES // 8)
    for start in range(0, len(X), step):
        block = slice(start, start + step)
        norms[block] = row_norms(X[block].astype(np.float64))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"zero-norm embedding row {int(zero[0])}")
    recip = np.full(len(X), np.nan, dtype=np.float32)
    certified = (norms >= _FILTER_NORMS[0]) & (norms <= _FILTER_NORMS[1])
    recip[certified] = 1.0 / norms[certified]
    return _Rows(X, norms, recip)


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


def _rows_per_block(width: int, budget: int) -> int:
    """Rows per block whose rows x width float64 slice fits in budget bytes (at least one)."""
    return max(1, budget // (8 * width))


def _pair_d2(rows: np.ndarray, cents: np.ndarray, c_sq: np.ndarray) -> np.ndarray:
    """The fit's one exact distance: 1 - 2 x.c + ||c||^2, clamped at 0, for each
    unit row x and the centroid c beside it (``c_sq`` holds its squared norm).

    einsum sums each pair's products apart from the others, so a value's bits
    depend on its row and centroid alone, not on the other pairs in the call.
    That needs C-ordered rows: a Fortran-ordered operand sums in another order.
    """
    d2 = 1.0 - 2.0 * np.einsum("ij,ij->i", rows, cents)
    d2 += c_sq
    return np.maximum(d2, 0.0, out=d2)


def _offsets32(x: np.ndarray, recip: np.ndarray, c2: np.ndarray,
               c_sq: np.ndarray) -> np.ndarray:
    """||c||^2 - 2 x.c / ||x|| in float32, for rows x of X, their reciprocal norms
    and c2 = -2 c: each squared distance less 1. NaN where recip is NaN.

    Comparisons need no more, so the float32 passes neither add 1 nor clamp.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # only a NaN-scaled row can overflow
        v = x @ c2.T
    v *= recip[:, None]
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


def _margin(d: int) -> float:
    """Slack between 1 plus a float32 offset and _pair_d2, for d-dimensional rows.

    Let u be float32's unit roundoff, v float64's, x a row of X and
    x' = x / ||x||. Centroids have norm at most 1, and a d-term dot product is
    within d u / (1 - d u) of the exact one in any summation order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, §3.1). Each
    value of the float64 unit row is within (d/2 + 2) v of that of x',
    relatively (the norm and the division), so _pair_d2, whatever order einsum
    sums in, is within (4d + 11) v of the exact 1 - 2 x'.c + ||c||^2.
    _offsets32 takes x as given, exact, -2c rounded to float32, within u of
    it, and the float32 reciprocal of the float64 norm, within u + (d/2 + 2) v
    of 1 / ||x||. With the float32 dot product's error, the rounding of its
    product by the reciprocal, that of ||c||^2 to float32 and that of the sum,
    at most 3 in size, 1 plus the float32 offset is within (2d + 11) u of the
    exact value, to first order in u. That needs a row norm in _FILTER_NORMS:
    the reciprocal is then a normal float32, x.c cannot overflow, and
    underflow adds at most d 2^-150 to the dot product, d 2^-50 once scaled.
    The margin, 16 (d + 4) u, is at least twice both gaps together, with
    12 d u to spare for the higher-order terms: 1 plus a float32 offset less
    the margin is below the _pair_d2 value, and a float32 gap wider than twice
    the margin orders the two _pair_d2 values the same way. Outside
    _FILTER_NORMS the offset is NaN, and every test of an offset is written
    so that NaN proves nothing.
    """
    return 8.0 * (d + 4) * float(np.finfo(np.float32).eps)


def _kmeans_pp_init(rows: _Rows, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur and Vassilvitskii, SODA 2007) on the unit rows.

    d2 holds each row's sum((x - c)**2) to its nearest centre so far. A new
    centre c is evaluated only on the rows whose bound, 1 plus the float32
    offset to c less m = _margin(d), is below their d2 or is NaN; the first
    centre meets d2 = inf on every row.

    A skipped row's sum((x - c)**2) is above its bound, so at least d2, which
    stays. By _margin's proof (u, v and x' as there) 1 plus the offset is
    within (2d + 11) u of the exact 1 - 2 x'.c + ||c||^2. For the float64 unit
    row x, ||x - c||^2 differs from that by at most (2d + 10) v, the gap of
    ||x||^2 from 1 and that of x from x', and the float64 sum, at most 4 for
    unit x and c, is within 4 (d + 2) v of its exact value in any order. All
    three, and the float64 rounding of the bound, stay far below
    m/2 = 8 (d + 4) u. A row equal to c gets exactly 0, every x - c being 0,
    and is evaluated: its bound is below -m/2 < 0 <= d2. So duplicate points
    leave no stray mass.
    """
    n, d = rows.X.shape
    centroids = np.empty((K, d), dtype=np.float64)
    centroids[0] = rows.unit(int(rng.integers(n)))
    d2 = np.full(n, np.inf)
    shift = 1.0 - _margin(d)
    for j in range(1, K):
        c = centroids[j - 1:j]
        c_sq = np.einsum("ij,ij->i", c, c)
        bound = _offsets32(rows.X, rows.recip, -2.0 * c.astype(np.float32),
                           c_sq.astype(np.float32))
        open_rows = np.flatnonzero(~(bound[:, 0].astype(np.float64) + shift >= d2))
        new = _sq_dists(rows, open_rows, centroids, np.full_like(open_rows, j - 1))
        d2[open_rows] = np.minimum(d2[open_rows], new)
        centroids[j] = rows.unit(_pp_index(d2, rng))
    return centroids


def _assign(rows: _Rows, centroids: np.ndarray, assignments: np.ndarray, lb: np.ndarray,
            moved: np.ndarray, own_sq: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Nearest centroid per row by _pair_d2, lowest index on ties, found incrementally.

    ``lb[i]`` is at most the _pair_d2 distance from row i to every centroid
    other than its own, as of the previous call; -inf forces a whole-row scan
    and NaN, an uncertified row's bound, does too. A centroid whose bytes did
    not change has unchanged distances, so only the ``moved`` centroids can
    lower it. lb is updated in place. ``own_sq[i]`` is row i's sum((x - c)**2)
    to its own centroid c, read only when some centroid did not move.

    A row keeps its centroid when own_sq plus the slack s = 16 (d + 4) e is
    below lb, e being float64's epsilon and v = e/2. With x' as in _margin,
    _pair_d2 is within (4d + 11) v of the exact 1 - 2 x'.c + ||c||^2 (_margin's
    proof) and sum((x - c)**2) within (2d + 10) v + 4 (d + 2) v of it
    (_kmeans_pp_init's). The kernels' gap, (10d + 29) v, is below s/2, with
    (6d + 35) v to spare for higher-order terms, so the row's _pair_d2 is
    below lb: its own centroid is nearer than any rival.

    Distances are found in float32 (_offsets32, on the rows of X and a
    float32 copy of the centroids), each within the margin of _pair_d2. A row
    whose float32 best is nearer than its second by more than twice that
    keeps the float32 argmin; its bound is the float32 second less the
    margin. Every other row is decided by _pair_d2 among its candidates, the
    centroids within twice the margin of its float32 best: no other centroid
    can be nearest. A NaN offset is within no margin, so every centroid is a
    candidate of an uncertified row.

    Returns (assignments, rows scanned whole, rows decided by _pair_d2,
    candidates evaluated).
    """
    X, recip = rows.X, rows.recip
    n, K = len(X), centroids.shape[0]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c2, c_sq32 = centroids.astype(np.float32), c_sq.astype(np.float32)
    c2 *= -2.0
    margin = _margin(X.shape[1])
    slack = 16.0 * (X.shape[1] + 4) * float(np.finfo(np.float64).eps)
    shift = 1.0 - margin        # float32 offset + shift: a bound for lb
    # rows per block: the distance slice and the gathered rows both fit in _BLOCK_BYTES
    width = max(K, X.shape[1])
    if moved.all():
        scan = np.arange(n)
    else:
        idx = np.flatnonzero(moved)
        if idx.size:
            moved_c2, moved_sq = c2[idx], c_sq32[idx]
            column = np.full(K, -1, dtype=np.int64)
            column[idx] = np.arange(idx.size)
            step = _rows_per_block(width, _BLOCK_BYTES)
            for start in range(0, n, step):
                block = slice(start, start + step)
                v = _offsets32(X[block], recip[block], moved_c2, moved_sq)
                col = column[assignments[block]]
                hit = np.flatnonzero(col >= 0)
                v[hit, col[hit]] = np.inf       # a row's own centroid is not a rival
                rival = _row_min(v).astype(np.float64)
                del v       # one distance block alive at a time
                rival += shift
                np.minimum(lb[block], rival, out=lb[block])
        scan = np.flatnonzero(~(own_sq + slack < lb))    # nearer than any rival
    out = assignments.copy()
    whole = scan.size == n      # every row: read the rows in place, not gathered
    step = _rows_per_block(K if whole else width, _BLOCK_BYTES)
    decided = candidates = 0
    for start in range(0, scan.size, step):
        points = scan[start:start + step]
        block = slice(start, start + step) if whole else points
        v = _offsets32(X[block], recip[block], c2, c_sq32)
        best, best_v, second = _nearest_two(v)
        second = second.astype(np.float64)
        out[points] = best
        lb[points] = second + shift
        # rows the float32 gap cannot decide: _pair_d2 over their candidates,
        # the best (v holds inf there now) and every offset within twice the margin of it
        unsure = np.flatnonzero(~(second - best_v > 2.0 * margin))
        gap = v[unsure] - best_v[unsure, None].astype(np.float64)
        del v       # one distance block alive at a time
        near = ~(gap > 2.0 * margin)
        near[np.arange(unsure.size), best[unsure]] = True
        r, c = np.nonzero(near)
        d2 = np.full(near.shape, np.inf)
        d2[r, c] = _pair_d2(rows.unit(points[unsure[r]]), centroids[c], c_sq[c])
        out[points[unsure]], _, rival = _nearest_two(d2)
        gap[near] = np.inf      # the others' bound: the nearest float32 offset + shift
        lb[points[unsure]] = np.minimum(rival, _row_min(gap) + best_v[unsure] + shift)
        decided += unsure.size
        candidates += r.size
    return out, int(scan.size), decided, candidates


def row_blocks(rows: _Rows, idx: np.ndarray, unit: bool):
    """(positions in idx, the float64 rows X[idx[positions]], divided by their
    norms when unit) in blocks of an eighth of _BLOCK_BYTES; one block when d = 1."""
    d = rows.X.shape[1]
    step = max(idx.size, 1) if d == 1 else _rows_per_block(d, _BLOCK_BYTES // 8)
    for start in range(0, idx.size, step):
        block = slice(start, start + step)
        yield block, rows.unit(idx[block]) if unit else rows.X[idx[block]].astype(np.float64)


def row_mean(rows: _Rows, idx: np.ndarray, unit: bool) -> np.ndarray:
    """The mean of the rows of row_blocks(rows, idx, unit), with the bits of numpy's
    mean over axis 0 of all of them at once. The sum is carried into the next block
    as its first row: numpy adds rows one after another when d >= 2, and sums a
    d = 1 column pairwise, which row_blocks keeps in one block."""
    total = None
    for _, x in row_blocks(rows, idx, unit):
        total = np.add.reduce(x if total is None else np.vstack((total, x)), axis=0)
    return total / idx.size


def _sq_dists(rows: _Rows, idx: np.ndarray, centroids: np.ndarray,
              labels: np.ndarray) -> np.ndarray:
    """sum((x - c)**2) for each unit row x of idx[i] and its centre c = centroids[labels[i]].

    A value's bits depend on its row and centre alone.
    """
    d2 = np.empty(idx.size, dtype=np.float64)
    for block, x in row_blocks(rows, idx, unit=True):
        x -= centroids[labels[block]]
        np.square(x, out=x)
        d2[block] = x.sum(axis=1)
    return d2


def _repair_empty(rows: _Rows, centroids: np.ndarray, assignments: np.ndarray,
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
    own = _sq_dists(rows, np.arange(assignments.size), centroids, assignments)
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
        centroids[k] = rows.unit(p)
        moved[i] = p
    return moved


def _lloyd(rows: _Rows, cfg: PipelineConfig, rng: np.random.Generator) -> KMeansModel:
    """One seeded Lloyd run on the rows."""
    n = len(rows.X)
    K = cfg.clusters
    centroids = _kmeans_pp_init(rows, K, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    lb = np.full(n, -np.inf)
    # each row's sum((x - c)**2) to its own centroid, the inertia's terms and the keep
    # test's distance, refreshed only where its centroid's bytes or its assignment changed
    own_sq = np.empty(n)
    moved = np.ones(K, dtype=bool)
    previous = np.empty_like(centroids)
    history: list[float] = []
    rescanned: list[int] = []
    float64_rows = near_ties = repairs = 0
    converged = False

    for _ in range(cfg.kmeans_max_iters):
        previous[...] = centroids
        new_assignments, scanned, rows64, ties = _assign(rows, centroids, assignments,
                                                         lb, moved, own_sq)
        rescanned.append(scanned)
        float64_rows += rows64
        near_ties += ties
        repaired = _repair_empty(rows, centroids, new_assignments, K)
        lb[repaired] = -np.inf
        repairs += repaired.size
        changed = np.flatnonzero(new_assignments != assignments)
        touched = np.concatenate((assignments[changed], new_assignments[changed]))
        touched = np.flatnonzero(np.bincount(touched[touched >= 0], minlength=K))
        members = groups(new_assignments, K)
        for k in touched:       # the mean of the members' unit rows, in ascending row order
            centroids[k] = row_mean(rows, members[k], unit=True)
        moved = (centroids != previous).any(axis=1)
        stale = moved[new_assignments]
        stale[changed] = True
        stale = np.flatnonzero(stale)
        own_sq[stale] = _sq_dists(rows, stale, centroids, new_assignments[stale])
        inertia = float(np.sum(own_sq))
        history.append(inertia)
        assignments = new_assignments
        if not changed.size or (len(history) > 1
                                and history[-2] - inertia <= cfg.kmeans_tol * history[-2]):
            converged = True
            break

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

    X is the fit's only n x d array, and the fit leaves it as it is: beside it
    the fit keeps each row's norm, and rebuilds the float64 unit rows it
    needs from X block by block.
    """
    if cfg.clusters > len(X):
        raise DataError(f"K ({cfg.clusters}) exceeds row count ({len(X)})")
    rows = _rows(X)
    best: KMeansModel | None = None
    for restart in range(cfg.kmeans_restarts):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
        model = _lloyd(rows, cfg, rng)
        if best is None or model.inertia < best.inertia:
            best = model
    assert best is not None
    return best


@dataclass
class ElbowResult:
    points: list[tuple[int, float]]    # (K, the fit's inertia) per scanned K
    knee: int | None                   # K maximizing the discrete second difference


def elbow_scan(X: np.ndarray, k_values: list[int], cfg: PipelineConfig) -> ElbowResult:
    """Fit one model per K >= 1, ascending (cfg with its clusters replaced); locate the
    knee of the fits' inertias, each the SSE on the unit rows."""
    points = [(k, kmeans_fit(X, dataclasses.replace(cfg, clusters=k)).inertia)
              for k in k_values]
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
        raise DataError(f"{path}: assignment out of range [0, {K})")
    return KMeansModel(K=K, centroids=centroids, assignments=assignments, inertia=inertia)
