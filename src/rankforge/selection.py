"""Per-cluster budgets, probabilistic sampling, and MMR diversification.

Cluster budgets follow a stratified rule: every cluster gets one guaranteed
slot, the remaining N-K slots go proportionally to cluster size (floored),
and the leftover units go to the largest clusters. Documents inside a
cluster are drawn without replacement from a temperature softmax over their
similarity to the cluster's mean vector, the draws from several rounds are
pooled, and maximal marginal relevance picks the final per-cluster set.

Selection is reproducible: each (cluster, round) pair gets its own RNG
stream spawned from the config seed, so one cluster's draws never depend on
any other cluster's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cluster import KMeansModel, groups
from .config import PipelineConfig
from .corpus import read_records, write_jsonl
from .errors import (
    DegenerateClusterError,
    DegenerateVectorError,
    InfeasibleBudgetError,
    InvalidConfigError,
    ValidationError,
)


@dataclass
class Allocation:
    sizes: np.ndarray           # per-cluster budget, sums to total


@dataclass(frozen=True)
class SelectedDoc:
    ordinal: int
    cluster: int
    centroid_sim: float         # cosine to the cluster's mean vector
    prob: float                 # softmax selection probability within the cluster
    rank_in_cluster: int


def allocate_sizes(cluster_sizes: Sequence[int], total: int) -> Allocation:
    """Stratified per-cluster budgets: one guaranteed slot each, the rest by size.

    After the proportional split, the P leftover units go to the P largest
    clusters (ties by ascending index). Budgets are then capped at cluster
    size, redistributing overflow one unit at a time to the largest cluster
    with remaining capacity.
    """
    c = [int(x) for x in cluster_sizes]
    n_clusters = len(c)
    if n_clusters < 1:
        raise InvalidConfigError("need at least one cluster")
    if any(ck < 1 for ck in c):
        raise InvalidConfigError("every cluster must have at least one member")
    collection_size = sum(c)
    if total < n_clusters:
        raise InfeasibleBudgetError(f"budget {total} < cluster count {n_clusters}")
    if total > collection_size:
        raise InfeasibleBudgetError(f"budget {total} > collection size {collection_size}")

    spare = total - n_clusters
    sizes = [1 + (ck * spare) // collection_size for ck in c]
    leftover = total - sum(sizes)
    by_size = sorted(range(n_clusters), key=lambda k: (-c[k], k))
    for k in by_size[:leftover]:
        sizes[k] += 1

    overflow = 0
    for k in range(n_clusters):
        if sizes[k] > c[k]:
            overflow += sizes[k] - c[k]
            sizes[k] = c[k]
    while overflow > 0:
        k = min((j for j in range(n_clusters) if sizes[j] < c[j]), key=lambda j: (-c[j], j))
        sizes[k] += 1
        overflow -= 1

    return Allocation(sizes=np.asarray(sizes, dtype=np.int64))


def centroid_similarities(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of each of cluster k's float64 rows to their raw mean, and the rows at unit length."""
    if rows.shape[0] == 0:
        raise DegenerateClusterError(f"cluster {k} is empty")
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        raise DegenerateVectorError(f"zero-norm member vector in cluster {k}")
    mean = rows.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    if mean_norm == 0.0:
        raise DegenerateClusterError(f"cluster {k} member vectors average to zero")
    return np.clip(rows @ mean / (norms * mean_norm), -1.0, 1.0), rows / norms[:, None]


def softmax_probabilities(values: Sequence[float], temperature: float) -> np.ndarray:
    """Temperature softmax with max-subtraction; strictly positive, sums to 1."""
    if temperature <= 0:
        raise InvalidConfigError(f"temperature must be > 0, got {temperature}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise InvalidConfigError("softmax over an empty array")
    if not np.isfinite(arr).all():
        raise ValidationError("non-finite value in softmax input")
    z = arr / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def sample_without_replacement(p: Sequence[float], n: int, rng: np.random.Generator) -> list[int]:
    """Draw n distinct indices sequentially, renormalizing after each draw.

    Each draw consumes exactly one uniform from rng and picks the first index
    whose running cumulative weight strictly exceeds u * remaining_mass, so
    zero-weight indices are never selected.
    """
    weights = np.asarray(p, dtype=np.float64).copy()
    if n < 0:
        raise InvalidConfigError(f"cannot draw {n} items")
    if n > weights.size:
        raise InfeasibleBudgetError(f"cannot draw {n} items from {weights.size}")
    if (weights < 0).any():
        raise ValidationError("negative probability")
    out: list[int] = []
    for _ in range(n):
        cum = np.cumsum(weights)
        mass = float(cum[-1])
        if mass <= 0.0:
            raise InfeasibleBudgetError("probability mass exhausted before n draws")
        target = rng.random() * mass
        idx = int(np.searchsorted(cum, target, side="right"))
        if idx >= weights.size:
            idx = int(np.flatnonzero(weights > 0)[-1])
        out.append(idx)
        weights[idx] = 0.0
    return out


def mmr_select(
    pool_ordinals: Sequence[int],
    sims_to_anchor: Sequence[float],
    vectors: np.ndarray,
    lam: float,
    n: int,
) -> list[int]:
    """Greedy maximal marginal relevance over a candidate pool.

    Row i of vectors is the unit vector of pool_ordinals[i]; two candidates'
    similarity is the dot product of their rows. Repeatedly picks argmax of
    lam * sim_to_anchor - (1 - lam) * max similarity to anything already
    selected; the first pick has no diversity term. Ties break toward the
    smaller ordinal. Returns at most min(n, pool size) ordinals in selection
    order.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidConfigError(f"lambda must be in [0, 1], got {lam}")
    if n < 1:
        raise InvalidConfigError(f"selection size must be >= 1, got {n}")
    pool = list(pool_ordinals)
    sims = np.asarray(sims_to_anchor, dtype=np.float64)
    if len(pool) != sims.size:
        raise ValidationError("pool and similarity lengths differ")
    if vectors.ndim != 2 or vectors.shape[0] != len(pool):
        raise ValidationError("pool and vector row counts differ")
    ordinals = np.asarray(pool, dtype=np.int64)
    relevance = lam * sims
    redundancy = np.full(len(pool), -np.inf)   # max similarity to the picks so far
    remaining = np.ones(len(pool), dtype=bool)
    selected: list[int] = []
    while len(selected) < min(n, len(pool)):
        score = relevance - (1.0 - lam) * redundancy if selected else relevance
        ties = np.flatnonzero(remaining & (score == score[remaining].max()))
        pick = int(ties[np.argmin(ordinals[ties])])
        selected.append(pick)
        remaining[pick] = False
        np.maximum(redundancy, vectors @ vectors[pick], out=redundancy)
    return [pool[i] for i in selected]


def _round_rng(seed: int, cluster: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cluster, round_index)))


def select_representatives(
    X: np.ndarray, model: KMeansModel, cfg: PipelineConfig
) -> list[SelectedDoc]:
    """Run the full per-cluster sampling and diversification pass.

    Returns the picks in cluster order, then rank order. Reads ``sample_size``,
    ``seed``, ``softmax_temperature``, ``sample_rounds`` and ``mmr_lambda`` from cfg.
    """
    sizes = allocate_sizes(model.cluster_sizes(), cfg.sample_size).sizes
    selected: list[SelectedDoc] = []
    for k, members in enumerate(groups(model.assignments, model.K)):
        sims_to_mean, unit = centroid_similarities(X[members].astype(np.float64), k)
        probs = softmax_probabilities(sims_to_mean, cfg.softmax_temperature)
        n_k = int(sizes[k])
        # the pool of all rounds, in order of first draw
        pool = list(dict.fromkeys(
            pos for r in range(cfg.sample_rounds)
            for pos in sample_without_replacement(probs, n_k, _round_rng(cfg.seed, k, r))
        ))
        # relevance and redundancy come from one kernel on the same rows: once an anchor
        # in the pool is picked, lambda 0.5 scores every candidate exactly 0, and the
        # smaller ordinal wins
        vectors = unit[pool]
        anchor_sims = vectors @ unit[int(np.argmax(sims_to_mean))]
        # every round draws n_k distinct positions, so MMR always finds n_k in the pool
        chosen = mmr_select(pool, anchor_sims, vectors, cfg.mmr_lambda, n_k)
        selected.extend(
            SelectedDoc(ordinal=int(members[pos]), cluster=k, centroid_sim=float(sims_to_mean[pos]),
                        prob=float(probs[pos]), rank_in_cluster=rank)
            for rank, pos in enumerate(chosen)
        )
    return selected


def save_selected(selected: Sequence[SelectedDoc], ids: Sequence[str], path: str | Path) -> None:
    """Persist the picks as JSONL, one record per document; ``ids[o]`` names row ``o``."""
    write_jsonl(path, ({"doc_id": ids[doc.ordinal], "cluster": doc.cluster, "d_i": doc.centroid_sim,
                        "prob": doc.prob, "rank_in_cluster": doc.rank_in_cluster}
                       for doc in selected))


def load_selected(path: str | Path) -> list[dict]:
    """Read a selection JSONL back into a list of per-document records."""
    return [obj for _, obj in read_records(path, {"doc_id": (str,), "cluster": (int,)})]
