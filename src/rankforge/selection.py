"""Per-cluster budgets, probabilistic sampling, and MMR diversification.

Cluster budgets follow a stratified rule: every cluster gets one guaranteed
slot, the remaining N-K slots go proportionally to cluster size (floored),
and the leftover units go to the largest clusters. Documents inside a
cluster are drawn without replacement from a temperature softmax over their
similarity to the cluster's mean vector, the draws from several rounds are
pooled, and maximal marginal relevance picks the final per-cluster set.

Selection is reproducible: each (cluster, round) pair gets its own RNG
stream spawned from the config seed, so serial and parallel execution
produce identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cluster import KMeansModel
from .corpus import Collection
from .embeddings import EmbeddingMatrix
from .errors import (
    DegenerateClusterError,
    DegenerateVectorError,
    FormatError,
    InfeasibleBudgetError,
    InvalidConfigError,
    ValidationError,
)


@dataclass
class Allocation:
    sizes: np.ndarray           # per-cluster budget, sums to total
    total: int
    cluster_sizes: np.ndarray
    collection_size: int


@dataclass
class SamplingConfig:
    sample_size: int            # N, total documents to select
    seed: int = 0
    temperature: float = 1.0    # softmax temperature
    rounds: int = 5             # independent sampling rounds pooled before MMR
    mmr_lambda: float = 1.0     # 1.0 = pure similarity to anchor, 0.0 = pure diversity

    def validate(self) -> None:
        if self.temperature <= 0:
            raise InvalidConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.rounds < 1:
            raise InvalidConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.mmr_lambda <= 1.0:
            raise InvalidConfigError(f"mmr_lambda must be in [0, 1], got {self.mmr_lambda}")


@dataclass(frozen=True)
class SelectedDoc:
    ordinal: int
    cluster: int
    centroid_sim: float         # cosine to the cluster's mean vector
    prob: float                 # softmax selection probability within the cluster
    rank_in_cluster: int


@dataclass
class SelectedSet:
    per_cluster: list[list[SelectedDoc]]

    def flatten(self) -> list[SelectedDoc]:
        return [doc for cluster_docs in self.per_cluster for doc in cluster_docs]

    def __len__(self) -> int:
        return sum(len(cluster_docs) for cluster_docs in self.per_cluster)


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

    return Allocation(
        sizes=np.asarray(sizes, dtype=np.int64),
        total=total,
        cluster_sizes=np.asarray(c, dtype=np.int64),
        collection_size=collection_size,
    )


def centroid_similarities(X: EmbeddingMatrix, model: KMeansModel, k: int) -> np.ndarray:
    """Cosine of each member of cluster k to the mean of the members' raw vectors."""
    members = model.members(k)
    if members.size == 0:
        raise DegenerateClusterError(f"cluster {k} is empty")
    rows = X.data[members].astype(np.float64)
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        raise DegenerateVectorError(f"zero-norm member vector in cluster {k}")
    mean = rows.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean))
    if mean_norm == 0.0:
        raise DegenerateClusterError(f"cluster {k} member vectors average to zero")
    return np.clip(rows @ mean / (norms * mean_norm), -1.0, 1.0)


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


def _mmr_with_topup(
    pool_positions: list[int],
    sims: np.ndarray,
    probs: np.ndarray,
    unit_rows: np.ndarray,
    lam: float,
    n_k: int,
) -> list[int]:
    """MMR over the pooled positions, topped up by softmax probability if short.

    sims, probs and unit_rows are indexed by position within the cluster.
    """
    chosen = mmr_select(pool_positions, sims[pool_positions], unit_rows[pool_positions], lam, n_k)
    if len(chosen) < n_k:
        in_pool = set(pool_positions)
        extras = sorted(
            (q for q in range(len(probs)) if q not in in_pool),
            key=lambda q: (-probs[q], q),
        )
        chosen.extend(extras[: n_k - len(chosen)])
    return chosen


def _round_rng(seed: int, cluster: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cluster, round_index)))


def select_representatives(
    X: EmbeddingMatrix, model: KMeansModel, cfg: SamplingConfig
) -> SelectedSet:
    """Run the full per-cluster sampling and diversification pass."""
    cfg.validate()
    allocation = allocate_sizes(model.cluster_sizes(), cfg.sample_size)
    per_cluster: list[list[SelectedDoc]] = []
    for k in range(model.K):
        members = model.members(k)
        sims_to_mean = centroid_similarities(X, model, k)
        probs = softmax_probabilities(sims_to_mean, cfg.temperature)
        n_k = int(allocation.sizes[k])

        pool_positions: list[int] = []
        seen: set[int] = set()
        for r in range(cfg.rounds):
            rng = _round_rng(cfg.seed, k, r)
            for pos in sample_without_replacement(probs, n_k, rng):
                if pos not in seen:
                    seen.add(pos)
                    pool_positions.append(pos)

        member_rows = X.data[members].astype(np.float64)
        member_rows /= np.linalg.norm(member_rows, axis=1)[:, None]
        anchor = int(np.argmax(sims_to_mean))
        anchor_sims = member_rows @ member_rows[anchor]
        chosen = _mmr_with_topup(pool_positions, anchor_sims, probs, member_rows,
                                 cfg.mmr_lambda, n_k)
        per_cluster.append(
            [
                SelectedDoc(
                    ordinal=int(members[pos]),
                    cluster=k,
                    centroid_sim=float(sims_to_mean[pos]),
                    prob=float(probs[pos]),
                    rank_in_cluster=rank,
                )
                for rank, pos in enumerate(chosen)
            ]
        )
    return SelectedSet(per_cluster=per_cluster)


def save_selected(selected: SelectedSet, collection: Collection, path: str | Path) -> None:
    """Persist a SelectedSet as JSONL, one record per selected document."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in selected.flatten():
            obj = {
                "doc_id": collection[doc.ordinal].id,
                "cluster": doc.cluster,
                "d_i": doc.centroid_sim,
                "prob": doc.prob,
                "rank_in_cluster": doc.rank_in_cluster,
            }
            fh.write(json.dumps(obj) + "\n")


def load_selected(path: str | Path) -> list[dict]:
    """Read a selection JSONL back into a list of per-document records."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", line_number) from exc
            if "doc_id" not in obj or "cluster" not in obj:
                raise FormatError("missing doc_id or cluster field", line_number)
            records.append(obj)
    return records
