"""Per-cluster budgets, probabilistic sampling, and MMR diversification.

Cluster budgets follow a stratified rule: every cluster gets one guaranteed
slot, the remaining N-K slots go proportionally to cluster size (floored),
and the leftover units go to the largest clusters. Documents inside a
cluster are drawn without replacement from a temperature softmax over their
similarity to the cluster's mean vector, the draws from several rounds are
pooled, and maximal marginal relevance picks the final per-cluster set.

Selection is reproducible: each (cluster, round) pair gets its own RNG
stream spawned from the config seed, so one cluster's draws never depend on
any other cluster's. Every similarity is an einsum, numpy's own loop, not a
BLAS product, and the softmax takes the C library's exp one value at a time,
not numpy's SIMD exp: no selected bit depends on the BLAS kernel or the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .cluster import KMeansModel, _rows, _Rows, groups, row_blocks, row_mean
from .config import PipelineConfig
from .corpus import read_records, write_jsonl
from .errors import DataError


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

    cluster_sizes names at least one cluster (``clusters >= 1``). After the
    proportional split, the P leftover units go to the P largest clusters
    (ties by ascending index). Budgets are then capped at cluster size, and
    the excess fills the clusters with room in that same largest-first order.
    """
    c = [int(x) for x in cluster_sizes]
    n_clusters = len(c)
    if any(ck < 1 for ck in c):
        raise DataError("every cluster must have at least one member")
    collection_size = sum(c)
    if total < n_clusters:
        raise DataError(f"budget {total} < cluster count {n_clusters}")
    if total > collection_size:
        raise DataError(f"budget {total} > collection size {collection_size}")

    spare = total - n_clusters
    sizes = [1 + (ck * spare) // collection_size for ck in c]
    leftover = total - sum(sizes)
    by_size = sorted(range(n_clusters), key=lambda k: (-c[k], k))
    for k in by_size[:leftover]:
        sizes[k] += 1

    sizes = [min(s, ck) for s, ck in zip(sizes, c)]
    excess = total - sum(sizes)
    for k in by_size:
        extra = min(excess, c[k] - sizes[k])
        sizes[k] += extra
        excess -= extra

    return Allocation(sizes=np.asarray(sizes, dtype=np.int64))


def centroid_similarities(rows: _Rows, members: np.ndarray, k: int) -> np.ndarray:
    """Cosine of each member of non-empty cluster k to the raw mean of its rows."""
    mean = row_mean(rows, members, unit=False)
    mean_norm = math.sqrt(np.einsum("i,i->", mean, mean))
    if mean_norm == 0.0:
        raise DataError(f"cluster {k} member vectors average to zero")
    sims = np.empty(members.size)
    for block, x in row_blocks(rows, members, unit=False):
        sims[block] = np.einsum("ij,j->i", x, mean)
    sims /= rows.norms[members] * mean_norm
    return np.clip(sims, -1.0, 1.0, out=sims)


def softmax_probabilities(values: Sequence[float], temperature: float) -> np.ndarray:
    """Softmax of finite values at temperature > 0, max-subtracted; sums to 1.

    At least the largest value gets a positive probability; at a small
    temperature the others may underflow to exactly 0.
    """
    z = np.asarray(values, dtype=np.float64) / temperature
    z = z - z.max()
    e = np.fromiter(map(math.exp, z), np.float64, z.size)
    return e / e.sum()


def sample_without_replacement(p: Sequence[float], n: int, rng: np.random.Generator) -> list[int]:
    """Draw n distinct indices sequentially, renormalizing after each draw.

    Each draw consumes exactly one uniform from rng and picks the first index
    whose running cumulative weight strictly exceeds u * remaining_mass, so
    zero-weight indices are never selected. p holds at least one weight and
    none is negative; n beyond the positive weights raises when the mass runs out.
    """
    weights = np.asarray(p, dtype=np.float64).copy()
    out: list[int] = []
    for _ in range(n):
        cum = np.cumsum(weights)
        mass = float(cum[-1])
        if mass <= 0.0:
            raise DataError("probability mass exhausted before n draws")
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

    Row i of vectors (a unit vector) and entry i of sims_to_anchor belong to
    pool_ordinals[i]; two candidates' similarity is the dot product of their
    rows. Repeatedly picks argmax of lam * sim_to_anchor - (1 - lam) * max
    similarity to anything already selected, with lam in [0, 1]; the first
    pick has no diversity term. Ties break toward the smaller ordinal.
    Returns at most min(n, pool size) ordinals in selection order.
    """
    pool = list(pool_ordinals)
    ordinals = np.asarray(pool, dtype=np.int64)
    relevance = lam * np.asarray(sims_to_anchor, dtype=np.float64)
    redundancy = np.full(len(pool), -np.inf)   # max similarity to the picks so far
    remaining = np.ones(len(pool), dtype=bool)
    selected: list[int] = []
    for _ in range(min(n, len(pool))):
        if selected:    # the last pick's similarities, read only by a later pick
            np.maximum(redundancy, np.einsum("ij,j->i", vectors, vectors[selected[-1]]),
                       out=redundancy)
        score = relevance - (1.0 - lam) * redundancy if selected else relevance
        ties = np.flatnonzero(remaining & (score == score[remaining].max()))
        pick = int(ties[np.argmin(ordinals[ties])])
        selected.append(pick)
        remaining[pick] = False
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
    rows = _rows(X)
    selected: list[SelectedDoc] = []
    for k, members in enumerate(groups(model.assignments, model.K)):
        sims_to_mean = centroid_similarities(rows, members, k)
        probs = softmax_probabilities(sims_to_mean, cfg.softmax_temperature)
        n_k = int(sizes[k])
        drawable = int(np.count_nonzero(probs))
        if drawable < n_k:
            raise DataError(f"cluster {k}: softmax_temperature {cfg.softmax_temperature!r} gives "
                            f"{drawable} members a nonzero probability, fewer than its budget {n_k}")
        # the pool of all rounds, in order of first draw
        pool = list(dict.fromkeys(
            pos for r in range(cfg.sample_rounds)
            for pos in sample_without_replacement(probs, n_k, _round_rng(cfg.seed, k, r))
        ))
        # relevance and redundancy come from one kernel on the same rows: once an anchor
        # in the pool is picked, lambda 0.5 scores every candidate exactly 0, and the
        # smaller ordinal wins. Only the pool and the anchor get unit rows.
        vectors = rows.unit(members[pool])
        anchor_sims = np.einsum("ij,j->i", vectors,
                                rows.unit(members[int(np.argmax(sims_to_mean))]))
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
