"""Spherical k-means: objective behavior, invariants, elbow scan, file format."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from rankforge import cluster
from rankforge.cluster import (
    KMeansModel,
    _kmeans_pp_init,
    _repair_empty,
    cosine_sse,
    elbow_scan,
    kmeans_fit,
    load_model,
    save_model,
)
from rankforge.config import PipelineConfig
from rankforge.corpus import tokenize_collection
from rankforge.embeddings import embed_collection
from rankforge.errors import (
    DegenerateVectorError,
    FormatError,
    InvalidConfigError,
    SizeMismatchError,
    ValidationError,
)
from tests.conftest import blob_matrix, make_collection


def _normalize(rows: np.ndarray) -> np.ndarray:
    rows = rows.astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _random_matrix(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.normal(size=(n, d)).astype(np.float32)


def test_inertia_history_non_increasing_randomized():
    rng = np.random.default_rng(11)
    for trial in range(15):
        n = int(rng.integers(8, 60))
        d = int(rng.integers(2, 10))
        K = int(rng.integers(1, min(n, 9)))
        X = _random_matrix(rng, n, d)
        model = kmeans_fit(X, PipelineConfig(clusters=K, seed=trial, kmeans_restarts=2))
        hist = model.inertia_history
        assert hist, "history must not be empty"
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9, f"trial {trial}: inertia rose {a} -> {b}"
        assert model.inertia == hist[-1]


def test_every_cluster_nonempty_and_sizes_sum():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(10, 50))
        K = int(rng.integers(2, min(n, 12)))
        X = _random_matrix(rng, n, 4)
        model = kmeans_fit(X, PipelineConfig(clusters=K, seed=trial))
        sizes = model.cluster_sizes()
        assert sizes.min() >= 1
        assert sizes.sum() == n
        assert model.assignments.min() >= 0 and model.assignments.max() < K


def test_centroids_are_member_means():
    rng = np.random.default_rng(2)
    X = _random_matrix(rng, 40, 5)
    model = kmeans_fit(X, PipelineConfig(clusters=6, seed=0))
    Xn = _normalize(X)
    for k in range(model.K):
        members = np.flatnonzero(model.assignments == k)
        np.testing.assert_array_equal(model.centroids[k], Xn[members].mean(axis=0))


def test_groups_are_ascending_members_per_cluster():
    rng = np.random.default_rng(6)
    for K in (1, 3, 7):
        assignments = rng.integers(0, K, size=50)
        got = cluster.groups(assignments, K + 1)   # the last cluster is empty
        assert len(got) == K + 1
        for k, members in enumerate(got):
            np.testing.assert_array_equal(members, np.flatnonzero(assignments == k))


def test_assignments_are_nearest_centroid_at_fixpoint():
    rng = np.random.default_rng(3)
    centers = np.eye(4) * 3.0
    data, _ = blob_matrix(rng, centers, per_blob=12, noise=0.05)
    X = data
    model = kmeans_fit(X, PipelineConfig(clusters=4, seed=1, kmeans_tol=0.0,
                                         kmeans_max_iters=200))
    Xn = _normalize(X)
    d2 = ((Xn[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assigned = d2[np.arange(len(Xn)), model.assignments]
    assert np.all(assigned <= d2.min(axis=1) + 1e-9)


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(9)
    X = _random_matrix(rng, 12, 6)
    model = kmeans_fit(X, PipelineConfig(clusters=12, seed=4, kmeans_restarts=1))
    assert model.inertia <= 1e-10
    assert sorted(model.assignments.tolist()) == list(range(12))


def test_k_one_gives_global_mean():
    rng = np.random.default_rng(10)
    X = _random_matrix(rng, 20, 3)
    model = kmeans_fit(X, PipelineConfig(clusters=1, seed=0))
    assert set(model.assignments.tolist()) == {0}
    np.testing.assert_allclose(model.centroids[0], _normalize(X).mean(axis=0), atol=1e-12)


def test_exhaustive_two_cluster_oracle():
    # 10 points in two tight blobs: enumerate every bipartition and compare
    rng = np.random.default_rng(21)
    centers = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    data, _ = blob_matrix(rng, centers, per_blob=5, noise=0.08)
    X = data
    Xn = _normalize(data)

    best = np.inf
    n = len(Xn)
    for bits in itertools.product([0, 1], repeat=n):
        labels = np.asarray(bits)
        if labels.min() == labels.max():
            continue                       # both clusters must be non-empty
        inertia = 0.0
        for k in (0, 1):
            part = Xn[labels == k]
            mean = part.mean(axis=0)
            inertia += float(((part - mean) ** 2).sum())
        best = min(best, inertia)

    model = kmeans_fit(X, PipelineConfig(clusters=2, seed=0, kmeans_restarts=10,
                                         kmeans_tol=0.0))
    assert model.inertia >= best - 1e-9    # can never beat the global optimum
    assert abs(model.inertia - best) <= 1e-9


def test_more_restarts_never_hurt():
    rng = np.random.default_rng(13)
    X = _random_matrix(rng, 30, 4)
    one = kmeans_fit(X, PipelineConfig(clusters=5, seed=7, kmeans_restarts=1))
    three = kmeans_fit(X, PipelineConfig(clusters=5, seed=7, kmeans_restarts=3))
    assert three.inertia <= one.inertia    # restart 0 is shared by construction


def test_same_seed_is_deterministic():
    rng = np.random.default_rng(14)
    X = _random_matrix(rng, 25, 4)
    a = kmeans_fit(X, PipelineConfig(clusters=4, seed=3))
    b = kmeans_fit(X, PipelineConfig(clusters=4, seed=3))
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    c = kmeans_fit(X, PipelineConfig(clusters=4, seed=4))
    assert a.inertia != c.inertia or not np.array_equal(a.assignments, c.assignments)


def _reference_pp_init(Xn, K, rng):
    """k-means++ seeding with an explicit (x - c)**2 distance per row."""
    n = Xn.shape[0]
    centroids = np.empty((K, Xn.shape[1]), dtype=np.float64)
    centroids[0] = Xn[int(rng.integers(n))]
    if K == 1:
        return centroids
    d2 = np.sum((Xn - centroids[0]) ** 2, axis=1)
    for j in range(1, K):
        total = float(d2.sum())
        if total > 0.0:
            target = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
            if idx == n:                   # past the running sums: last row with mass
                idx = int(np.flatnonzero(d2 > 0)[-1])
        else:
            idx = int(rng.integers(n))
        centroids[j] = Xn[idx]
        d2 = np.minimum(d2, np.sum((Xn - centroids[j]) ** 2, axis=1))
    return centroids


def _seed_pair(Xn, K, seed):
    got = _kmeans_pp_init(Xn, K, np.random.default_rng(seed))
    want = _reference_pp_init(Xn, K, np.random.default_rng(seed))
    return got, want


def test_seeding_matches_reference_on_random_unit_rows():
    rng = np.random.default_rng(30)
    for trial in range(60):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(2, 130))
        K = int(rng.integers(1, min(n, 60) + 1))
        Xn = _normalize(rng.normal(size=(n, d)))
        got, want = _seed_pair(Xn, K, trial)
        assert got.tobytes() == want.tobytes(), f"trial {trial}"


def test_seeding_matches_reference_on_repeated_rows():
    # K above the number of distinct rows: once every distinct row is a centre
    # the remaining mass must be exactly 0, so the uniform fallback draws
    rng = np.random.default_rng(31)
    for trial in range(200):
        distinct = int(rng.integers(1, 6))
        d = int(rng.integers(2, 64))
        base = _normalize(rng.normal(size=(distinct, d)))
        Xn = base[rng.integers(0, distinct, size=int(rng.integers(distinct + 1, 40)))]
        K = int(rng.integers(distinct + 1, Xn.shape[0] + 1))
        got, want = _seed_pair(Xn, K, trial)
        assert got.tobytes() == want.tobytes(), f"trial {trial}"


class _FixedDraws:
    """A generator stand-in that returns one fixed uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def integers(self, n):
        raise AssertionError("the uniform fallback must not run while mass is left")


def test_seeding_draw_never_lands_on_a_row_without_mass():
    # the pairwise total exceeds the sequential running sum, so the largest
    # uniform lands past every running sum; the last row has no mass
    d2 = np.array([1.0] + [1e-16] * 64 + [0.0])
    assert float(d2.sum()) > float(np.cumsum(d2)[-1])
    assert cluster._pp_index(d2, _FixedDraws(1.0 - 2.0 ** -53)) == 64
    assert cluster._pp_index(d2, _FixedDraws(0.5)) == 0


@pytest.mark.parametrize("n, d", [(203, 8), (10_000, 128), (4099, 33)])
@pytest.mark.parametrize("leaf", [None, 512])
def test_inertia_replays_numpy_pairwise_sum(monkeypatch, n, d, leaf):
    # 4099 x 33 values are not a multiple of 8, and its runs start mid-row
    if leaf is not None:
        monkeypatch.setattr(cluster, "_LEAF", leaf)
    rng = np.random.default_rng(n)
    Xn = _normalize(rng.normal(size=(n, d)))
    centroids = rng.normal(size=(37, d)) * 0.3
    assignments = rng.integers(0, 37, size=n)
    want = float(np.sum((Xn - centroids[assignments]) ** 2))
    assert cluster._inertia(Xn, centroids, assignments) == want


def test_blocked_assignment_matches_default(monkeypatch):
    rng = np.random.default_rng(32)
    X = _random_matrix(rng, 203, 12)
    cfg = PipelineConfig(clusters=9, seed=5, kmeans_restarts=2)
    default = kmeans_fit(X, cfg)
    for rows in (7, 1):                    # 203 is not a multiple of 7
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", rows * 8 * cfg.clusters)
        blocked = kmeans_fit(X, cfg)
        assert blocked.centroids.tobytes() == default.centroids.tobytes()
        np.testing.assert_array_equal(blocked.assignments, default.assignments)
        assert blocked.inertia_history == default.inertia_history


def _brute_assign(Xn, centroids):
    """Every row against every centroid, one _row_blocks slice at a time."""
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    out = np.empty(Xn.shape[0], dtype=np.int64)
    for rows in cluster._row_blocks(Xn.shape[0], centroids.shape[0]):
        d2 = Xn[rows] @ centroids.T
        d2 *= 2.0
        np.subtract(1.0, d2, out=d2)
        d2 += c_sq
        np.maximum(d2, 0.0, out=d2)
        out[rows] = d2.argmin(axis=1)
    return out


def _reference_repair(Xn, centroids, assignments, K):
    """Fill empty clusters one at a time, recomputing every distance for each."""
    counts = np.bincount(assignments, minlength=K)
    for k in np.flatnonzero(counts == 0):
        own = np.sum((Xn - centroids[assignments]) ** 2, axis=1)
        own[counts[assignments] < 2] = -np.inf
        p = int(np.argmax(own))
        counts[assignments[p]] -= 1
        assignments[p] = k
        counts[k] = 1
        centroids[k] = Xn[p]


def _reference_lloyd(Xn, cfg, seed):
    """Brute-force Lloyd iterations; (assignments, centroids, inertia) after each."""
    K = cfg.clusters
    centroids = _kmeans_pp_init(Xn, K, np.random.default_rng(seed))
    assignments = np.full(Xn.shape[0], -1, dtype=np.int64)
    states = []
    prev = None
    for _ in range(cfg.kmeans_max_iters):
        new = _brute_assign(Xn, centroids)
        _reference_repair(Xn, centroids, new, K)
        for k in range(K):
            centroids[k] = Xn[np.flatnonzero(new == k)].mean(axis=0)
        inertia = float(np.sum((Xn - centroids[new]) ** 2))
        states.append((new, centroids.copy(), inertia))
        if np.array_equal(new, assignments):
            break
        assignments = new
        if prev is not None and prev - inertia <= cfg.kmeans_tol * prev:
            break
        prev = inertia
    return states


def _duplicate_rows(rng, distinct, n, d):
    return _normalize(rng.normal(size=(distinct, d)))[rng.integers(0, distinct, size=n)]


_LLOYD_CASES = {
    "random": lambda: (_normalize(np.random.default_rng(40).normal(size=(300, 12))), 17),
    # K above the number of distinct rows: duplicate centroids, near ties, repairs
    "duplicates": lambda: (_duplicate_rows(np.random.default_rng(41), 9, 200, 20), 14),
    "topic": lambda: (_normalize(
        embed_collection(tokenize_collection(make_collection(600, seed=7)), 32, 42)), 30),
    # rows 1e-6 apart: centroids of one direction differ far inside the float32 margin
    "near_duplicates": lambda: (
        _normalize(_duplicate_rows(np.random.default_rng(43), 9, 200, 20)
                   + np.random.default_rng(44).normal(size=(200, 20)) * 1e-6), 14),
}


@pytest.mark.parametrize("block_rows", [None, 7, 1])
@pytest.mark.parametrize("case", sorted(_LLOYD_CASES))
def test_every_lloyd_iteration_matches_brute_force(monkeypatch, case, block_rows):
    Xn, K = _LLOYD_CASES[case]()
    if block_rows is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 8 * K)
    cfg = PipelineConfig(clusters=K, seed=3, kmeans_tol=0.0, kmeans_max_iters=40)
    states = _reference_lloyd(Xn, cfg, seed=3)
    assert len(states) > 2
    for t, (assignments, centroids, _) in enumerate(states, start=1):
        model = cluster._lloyd(Xn, Xn.astype(np.float32),
                               dataclasses.replace(cfg, kmeans_max_iters=t),
                               np.random.default_rng(3))
        np.testing.assert_array_equal(model.assignments, assignments, err_msg=f"iteration {t}")
        assert model.centroids.tobytes() == centroids.tobytes(), f"iteration {t}"
        assert model.inertia_history == [s[2] for s in states[:t]]
    if case == "duplicates":
        assert model.near_ties > 0 and model.repairs > 0
    if case in ("duplicates", "near_duplicates"):
        assert model.float64_rows > 0


@pytest.mark.parametrize("block_rows", [None, 3])
def test_near_tie_rows_take_the_whole_block_argmin(monkeypatch, block_rows):
    # one row equidistant, in exact arithmetic, from two centroids: the
    # last bit of each distance depends on the product that computes it
    if block_rows is not None:           # 3-row blocks of 8 centroids; d = 24 > K
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 8 * 8)
    bad = near_ties = 0
    for trial in range(30):
        rng = np.random.default_rng(trial)
        d = 24
        mid = _normalize(rng.normal(size=(1, d)))[0] * 0.9
        delta = rng.normal(size=d)
        delta -= (delta @ mid) / (mid @ mid) * mid
        delta *= 0.05 / np.linalg.norm(delta)
        offset = rng.normal(size=d) * 0.05
        offset -= (offset @ delta) / (delta @ delta) * delta
        others = _normalize(rng.normal(size=(6, d)))
        centroids = np.vstack([mid + delta, mid - delta, others])
        Xn = np.vstack([_normalize(others[rng.integers(0, 6, size=60)]
                                   + rng.normal(size=(60, d)) * 0.01),
                        _normalize((mid + offset)[None])])
        Xn = Xn[rng.permutation(len(Xn))]
        rows32, lb = Xn.astype(np.float32), np.full(len(Xn), -np.inf)
        assignments, _, _, _ = cluster._assign(Xn, rows32, centroids, np.full(len(Xn), -1),
                                               lb, np.ones(8, dtype=bool))
        bad += not np.array_equal(assignments, _brute_assign(Xn, centroids))
        centroids[2] = _normalize(centroids[2:3] + 0.001)[0]   # only the tie row is rescanned
        assignments, scanned, _, ties = cluster._assign(Xn, rows32, centroids, assignments,
                                                        lb, np.arange(8) == 2)
        bad += not np.array_equal(assignments, _brute_assign(Xn, centroids))
        near_ties += ties
    assert bad == 0
    assert near_ties == 30


def _bounds_hold(lb, Xn, centroids, assignments):
    """Every lower bound is below each rival's float64 distance by half the margin or more.

    A bound is one float64 evaluation less the margin, and two evaluations
    differ by at most half the margin (_margin), so this holds for any product.
    """
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    d2 = cluster._distances(Xn, centroids, c_sq)
    d2[np.arange(len(Xn)), assignments] = np.inf
    margin = cluster._margin(Xn.shape[1], np.float64)
    return bool(np.all(lb <= d2.min(axis=1) - margin / 2))


@pytest.mark.parametrize("block_rows", [None, 7, 1])
def test_float32_filter_leaves_rows_inside_its_margin_to_float64(monkeypatch, block_rows):
    # rows on the bisector of two centroids, then moved off it by steps that
    # end far outside the float32 margin, and rows at two duplicate centroids
    d = 16
    rng = np.random.default_rng(50)
    mid = _normalize(rng.normal(size=(1, d)))[0] * 0.9
    delta = rng.normal(size=d)
    delta -= (delta @ mid) / (mid @ mid) * mid
    delta *= 0.05 / np.linalg.norm(delta)
    dup = _normalize(rng.normal(size=(1, d)))[0] * 0.8
    others = _normalize(rng.normal(size=(4, d))) * 0.7
    centroids = np.vstack([mid + delta, mid - delta, dup, dup, others])
    if block_rows is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 8 * d)
    rows = []
    steps = (0.0, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
    for step in steps:
        for _ in range(5):
            offset = rng.normal(size=d) * 0.05
            offset -= (offset @ delta) / (delta @ delta) * delta
            rows.append(mid + offset + step * delta / 0.05)
        rows.append(dup + rng.normal(size=d) * 1e-3)
    order = rng.permutation(len(rows))
    Xn = _normalize(np.array(rows))[order]
    # gaps of 0.2 step: only the steps of 1e-3 and 1e-2 clear twice the float32 margin
    assert 2 * cluster._margin(d, np.float32) < 0.2 * 1e-3 * 0.9
    rows32, lb = Xn.astype(np.float32), np.full(len(Xn), -np.inf)
    assignments, scanned, float64_rows, ties = cluster._assign(
        Xn, rows32, centroids, np.full(len(Xn), -1), lb, np.ones(len(centroids), dtype=bool))
    np.testing.assert_array_equal(assignments, _brute_assign(Xn, centroids))
    assert _bounds_hold(lb, Xn, centroids, assignments)
    assert scanned == len(Xn)
    assert float64_rows == len(Xn) - 10
    assert ties == 5 + len(steps)          # the rows on the bisector and at the duplicates

    # one rival moves: its distances come from the float32 pass over moved centroids
    centroids[4] = _normalize(mid[None] - 3 * delta)[0] * 0.9
    assignments, scanned, float64_rows, ties = cluster._assign(
        Xn, rows32, centroids, assignments, lb, np.arange(len(centroids)) == 4)
    np.testing.assert_array_equal(assignments, _brute_assign(Xn, centroids))
    assert _bounds_hold(lb, Xn, centroids, assignments)
    assert 0 < scanned < len(Xn) and float64_rows > 0


def test_late_iterations_rescan_few_rows():
    X = embed_collection(tokenize_collection(make_collection(2000, seed=7)), 64, 42)
    model = kmeans_fit(X, PipelineConfig(clusters=100, seed=42, kmeans_restarts=1,
                                         kmeans_tol=0.0))
    assert len(model.rescanned) == len(model.inertia_history) > 8
    assert model.rescanned[0] == len(X)       # the first iteration scans every row
    assert all(r < 0.05 * len(X) for r in model.rescanned[7:])


def test_kmeans_peak_memory_below_one_distance_matrix():
    n, K = 8000, 400
    X = _random_matrix(np.random.default_rng(33), n, 16)
    tracemalloc.start()
    try:
        kmeans_fit(X, PipelineConfig(clusters=K, seed=0, kmeans_restarts=1,
                                     kmeans_max_iters=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * K * 8, f"peak {peak} bytes, one n x K float64 matrix is {n * K * 8}"


def test_kmeans_holds_one_float64_copy_of_the_rows():
    # the unit rows in float64, their float32 copy and the 4 MiB blocks; a
    # second n x d float64 array (a normalising or inertia temporary) exceeds it
    n, d = 10_000, 256
    X = _random_matrix(np.random.default_rng(35), n, d)
    tracemalloc.start()
    try:
        kmeans_fit(X, PipelineConfig(clusters=200, seed=0, kmeans_restarts=2,
                                     kmeans_max_iters=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = n * d * (8 + 4) + 2 * cluster._BLOCK_BYTES
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_repair_empty_moves_farthest_point():
    Xn = _normalize(np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0]]))
    centroids = np.vstack([Xn[:3].mean(axis=0), [5.0, 5.0]])
    assignments = np.zeros(4, dtype=np.int64)
    assignments[3] = 0
    _repair_empty(Xn, centroids, assignments, K=2)
    assert (assignments == 1).sum() == 1
    assert assignments[3] == 1             # the outlier is the farthest point
    np.testing.assert_array_equal(centroids[1], Xn[3])
    assert (assignments == 0).sum() == 3   # donor survives


def test_repair_empty_fills_several_clusters_like_one_at_a_time():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n, K = int(rng.integers(12, 60)), int(rng.integers(5, 11))
        Xn = _normalize(rng.normal(size=(n, 5)))
        # only a few clusters hold points; one of them may hold a single point
        assignments = rng.integers(0, 3, size=n)
        assignments[0] = 3
        centroids = _normalize(rng.normal(size=(K, 5)))
        want_assign, want_centroids = assignments.copy(), centroids.copy()
        _reference_repair(Xn, want_centroids, want_assign, K)
        before = assignments.copy()
        moved = _repair_empty(Xn, centroids, assignments, K)
        np.testing.assert_array_equal(assignments, want_assign, err_msg=f"trial {trial}")
        assert centroids.tobytes() == want_centroids.tobytes()
        assert sorted(moved.tolist()) == np.flatnonzero(assignments != before).tolist()
        assert np.bincount(assignments, minlength=K).min() == 1


def test_validate_rejects_bad_config():
    rng = np.random.default_rng(1)
    X = _random_matrix(rng, 5, 3)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(clusters=0)
    with pytest.raises(InvalidConfigError):
        kmeans_fit(X, PipelineConfig(clusters=6, seed=0))
    with pytest.raises(InvalidConfigError):
        PipelineConfig(clusters=2, kmeans_restarts=0)
    with pytest.raises(DegenerateVectorError):
        kmeans_fit(np.zeros((3, 2), dtype=np.float32),
                   PipelineConfig(clusters=1, seed=0))


def test_elbow_scan_finds_three_blobs():
    rng = np.random.default_rng(8)
    centers = np.eye(3) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=15, noise=0.05)
    X = data
    result = elbow_scan(X, [1, 2, 3, 4, 5, 6],
                        PipelineConfig(clusters=1, seed=0, kmeans_restarts=3))
    assert [k for k, _ in result.points] == [1, 2, 3, 4, 5, 6]
    sses = [sse for _, sse in result.points]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))
    assert result.knee == 3


def test_elbow_scan_needs_three_points_for_knee():
    rng = np.random.default_rng(4)
    X = _random_matrix(rng, 10, 3)
    result = elbow_scan(X, [2, 3], PipelineConfig(clusters=2, seed=0, kmeans_restarts=1))
    assert result.knee is None
    with pytest.raises(InvalidConfigError):
        elbow_scan(X, [3, 2], PipelineConfig(clusters=2, seed=0))
    with pytest.raises(InvalidConfigError):
        elbow_scan(X, [], PipelineConfig(clusters=2, seed=0))


def test_cosine_sse_decreases_with_k():
    rng = np.random.default_rng(6)
    centers = np.eye(3) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=10, noise=0.1)
    X = data
    sses = []
    for k in (1, 2, 3):
        model = kmeans_fit(X, PipelineConfig(clusters=k, seed=0, kmeans_restarts=3))
        sses.append(cosine_sse(X, model))
    assert sses[0] > sses[1] > sses[2]


def test_blocked_cosine_sse_matches_full_matrix(monkeypatch):
    rng = np.random.default_rng(34)
    X = _random_matrix(rng, 57, 6)
    model = kmeans_fit(X, PipelineConfig(clusters=4, seed=1))
    model.centroids[2] = 0.0               # a zero-norm centroid is never nearest
    others = [0, 1, 3]
    cos = _normalize(X) @ _normalize(model.centroids[others]).T
    want = float(np.sum(1.0 - np.clip(cos.max(axis=1), -1.0, 1.0)))
    assert cosine_sse(X, model) == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 5 * 8 * model.K)
    assert cosine_sse(X, model) == pytest.approx(want, rel=1e-12)


def test_cosine_sse_rejects_a_zero_row():
    X = _random_matrix(np.random.default_rng(35), 12, 5)
    model = kmeans_fit(X, PipelineConfig(clusters=3, seed=1))
    X[7] = 0.0
    with pytest.raises(DegenerateVectorError, match="row 7"):
        cosine_sse(X, model)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    X = _random_matrix(rng, 20, 4)
    model = kmeans_fit(X, PipelineConfig(clusters=3, seed=2))
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.K == model.K and loaded.d == model.d
    assert loaded.inertia == model.inertia
    np.testing.assert_array_equal(loaded.assignments, model.assignments)
    np.testing.assert_allclose(loaded.centroids, model.centroids, atol=1e-6)

    # a second save of the loaded model reproduces the file byte for byte
    path2 = tmp_path / "m2.bin"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_corrupt_files(tmp_path):
    rng = np.random.default_rng(18)
    X = _random_matrix(rng, 10, 3)
    model = kmeans_fit(X, PipelineConfig(clusters=2, seed=0))
    path = tmp_path / "m.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + bytes(blob[8:]))
    with pytest.raises(FormatError):
        load_model(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(bytes(blob[:-4]))
    with pytest.raises(SizeMismatchError):
        load_model(short)
    short.write_bytes(bytes(blob[:20]))
    with pytest.raises(FormatError, match="too short for header"):
        load_model(short)

    # corrupt one assignment so it points past K
    bad_assign = bytearray(blob)
    bad_assign[-4:] = (10_000).to_bytes(4, "little")
    bad_path = tmp_path / "range.bin"
    bad_path.write_bytes(bytes(bad_assign))
    with pytest.raises(ValidationError, match="assignment out of range"):
        load_model(bad_path)
