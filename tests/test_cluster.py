"""Spherical k-means: objective behavior, invariants, elbow scan, file format."""

import itertools
import tracemalloc

import numpy as np
import pytest

from rankforge import cluster
from rankforge.cluster import (
    ClusteringConfig,
    KMeansModel,
    _kmeans_pp_init,
    _repair_empty,
    cosine_sse,
    elbow_scan,
    kmeans_fit,
    load_model,
    save_model,
)
from rankforge.embeddings import EmbeddingMatrix
from rankforge.errors import (
    DegenerateVectorError,
    FormatError,
    InvalidConfigError,
    SizeMismatchError,
)
from tests.conftest import blob_matrix


def _normalize(rows: np.ndarray) -> np.ndarray:
    rows = rows.astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _random_matrix(rng: np.random.Generator, n: int, d: int) -> EmbeddingMatrix:
    data = rng.normal(size=(n, d)).astype(np.float32)
    return EmbeddingMatrix(data=data)


def test_inertia_history_non_increasing_randomized():
    rng = np.random.default_rng(11)
    for trial in range(15):
        n = int(rng.integers(8, 60))
        d = int(rng.integers(2, 10))
        K = int(rng.integers(1, min(n, 9)))
        X = _random_matrix(rng, n, d)
        model = kmeans_fit(X, ClusteringConfig(K=K, seed=trial, restarts=2))
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
        model = kmeans_fit(X, ClusteringConfig(K=K, seed=trial))
        sizes = model.cluster_sizes()
        assert sizes.min() >= 1
        assert sizes.sum() == n
        assert model.assignments.min() >= 0 and model.assignments.max() < K


def test_centroids_are_member_means():
    rng = np.random.default_rng(2)
    X = _random_matrix(rng, 40, 5)
    model = kmeans_fit(X, ClusteringConfig(K=6, seed=0))
    Xn = _normalize(X.data)
    for k in range(model.K):
        members = model.members(k)
        np.testing.assert_allclose(model.centroids[k], Xn[members].mean(axis=0), atol=1e-12)


def test_assignments_are_nearest_centroid_at_fixpoint():
    rng = np.random.default_rng(3)
    centers = np.eye(4) * 3.0
    data, _ = blob_matrix(rng, centers, per_blob=12, noise=0.05)
    X = EmbeddingMatrix(data=data)
    model = kmeans_fit(X, ClusteringConfig(K=4, seed=1, tol=0.0, max_iters=200))
    Xn = _normalize(X.data)
    d2 = ((Xn[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assigned = d2[np.arange(len(Xn)), model.assignments]
    assert np.all(assigned <= d2.min(axis=1) + 1e-9)


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(9)
    X = _random_matrix(rng, 12, 6)
    model = kmeans_fit(X, ClusteringConfig(K=12, seed=4, restarts=1))
    assert model.inertia <= 1e-10
    assert sorted(model.assignments.tolist()) == list(range(12))


def test_k_one_gives_global_mean():
    rng = np.random.default_rng(10)
    X = _random_matrix(rng, 20, 3)
    model = kmeans_fit(X, ClusteringConfig(K=1, seed=0))
    assert set(model.assignments.tolist()) == {0}
    np.testing.assert_allclose(model.centroids[0], _normalize(X.data).mean(axis=0), atol=1e-12)


def test_exhaustive_two_cluster_oracle():
    # 10 points in two tight blobs: enumerate every bipartition and compare
    rng = np.random.default_rng(21)
    centers = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    data, _ = blob_matrix(rng, centers, per_blob=5, noise=0.08)
    X = EmbeddingMatrix(data=data)
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

    model = kmeans_fit(X, ClusteringConfig(K=2, seed=0, restarts=10, tol=0.0))
    assert model.inertia >= best - 1e-9    # can never beat the global optimum
    assert abs(model.inertia - best) <= 1e-9


def test_more_restarts_never_hurt():
    rng = np.random.default_rng(13)
    X = _random_matrix(rng, 30, 4)
    one = kmeans_fit(X, ClusteringConfig(K=5, seed=7, restarts=1))
    three = kmeans_fit(X, ClusteringConfig(K=5, seed=7, restarts=3))
    assert three.inertia <= one.inertia    # restart 0 is shared by construction


def test_same_seed_is_deterministic():
    rng = np.random.default_rng(14)
    X = _random_matrix(rng, 25, 4)
    a = kmeans_fit(X, ClusteringConfig(K=4, seed=3))
    b = kmeans_fit(X, ClusteringConfig(K=4, seed=3))
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    c = kmeans_fit(X, ClusteringConfig(K=4, seed=4))
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
            idx = min(int(np.searchsorted(np.cumsum(d2), target, side="right")), n - 1)
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


def test_blocked_assignment_matches_default(monkeypatch):
    rng = np.random.default_rng(32)
    X = _random_matrix(rng, 203, 12)
    cfg = ClusteringConfig(K=9, seed=5, restarts=2)
    default = kmeans_fit(X, cfg)
    for rows in (7, 1):                    # 203 is not a multiple of 7
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", rows * 8 * cfg.K)
        blocked = kmeans_fit(X, cfg)
        assert blocked.centroids.tobytes() == default.centroids.tobytes()
        np.testing.assert_array_equal(blocked.assignments, default.assignments)
        assert blocked.inertia_history == default.inertia_history


def test_kmeans_peak_memory_below_one_distance_matrix():
    n, K = 8000, 400
    X = _random_matrix(np.random.default_rng(33), n, 16)
    tracemalloc.start()
    try:
        kmeans_fit(X, ClusteringConfig(K=K, seed=0, restarts=1, max_iters=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * K * 8, f"peak {peak} bytes, one n x K float64 matrix is {n * K * 8}"


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


def test_validate_rejects_bad_config():
    rng = np.random.default_rng(1)
    X = _random_matrix(rng, 5, 3)
    with pytest.raises(InvalidConfigError):
        kmeans_fit(X, ClusteringConfig(K=0))
    with pytest.raises(InvalidConfigError):
        kmeans_fit(X, ClusteringConfig(K=6))
    with pytest.raises(InvalidConfigError):
        kmeans_fit(X, ClusteringConfig(K=2, restarts=0))
    with pytest.raises(DegenerateVectorError):
        kmeans_fit(EmbeddingMatrix(data=np.zeros((3, 2), dtype=np.float32)),
                   ClusteringConfig(K=1))


def test_elbow_scan_finds_three_blobs():
    rng = np.random.default_rng(8)
    centers = np.eye(3) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=15, noise=0.05)
    X = EmbeddingMatrix(data=data)
    result = elbow_scan(X, [1, 2, 3, 4, 5, 6], ClusteringConfig(K=1, seed=0, restarts=3))
    assert [k for k, _ in result.points] == [1, 2, 3, 4, 5, 6]
    sses = [sse for _, sse in result.points]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))
    assert result.knee == 3


def test_elbow_scan_needs_three_points_for_knee():
    rng = np.random.default_rng(4)
    X = _random_matrix(rng, 10, 3)
    result = elbow_scan(X, [2, 3], ClusteringConfig(K=2, seed=0, restarts=1))
    assert result.knee is None
    with pytest.raises(InvalidConfigError):
        elbow_scan(X, [3, 2], ClusteringConfig(K=2, seed=0))
    with pytest.raises(InvalidConfigError):
        elbow_scan(X, [], ClusteringConfig(K=2, seed=0))


def test_cosine_sse_decreases_with_k():
    rng = np.random.default_rng(6)
    centers = np.eye(3) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=10, noise=0.1)
    X = EmbeddingMatrix(data=data)
    sses = []
    for k in (1, 2, 3):
        sses.append(cosine_sse(X, kmeans_fit(X, ClusteringConfig(K=k, seed=0, restarts=3))))
    assert sses[0] > sses[1] > sses[2]


def test_blocked_cosine_sse_matches_full_matrix(monkeypatch):
    rng = np.random.default_rng(34)
    X = _random_matrix(rng, 57, 6)
    model = kmeans_fit(X, ClusteringConfig(K=4, seed=1))
    model.centroids[2] = 0.0               # a zero-norm centroid is never nearest
    others = [0, 1, 3]
    cos = _normalize(X.data) @ _normalize(model.centroids[others]).T
    want = float(np.sum(1.0 - np.clip(cos.max(axis=1), -1.0, 1.0)))
    assert cosine_sse(X, model) == pytest.approx(want, rel=1e-12)
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 5 * 8 * model.K)
    assert cosine_sse(X, model) == pytest.approx(want, rel=1e-12)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    X = _random_matrix(rng, 20, 4)
    model = kmeans_fit(X, ClusteringConfig(K=3, seed=2))
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
    model = kmeans_fit(X, ClusteringConfig(K=2, seed=0))
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

    # corrupt one assignment so it points past K
    bad_assign = bytearray(blob)
    bad_assign[-4:] = (10_000).to_bytes(4, "little")
    bad_path = tmp_path / "range.bin"
    bad_path.write_bytes(bytes(bad_assign))
    with pytest.raises(Exception):
        load_model(bad_path)
