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
    elbow_scan,
    kmeans_fit,
    load_model,
    save_model,
)
from rankforge.config import PipelineConfig
from rankforge.corpus import tokenize_collection
from rankforge.embeddings import embed_collection
from rankforge.errors import DataError, FormatError
from tests.conftest import blob_matrix, make_collection


def _normalize(rows: np.ndarray) -> np.ndarray:
    rows = rows.astype(np.float64)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _random_matrix(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.normal(size=(n, d)).astype(np.float32)


def _fit_rows(X):
    """The fit's rows of X as a float32 matrix, and every float64 unit row the fit rebuilds."""
    rows = cluster._rows(np.asarray(X, dtype=np.float32))
    return rows, rows.unit(np.arange(len(X)))


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


def _seed_pair(X, K, seed):
    rows, Xn = _fit_rows(X)
    got = _kmeans_pp_init(rows, K, np.random.default_rng(seed))
    want = _reference_pp_init(Xn, K, np.random.default_rng(seed))
    return got, want


def test_seeding_matches_reference_on_random_unit_rows():
    rng = np.random.default_rng(30)
    for trial in range(60):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(2, 130))
        K = int(rng.integers(1, min(n, 60) + 1))
        got, want = _seed_pair(rng.normal(size=(n, d)), K, trial)
        assert got.tobytes() == want.tobytes(), f"trial {trial}"


def test_seeding_matches_reference_on_repeated_rows():
    # K above the number of distinct rows: once every distinct row is a centre
    # the remaining mass must be exactly 0, so the uniform fallback draws
    rng = np.random.default_rng(31)
    for trial in range(200):
        distinct = int(rng.integers(1, 6))
        d = int(rng.integers(2, 64))
        base = _normalize(rng.normal(size=(distinct, d)))
        X = base[rng.integers(0, distinct, size=int(rng.integers(distinct + 1, 40)))]
        K = int(rng.integers(distinct + 1, X.shape[0] + 1))
        got, want = _seed_pair(X, K, trial)
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


def _every_row_pp_init(Xn, K, rng):
    """k-means++ seeding that evaluates every row against every centre with the
    fit's kernel, sum((x - c)**2)."""
    centroids = np.empty((K, Xn.shape[1]))
    centroids[0] = Xn[int(rng.integers(len(Xn)))]
    d2 = np.full(len(Xn), np.inf)
    for j in range(1, K):
        np.minimum(d2, np.sum((Xn - centroids[j - 1]) ** 2, axis=1), out=d2)
        centroids[j] = Xn[cluster._pp_index(d2, rng)]
    return centroids


_SEEDING_CASES = {
    "random": lambda rng: _normalize(rng.normal(size=(int(rng.integers(2, 400)),
                                                      int(rng.integers(2, 130))))),
    "duplicates": lambda rng: _duplicate_rows(rng, int(rng.integers(1, 8)),
                                              int(rng.integers(8, 200)), 16),
    # rows 1e-7 apart: inside the float32 margin, so the filter leaves them open
    "near_duplicates": lambda rng: _normalize(
        _duplicate_rows(rng, 5, 150, 24) + rng.normal(size=(150, 24)) * 1e-7),
}


@pytest.mark.parametrize("case", sorted(_SEEDING_CASES))
def test_filtered_seeding_matches_every_row_evaluation(monkeypatch, case):
    # the float32 filter may skip a row only when the kernel would leave its d2 as it is
    evaluated = []

    def counting(rows, idx, centroids, labels):
        evaluated.append(len(idx))
        return sq_dists(rows, idx, centroids, labels)

    sq_dists = cluster._sq_dists
    monkeypatch.setattr(cluster, "_sq_dists", counting)
    rng = np.random.default_rng(60)
    full = skipped = 0
    for trial in range(40):
        rows, Xn = _fit_rows(_SEEDING_CASES[case](rng))
        K = int(rng.integers(1, min(len(Xn), 60) + 1))
        evaluated.clear()
        got = _kmeans_pp_init(rows, K, np.random.default_rng(trial))
        assert sum(evaluated) >= (K > 1) * len(Xn)    # the first centre meets every row
        full += (K - 1) * len(Xn)
        skipped += (K - 1) * len(Xn) - sum(evaluated)
        want = _every_row_pp_init(Xn, K, np.random.default_rng(trial))
        assert got.tobytes() == want.tobytes(), f"trial {trial}"
    assert skipped > full // 4             # the filter did skip rows


@pytest.mark.parametrize("n, d", [(203, 8), (10_000, 128), (4099, 33)])
@pytest.mark.parametrize("block_rows", [None, 7, 1])
def test_inertia_is_the_sum_of_row_distances(monkeypatch, n, d, block_rows):
    # 4099 rows are not a multiple of 7: the last block is short
    if block_rows is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 64 * d)
    rng = np.random.default_rng(n)
    rows, Xn = _fit_rows(rng.normal(size=(n, d)))
    centroids = rng.normal(size=(37, d)) * 0.3
    assignments = rng.integers(0, 37, size=n)
    own = cluster._sq_dists(rows, np.arange(n), centroids, assignments)
    assert own.tobytes() == np.sum((Xn - centroids[assignments]) ** 2, axis=1).tobytes()
    model = cluster._lloyd(rows, PipelineConfig(clusters=37, kmeans_max_iters=1),
                           np.random.default_rng(n))
    want = np.sum((Xn - model.centroids[model.assignments]) ** 2, axis=1)
    assert model.inertia == float(np.sum(want))


def test_block_sizes_follow_block_bytes_when_called(monkeypatch):
    # _assign's distance blocks take _BLOCK_BYTES and row_blocks an eighth of it;
    # each patched budget gives 5-row blocks to one of them
    n, d, K = 203, 12, 8
    rows = cluster._rows(_random_matrix(np.random.default_rng(9), n, d))
    centroids = _normalize(np.random.default_rng(10).normal(size=(K, d)))
    calls = []
    offsets32 = cluster._offsets32
    monkeypatch.setattr(cluster, "_offsets32", lambda *a: calls.append(1) or offsets32(*a))
    for budget, assign_blocks, unit_blocks in ((None, 1, 1), (5 * 8 * K, 41, 203),
                                               (5 * 64 * d, 4, 41)):
        if budget is not None:
            monkeypatch.setattr(cluster, "_BLOCK_BYTES", budget)
        calls.clear()
        cluster._assign(rows, centroids, np.full(n, -1), np.full(n, -np.inf),
                        np.ones(K, dtype=bool), None)
        assert len(calls) == assign_blocks, budget
        for unit in (True, False):
            assert len(list(cluster.row_blocks(rows, np.arange(n), unit))) == unit_blocks, budget


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


def _pair_distances(Xn, centroids):
    """1 - 2 x.c + ||c||^2, clamped at 0, for every (row, centroid) pair: n x K.

    Each pair's dot product is one einsum row, so its bits are those of
    cluster._pair_d2 for that pair alone.
    """
    n, K = len(Xn), len(centroids)
    rows, cents = np.repeat(np.arange(n), K), np.tile(np.arange(K), n)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    dot = np.einsum("ij,ij->i", Xn[rows], centroids[cents])
    return np.maximum(1.0 - 2.0 * dot + c_sq[cents], 0.0).reshape(n, K)


def _brute_assign(Xn, centroids):
    """Every row against every centroid: the lowest index at the least distance."""
    return _pair_distances(Xn, centroids).argmin(axis=1)


@pytest.mark.parametrize("d", [8, 33, 128, 256, 768])
def test_pair_distance_bits_depend_only_on_the_pair(d):
    # the distance of a (row, centre) pair must not change with the other pairs
    # in the call: the fit evaluates subsets that a full pass would not. Both
    # kernels: _pair_d2 decides assignments, _sq_dists seeds and sums the inertia
    rng = np.random.default_rng(d)
    n = 203
    every = np.arange(n)
    X = rng.normal(size=(n, d)).astype(np.float32)
    fit_rows, rows = _fit_rows(X)
    cents = rng.normal(size=(n, d)) * 0.1
    c_sq = np.einsum("ij,ij->i", cents, cents)
    full = cluster._pair_d2(rows, cents, c_sq)
    sq_full = cluster._sq_dists(fit_rows, every, cents, every)
    assert sq_full.tobytes() == np.sum((rows - cents) ** 2, axis=1).tobytes()

    def same(idx, rows_view=None, cents_view=None, x_view=None):
        # a view holds every row (centre) in order: _pair_d2 takes it whole, _sq_dists
        # indexes it; x_view holds X as the unit rows in rows_view are laid out
        R = rows if rows_view is None else rows_view
        C = cents if cents_view is None else cents_view
        got = cluster._pair_d2(R[idx] if rows_view is None else R,
                               C[idx] if cents_view is None else C, c_sq[idx])
        sq = cluster._sq_dists(fit_rows if x_view is None else cluster._rows(x_view), idx, C, idx)
        return got.tobytes() == full[idx].tobytes() and sq.tobytes() == sq_full[idx].tobytes()

    assert same(np.sort(rng.choice(n, size=57, replace=False)))         # subset
    assert same(rng.permutation(n))                                     # shuffled
    assert all(same(np.array([i])) for i in (0, 1, 100, n - 1))         # one row
    shifted = np.empty(n * d + 1)[1:].reshape(n, d)                     # 8 bytes off
    shifted[...] = rows
    shifted_x = np.empty(n * d + 1, dtype=np.float32)[1:].reshape(n, d)
    shifted_x[...] = X
    assert same(every, shifted, x_view=shifted_x)
    strided = np.empty((2 * n, d))[::2]                                 # every other row
    strided[...] = rows
    strided_cents = np.empty((3 * n, d))[1::3]
    strided_cents[...] = cents
    strided_x = np.empty((2 * n, d), dtype=np.float32)[::2]
    strided_x[...] = X
    assert same(every, strided, strided_cents, strided_x)
    # one centre against every row, as seeding evaluates it: a repeated label
    # and a stride-0 view of the centre give the bits of the explicit sum
    want = np.sum((rows - cents[0]) ** 2, axis=1)
    for C, labels in ((cents, np.zeros(n, dtype=np.int64)),
                      (np.broadcast_to(cents[0], (n, d)), every)):
        assert cluster._sq_dists(fit_rows, every, C, labels).tobytes() == want.tobytes()
    assert (cluster._sq_dists(fit_rows, every[7:8], cents, every[:1]).tobytes()
            == want[7:8].tobytes())


@pytest.mark.parametrize("d", [1, 2, 8, 128, 768])
def test_keep_test_slack_covers_the_gap_between_the_two_kernels(d):
    # _assign keeps a row when its sum((x - c)**2) plus the slack is below its bound
    # on every rival's _pair_d2: the two kernels must agree within half the slack.
    # Clusters lie at several spreads around their direction, so the distances
    # range from near 0 to past 1, and each centroid is its members' mean
    rng = np.random.default_rng(d)
    n, K = 4000, 40
    labels = rng.integers(0, K, size=n)
    spread = rng.choice([1e-4, 1e-2, 0.3, 3.0], size=(K, 1))[labels]
    X = _normalize(rng.normal(size=(K, d)))[labels] + rng.normal(size=(n, d)) * spread
    fit_rows, rows = _fit_rows(X)
    centroids = np.array([rows[labels == k].mean(axis=0) for k in range(K)])
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    pair = cluster._pair_d2(rows, centroids[labels], c_sq[labels])
    sq = cluster._sq_dists(fit_rows, np.arange(n), centroids, labels)
    slack = 16.0 * (d + 4) * np.finfo(np.float64).eps     # _assign's
    gap = np.abs(sq - pair)
    assert gap.max() <= slack / 2, f"gap {gap.max()}, half the slack {slack / 2}"
    assert pair.min() < 0.01 and pair.max() > 1.0


@pytest.mark.parametrize("d", [1, 2, 7, 128, 768])
def test_row_norms_have_the_bits_of_linalg_norm(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(97, d)) * rng.lognormal(0.0, 3.0, size=(97, 1))
    assert cluster.row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()
    assert cluster.row_norms(x[::3]).tobytes() == np.linalg.norm(x[::3], axis=1).tobytes()


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("d", [1, 7, 256])
def test_rebuilt_rows_have_the_bits_of_whole_matrix_normalisation(monkeypatch, d, block_rows):
    # the fit rebuilds each float64 unit row it needs from X and the row's norm;
    # it must equal the row of one cast of all of X divided by np.linalg.norm's norms
    rng = np.random.default_rng(d)
    n = 300
    X = (rng.normal(size=(n, d)) * rng.lognormal(0.0, 3.0, size=(n, 1))).astype(np.float32)
    want = X.astype(np.float64)
    want /= np.linalg.norm(want, axis=1)[:, None]
    if block_rows is not None:           # norms over 7-row blocks, the last one short
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 64 * d)
    blocks = []
    row_norms = cluster.row_norms
    monkeypatch.setattr(cluster, "row_norms", lambda x: blocks.append(len(x)) or row_norms(x))
    rows = cluster._rows(X)
    if block_rows is not None:
        assert blocks == [7] * 42 + [6]
    assert rows.norms.tobytes() == np.linalg.norm(X.astype(np.float64), axis=1).tobytes()
    for idx in (np.arange(n),                                   # every row
                np.sort(rng.choice(n, size=57, replace=False)),  # gathered
                rng.permutation(n),                             # shuffled
                np.arange(3, n, 5), slice(3, None, 5),          # strided
                slice(10, 20)):
        assert rows.unit(idx).tobytes() == want[idx].tobytes()
    for i in (0, 1, n - 1):                                     # one row
        assert rows.unit(i).tobytes() == want[i].tobytes()
        assert rows.unit(np.array([i])).tobytes() == want[i:i + 1].tobytes()


def test_fit_is_unchanged_by_power_of_two_row_scales():
    # scaling a float32 row by 2^k is exact, so its unit row keeps its bits. Rows
    # scaled by 2^+-66 (norms near 1e+-20) stay in cluster._FILTER_NORMS; 2^+-104
    # puts them outside it, and at 2^127 their float32 dot products overflow
    rng = np.random.default_rng(37)
    X = _duplicate_rows(rng, 9, 300, 16) + rng.normal(size=(300, 16)) * 0.01
    X = (X / np.abs(X).max(axis=1, keepdims=True)).astype(np.float32)   # |values| <= 1
    cfg = PipelineConfig(clusters=12, seed=5, kmeans_restarts=2)
    want = kmeans_fit(X, cfg)
    scales = np.array([2.0 ** k for k in (0, -66, 66, -104, 104, 127)])
    for trial in range(3):
        scaled = (X * scales[rng.integers(0, len(scales), size=len(X))][:, None]).astype(
            np.float32)
        assert np.isfinite(scaled).all()
        got = kmeans_fit(scaled, cfg)
        assert got.centroids.tobytes() == want.centroids.tobytes(), f"trial {trial}"
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.inertia_history == want.inertia_history


def test_kmeans_fit_leaves_its_input_unchanged():
    # the fit reads X through every restart, repair and centroid update
    X = _duplicate_rows(np.random.default_rng(41), 9, 200, 20).astype(np.float32)
    before = X.copy()
    model = kmeans_fit(X, PipelineConfig(clusters=14, seed=3, kmeans_restarts=3))
    assert model.repairs > 0
    elbow_scan(X, [2, 5, 14], PipelineConfig(seed=3))
    assert X.tobytes() == before.tobytes()


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


def _reference_lloyd(rows, Xn, cfg, seed):
    """Brute-force Lloyd iterations on the unit rows Xn of rows; (assignments,
    centroids, inertia) after each."""
    K = cfg.clusters
    centroids = _kmeans_pp_init(rows, K, np.random.default_rng(seed))
    assignments = np.full(Xn.shape[0], -1, dtype=np.int64)
    states = []
    prev = None
    for _ in range(cfg.kmeans_max_iters):
        new = _brute_assign(Xn, centroids)
        _reference_repair(Xn, centroids, new, K)
        for k in range(K):
            centroids[k] = Xn[np.flatnonzero(new == k)].mean(axis=0)
        inertia = float(np.sum(np.sum((Xn - centroids[new]) ** 2, axis=1)))
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
    X, K = _LLOYD_CASES[case]()
    rows, Xn = _fit_rows(X)
    if block_rows is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 8 * K)
    cfg = PipelineConfig(clusters=K, seed=3, kmeans_tol=0.0, kmeans_max_iters=40)
    states = _reference_lloyd(rows, Xn, cfg, seed=3)
    assert len(states) > 2
    for t, (assignments, centroids, _) in enumerate(states, start=1):
        model = cluster._lloyd(rows, dataclasses.replace(cfg, kmeans_max_iters=t),
                               np.random.default_rng(3))
        np.testing.assert_array_equal(model.assignments, assignments, err_msg=f"iteration {t}")
        assert model.centroids.tobytes() == centroids.tobytes(), f"iteration {t}"
        assert model.inertia_history == [s[2] for s in states[:t]]
    if case == "duplicates":
        assert model.near_ties > 0 and model.repairs > 0
    if case in ("duplicates", "near_duplicates"):
        assert model.float64_rows > 0


@pytest.mark.parametrize("block_rows", [None, 3])
def test_near_tie_rows_take_the_pair_kernel_argmin(monkeypatch, block_rows):
    # one row equidistant from two centroids, to the last bit: they differ only
    # where the row and their midpoint are 0. float32 cannot order them, so the
    # exact kernel decides between the two
    if block_rows is not None:           # 3-row blocks of 8 centroids; d = 24 > K
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_rows * 8 * 8)
    bad = near_ties = rescans = rescan_ties = 0
    for trial in range(30):
        rng = np.random.default_rng(trial)
        d = 24
        mid = rng.normal(size=d)
        mid[20:] = 0.0
        mid *= 0.9 / np.linalg.norm(mid)
        delta = np.zeros(d)
        delta[20:] = rng.normal(size=4)
        delta *= 0.05 / np.linalg.norm(delta)
        offset = rng.normal(size=d) * 0.05
        offset[20:] = 0.0
        others = _normalize(rng.normal(size=(6, d)))
        centroids = np.vstack([mid + delta, mid - delta, others])
        Xn = np.vstack([_normalize(others[rng.integers(0, 6, size=60)]
                                   + rng.normal(size=(60, d)) * 0.01),
                        _normalize((mid + offset)[None])])
        rows, Xn = _fit_rows(Xn[rng.permutation(len(Xn))])
        lb = np.full(len(Xn), -np.inf)
        assignments, _, _, ties = cluster._assign(rows, centroids, np.full(len(Xn), -1),
                                                  lb, np.ones(8, dtype=bool), None)
        bad += not np.array_equal(assignments, _brute_assign(Xn, centroids))
        near_ties += ties
        # only the tie row can be rescanned: when its own distance is not below its rival's
        centroids[2] = _normalize(centroids[2:3] + 0.001)[0]
        assignments, scanned, _, ties = cluster._assign(rows, centroids, assignments, lb,
                                                        np.arange(8) == 2,
                                                        _own(Xn, centroids, assignments))
        bad += not np.array_equal(assignments, _brute_assign(Xn, centroids))
        rescans += scanned
        rescan_ties += ties
    assert bad == 0
    assert near_ties == 60                 # the tie row against each of its two centroids
    # its own distance equals its rival's, so it alone is scanned again, and decided exactly
    assert rescans == 30 and rescan_ties == 2 * rescans


def _own(Xn, centroids, assignments):
    """Each row's sum((x - c)**2) to its own centroid, as _assign reads it."""
    return np.sum((Xn - centroids[assignments]) ** 2, axis=1)


def _bounds_hold(lb, Xn, centroids, assignments):
    """Every lower bound is at most each rival's distance; NaN bounds nothing."""
    d2 = _pair_distances(Xn, centroids)
    d2[np.arange(len(Xn)), assignments] = np.inf
    return bool(np.all(np.isnan(lb) | (lb <= d2.min(axis=1))))


def _check_filter_margin(monkeypatch, block_rows, scale, certified=True):
    """Rows on the bisector of two centroids, then moved off it by steps that
    end far outside the float32 margin, and rows at two duplicate centroids;
    every row multiplied by scale before the float32 rounding. ``certified``:
    the row norms lie in cluster._FILTER_NORMS."""
    d = 16
    rng = np.random.default_rng(50)
    mid = _normalize(rng.normal(size=(1, d)))[0] * 0.9
    delta = rng.normal(size=d)
    delta -= (delta @ mid) / (mid @ mid) * mid
    delta *= 0.05 / np.linalg.norm(delta)
    dup = _normalize(rng.normal(size=(1, d)))[0] * 0.8
    others = _normalize(rng.normal(size=(4, d))) * 0.7
    centroids = np.vstack([mid + delta, mid - delta, dup, dup, others])
    K = len(centroids)
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
    fit_rows, Xn = _fit_rows(_normalize(np.array(rows))[order] * scale)
    n = len(Xn)
    assert np.isfinite(fit_rows.recip).all() == certified
    assert np.isnan(fit_rows.recip).all() != certified
    # gaps of 0.2 step: only the steps of 1e-3 and 1e-2 clear twice the float32 margin
    assert 2 * cluster._margin(d) < 0.2 * 1e-3 * 0.9
    lb = np.full(n, -np.inf)
    assignments, scanned, float64_rows, ties = cluster._assign(
        fit_rows, centroids, np.full(n, -1), lb, np.ones(K, dtype=bool), None)
    np.testing.assert_array_equal(assignments, _brute_assign(Xn, centroids))
    assert _bounds_hold(lb, Xn, centroids, assignments)
    assert np.isnan(lb).sum() == (0 if certified else n)
    assert scanned == n
    if certified:
        assert float64_rows == n - 10
        assert ties == 2 * float64_rows    # each against its bisected pair or the duplicates
    else:                                  # no float32 offset proves anything
        assert float64_rows == n and ties == n * K

    # one rival moves: its distances come from the float32 pass over moved centroids
    centroids[4] = _normalize(mid[None] - 3 * delta)[0] * 0.9
    assignments, scanned, float64_rows, ties = cluster._assign(
        fit_rows, centroids, assignments, lb, np.arange(K) == 4,
        _own(Xn, centroids, assignments))
    np.testing.assert_array_equal(assignments, _brute_assign(Xn, centroids))
    assert _bounds_hold(lb, Xn, centroids, assignments)
    assert np.isnan(lb).sum() == (0 if certified else n)
    if certified:
        assert 0 < scanned < n and float64_rows > 0
    else:
        assert scanned == float64_rows == n


@pytest.mark.parametrize("block_rows", [None, 7, 1])
def test_float32_filter_leaves_rows_inside_its_margin_to_float64(monkeypatch, block_rows):
    _check_filter_margin(monkeypatch, block_rows, 1.0)


@pytest.mark.parametrize("scale, certified",
                         [(1e-20, True), (1e20, True), (1e-35, False), (1e35, False)])
def test_float32_filter_holds_at_norms_far_from_one(monkeypatch, scale, certified):
    # --embeddings vectors need not be unit length: the filter scales each row by
    # its float32 reciprocal norm, and outside cluster._FILTER_NORMS it is off
    _check_filter_margin(monkeypatch, None, scale, certified)


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


def test_kmeans_holds_no_copy_of_the_rows():
    # X is the caller's and not counted. The fit keeps at most eight per-row
    # arrays of 8 bytes (norms, reciprocal norms, bounds, each row's sum((x - c)**2)
    # to its centroid, assignments) beside two 4 MiB blocks; a copy of the rows,
    # even in float32, exceeds it
    n, d = 10_000, 256
    X = _random_matrix(np.random.default_rng(35), n, d)
    tracemalloc.start()
    try:
        kmeans_fit(X, PipelineConfig(clusters=200, seed=0, kmeans_restarts=2,
                                     kmeans_max_iters=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = n * 64 + 2 * cluster._BLOCK_BYTES
    assert bound < n * d * 4
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_elbow_scan_holds_no_float64_copy_of_the_rows(monkeypatch):
    # each K's fit rebuilds unit rows a block at a time
    monkeypatch.setattr(cluster, "_BLOCK_BYTES", 1 << 20)
    n, d = 4000, 256
    X = _random_matrix(np.random.default_rng(36), n, d)
    tracemalloc.start()
    try:
        elbow_scan(X, [10, 20, 40], PipelineConfig(seed=0, kmeans_restarts=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8, f"peak {peak} bytes, one n x d float64 array is {n * d * 8}"


def test_repair_empty_moves_farthest_point():
    rows, Xn = _fit_rows(np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2], [0.0, 1.0]]))
    centroids = np.vstack([Xn[:3].mean(axis=0), [5.0, 5.0]])
    assignments = np.zeros(4, dtype=np.int64)
    assignments[3] = 0
    _repair_empty(rows, centroids, assignments, K=2)
    assert (assignments == 1).sum() == 1
    assert assignments[3] == 1             # the outlier is the farthest point
    np.testing.assert_array_equal(centroids[1], Xn[3])
    assert (assignments == 0).sum() == 3   # donor survives


def test_repair_empty_fills_several_clusters_like_one_at_a_time():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n, K = int(rng.integers(12, 60)), int(rng.integers(5, 11))
        rows, Xn = _fit_rows(rng.normal(size=(n, 5)))
        # only a few clusters hold points; one of them may hold a single point
        assignments = rng.integers(0, 3, size=n)
        assignments[0] = 3
        centroids = _normalize(rng.normal(size=(K, 5)))
        want_assign, want_centroids = assignments.copy(), centroids.copy()
        _reference_repair(Xn, want_centroids, want_assign, K)
        before = assignments.copy()
        moved = _repair_empty(rows, centroids, assignments, K)
        np.testing.assert_array_equal(assignments, want_assign, err_msg=f"trial {trial}")
        assert centroids.tobytes() == want_centroids.tobytes()
        assert sorted(moved.tolist()) == np.flatnonzero(assignments != before).tolist()
        assert np.bincount(assignments, minlength=K).min() == 1


def test_validate_rejects_bad_config():
    rng = np.random.default_rng(1)
    X = _random_matrix(rng, 5, 3)
    with pytest.raises(DataError, match="^clusters must be >= 1"):
        PipelineConfig(clusters=0)
    with pytest.raises(DataError, match=r"^K \(6\) exceeds row count \(5\)$"):
        kmeans_fit(X, PipelineConfig(clusters=6, seed=0))
    with pytest.raises(DataError, match="^kmeans_restarts must be >= 1"):
        PipelineConfig(clusters=2, kmeans_restarts=0)
    with pytest.raises(DataError, match="^zero-norm embedding row 0$"):
        kmeans_fit(np.zeros((3, 2), dtype=np.float32),
                   PipelineConfig(clusters=1, seed=0))
    X = _random_matrix(rng, 12, 5)
    X[7] = 0.0
    with pytest.raises(DataError, match="^zero-norm embedding row 7$"):
        kmeans_fit(X, PipelineConfig(clusters=3, seed=1))


def test_elbow_scan_finds_three_blobs():
    rng = np.random.default_rng(8)
    centers = np.eye(3) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=15, noise=0.05)
    X = data
    cfg = PipelineConfig(clusters=1, seed=0, kmeans_restarts=3)
    result = elbow_scan(X, [1, 2, 3, 4, 5, 6], cfg)
    assert [k for k, _ in result.points] == [1, 2, 3, 4, 5, 6]
    sses = [sse for _, sse in result.points]
    # each point is its fit's inertia, bit for bit
    assert sses == [kmeans_fit(X, dataclasses.replace(cfg, clusters=k)).inertia
                    for k in range(1, 7)]
    assert all(b <= a + 1e-9 for a, b in zip(sses, sses[1:]))
    assert result.knee == 3


def test_elbow_scan_needs_three_points_for_knee():
    rng = np.random.default_rng(4)
    X = _random_matrix(rng, 10, 3)
    result = elbow_scan(X, [2, 3], PipelineConfig(clusters=2, seed=0, kmeans_restarts=1))
    assert result.knee is None


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
    with pytest.raises(FormatError, match="header needs .* payload bytes, found"):
        load_model(short)
    short.write_bytes(bytes(blob[:20]))
    with pytest.raises(FormatError, match="too short for header"):
        load_model(short)

    # corrupt one assignment so it points past K
    bad_assign = bytearray(blob)
    bad_assign[-4:] = (10_000).to_bytes(4, "little")
    bad_path = tmp_path / "range.bin"
    bad_path.write_bytes(bytes(bad_assign))
    with pytest.raises(DataError, match="assignment out of range"):
        load_model(bad_path)
