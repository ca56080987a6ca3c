"""Budget allocation, softmax sampling, MMR, and the full selection pass.

Each numeric routine is checked against an independently written oracle:
exact-fraction arithmetic for budgets, mpmath for the softmax, and a
sort-based greedy for MMR.
"""

import bisect
import dataclasses
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rankforge import selection
from rankforge.cluster import groups, kmeans_fit
from rankforge.config import PipelineConfig
from rankforge.corpus import filter_min_length, tokenize_collection
from rankforge.embeddings import embed_collection
from rankforge.errors import (
    DegenerateClusterError,
    DegenerateVectorError,
    FormatError,
    InfeasibleBudgetError,
    InvalidConfigError,
    ValidationError,
)
from rankforge.selection import (
    _round_rng,
    allocate_sizes,
    centroid_similarities,
    load_selected,
    mmr_select,
    sample_without_replacement,
    save_selected,
    select_representatives,
    softmax_probabilities,
)
from tests.conftest import blob_matrix, make_collection


# ---------------------------------------------------------------- allocation

def fraction_allocation(c: list[int], total: int) -> list[int]:
    """Uncapped budget rule redone with exact fractions (no floats, no numpy)."""
    n = len(c)
    big_c = sum(c)
    spare = total - n
    sizes = [1 + math.floor(Fraction(ck * spare, big_c)) for ck in c]
    leftover = total - sum(sizes)
    order = sorted(range(n), key=lambda k: (-c[k], k))
    for k in order[:leftover]:
        sizes[k] += 1
    return sizes


def test_allocation_hand_cases():
    assert allocate_sizes([50, 30, 20], 10).sizes.tolist() == [5, 3, 2]
    assert allocate_sizes([1, 1, 98], 10).sizes.tolist() == [1, 1, 8]
    assert allocate_sizes([5, 1, 1, 1], 8).sizes.tolist() == [5, 1, 1, 1]   # cap binds
    assert allocate_sizes([10], 4).sizes.tolist() == [4]
    assert allocate_sizes([3, 1, 2], 6).sizes.tolist() == [3, 1, 2]         # total == size


def test_allocation_matches_fraction_oracle_when_uncapped():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        total = int(rng.integers(n, 5 * n + 1))
        # members >= total per cluster, so the cap can never bind
        c = [int(rng.integers(total, 3 * total + 1)) for _ in range(n)]
        got = allocate_sizes(c, total).sizes.tolist()
        assert got == fraction_allocation(c, total)


def test_allocation_invariants_randomized():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        c = [int(rng.integers(1, 40)) for _ in range(n)]
        lo, hi = n, sum(c)
        total = int(rng.integers(lo, hi + 1))
        alloc = allocate_sizes(c, total)
        sizes = alloc.sizes.tolist()
        assert sum(sizes) == total
        assert all(1 <= s <= ck for s, ck in zip(sizes, c))


def test_allocation_monotone_in_cluster_size():
    # a strictly larger cluster never receives a smaller uncapped budget
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        total = int(rng.integers(n, 4 * n))
        c = [int(rng.integers(total, 2 * total)) for _ in range(n)]
        sizes = allocate_sizes(c, total).sizes.tolist()
        for a, b in itertools.combinations(range(n), 2):
            if c[a] > c[b]:
                assert sizes[a] >= sizes[b]
            elif c[a] < c[b]:
                assert sizes[a] <= sizes[b]


def test_allocation_rejects_infeasible():
    with pytest.raises(InfeasibleBudgetError):
        allocate_sizes([5, 5], 1)          # fewer slots than clusters
    with pytest.raises(InfeasibleBudgetError):
        allocate_sizes([2, 2], 5)          # more slots than documents
    with pytest.raises(InvalidConfigError):
        allocate_sizes([], 3)
    with pytest.raises(InvalidConfigError):
        allocate_sizes([3, 0], 3)


# ------------------------------------------------------------------- softmax

def test_softmax_against_mpmath():
    mpmath.mp.dps = 60
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        scale = float(rng.choice([0.01, 1.0, 50.0, 700.0]))
        values = (rng.normal(size=n) * scale).tolist()
        temperature = float(rng.choice([0.1, 0.5, 1.0, 4.0]))
        got = softmax_probabilities(values, temperature)
        exps = [mpmath.exp(mpmath.mpf(v) / temperature) for v in values]
        denom = mpmath.fsum(exps)
        want = [float(e / denom) for e in exps]
        assert got.shape == (n,)
        assert abs(float(got.sum()) - 1.0) < 1e-12
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12


def test_softmax_shift_invariance_and_errors():
    values = [0.1, 0.9, 0.5]
    a = softmax_probabilities(values, 1.0)
    b = softmax_probabilities([v + 123.0 for v in values], 1.0)
    np.testing.assert_allclose(a, b, atol=1e-15)
    with pytest.raises(InvalidConfigError):
        softmax_probabilities(values, 0.0)
    with pytest.raises(InvalidConfigError):
        softmax_probabilities([], 1.0)
    with pytest.raises(ValidationError):
        softmax_probabilities([0.1, float("nan")], 1.0)


def test_softmax_temperature_sharpens():
    values = [0.2, 0.8]
    cold = softmax_probabilities(values, 0.1)
    hot = softmax_probabilities(values, 10.0)
    assert cold[1] > hot[1] > 0.5


# ------------------------------------------------------------------ sampling

def test_sampling_is_deterministic_and_complete():
    p = [0.1, 0.2, 0.3, 0.4]
    a = sample_without_replacement(p, 4, np.random.default_rng(5))
    b = sample_without_replacement(p, 4, np.random.default_rng(5))
    assert a == b
    assert sorted(a) == [0, 1, 2, 3]


def test_sampling_never_picks_zero_weight():
    p = [0.5, 0.0, 0.5]
    for seed in range(200):
        draws = sample_without_replacement(p, 2, np.random.default_rng(seed))
        assert 1 not in draws


def test_sampling_first_draw_frequency():
    p = np.asarray([0.5, 0.3, 0.2])
    counts = np.zeros(3)
    rng = np.random.default_rng(8)
    trials = 20_000
    for _ in range(trials):
        counts[sample_without_replacement(p, 1, rng)[0]] += 1
    np.testing.assert_allclose(counts / trials, p, atol=0.02)


def test_sampling_matches_manual_inversion():
    # independent re-derivation of the draw rule with bisect over a prefix sum
    p = [0.15, 0.35, 0.05, 0.45]
    for seed in range(50):
        got = sample_without_replacement(p, 3, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        weights = list(map(float, p))
        want = []
        for _ in range(3):
            cum = list(itertools.accumulate(weights))
            target = rng.random() * cum[-1]
            idx = bisect.bisect_right(cum, target)
            if idx >= len(weights):
                idx = max(i for i, w in enumerate(weights) if w > 0)
            want.append(idx)
            weights[idx] = 0.0
        assert got == want


def test_sampling_errors():
    with pytest.raises(InfeasibleBudgetError):
        sample_without_replacement([0.5, 0.5], 3, np.random.default_rng(0))
    with pytest.raises(InfeasibleBudgetError):
        sample_without_replacement([1.0, 0.0], 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        sample_without_replacement([0.5, -0.1], 1, np.random.default_rng(0))


def test_round_rng_streams_are_stable_and_distinct():
    a = _round_rng(7, cluster=2, round_index=1).random(4)
    b = _round_rng(7, cluster=2, round_index=1).random(4)
    c = _round_rng(7, cluster=2, round_index=2).random(4)
    d = _round_rng(7, cluster=3, round_index=1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ----------------------------------------------------------------------- MMR

def mmr_oracle(pool, sims, pairwise, lam, n):
    """Greedy MMR redone with sort-based argmax and explicit tie key."""
    chosen_positions = []
    candidates = list(range(len(pool)))
    while candidates and len(chosen_positions) < n:
        scored = []
        for i in candidates:
            if chosen_positions:
                redundancy = max(pairwise(pool[i], pool[j]) for j in chosen_positions)
            else:
                redundancy = 0.0
            scored.append((-(lam * sims[i] - (1.0 - lam) * redundancy), pool[i], i))
        scored.sort()
        pick = scored[0][2]
        chosen_positions.append(pick)
        candidates.remove(pick)
    return [pool[i] for i in chosen_positions]


def test_mmr_matches_bruteforce_oracle():
    rng = np.random.default_rng(4)
    for trial in range(200):
        size = int(rng.integers(1, 13))
        pool = sorted(rng.choice(200, size=size, replace=False).tolist())
        sims = rng.uniform(-1, 1, size=size).tolist()
        vecs = rng.normal(size=(201, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]

        def pairwise(a, b):
            return float(vecs[a] @ vecs[b])

        lam = [0.0, 0.25, 0.5, 0.75, 1.0][trial % 5]
        n = int(rng.integers(1, size + 1))
        assert mmr_select(pool, sims, vecs[pool], lam, n) == mmr_oracle(pool, sims, pairwise, lam, n)


def test_mmr_matches_oracle_on_large_unsorted_pools():
    # pools up to 400 in draw order (not sorted), d=128, similarities of both signs
    rng = np.random.default_rng(40)
    for trial in range(40):
        size = int(rng.integers(1, 401))
        pool = rng.choice(1000, size=size, replace=False).tolist()
        sims = rng.uniform(-1, 1, size=size).tolist()
        vecs = rng.normal(size=(1000, 128))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]

        def pairwise(a, b):
            return float(vecs[a] @ vecs[b])

        lam = [0.0, 0.25, 0.5, 0.75, 1.0][trial % 5]
        n = int(rng.integers(1, min(size, 30) + 1))
        assert mmr_select(pool, sims, vecs[pool], lam, n) == mmr_oracle(pool, sims, pairwise, lam, n)


def test_mmr_redundancy_can_be_negative():
    # after the first pick every candidate's redundancy is negative; a floor of
    # 0 would make lam=0 pick by ordinal instead of by dissimilarity
    vecs = np.asarray([[1.0, 0.0], [-0.6, 0.8], [-0.8, -0.6], [-1.0, 0.0]])
    pool = [3, 2, 1, 0]
    sims = [0.0, 0.0, 0.0, 1.0]
    got = mmr_select(pool, sims, vecs[pool], 0.0, 2)
    assert got == [0, 3]
    assert got == mmr_oracle(pool, sims, lambda a, b: float(vecs[a] @ vecs[b]), 0.0, 2)


def test_mmr_lambda_one_is_pure_similarity():
    pool = [10, 20, 30, 40]
    sims = [0.2, 0.9, 0.5, 0.9]
    got = mmr_select(pool, sims, np.zeros((4, 2)), 1.0, 3)
    assert got == [20, 40, 30]            # score desc, tie toward smaller ordinal
    # the tie rule follows the ordinal, not the position in the pool
    assert mmr_select(pool[::-1], sims[::-1], np.zeros((4, 2)), 1.0, 3) == [20, 40, 30]


def test_mmr_lambda_zero_spreads_out():
    pool = [0, 1, 2]
    sims = [1.0, 0.9, 0.1]
    vecs = np.asarray([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]

    got = mmr_select(pool, sims, vecs[pool], 0.0, 2)
    assert got[0] == 0                     # first pick is still the top match
    assert got[1] == 2                     # then the most different one


def test_mmr_handles_small_pools_and_bad_args():
    assert mmr_select([], [], np.zeros((0, 2)), 0.5, 3) == []
    assert mmr_select([7], [0.5], np.zeros((1, 2)), 0.5, 3) == [7]
    with pytest.raises(InvalidConfigError):
        mmr_select([1], [0.1], np.zeros((1, 2)), 1.5, 1)
    with pytest.raises(InvalidConfigError):
        mmr_select([1], [0.1], np.zeros((1, 2)), 0.5, 0)
    with pytest.raises(ValidationError):
        mmr_select([1, 2], [0.1], np.zeros((2, 2)), 0.5, 1)
    with pytest.raises(ValidationError):
        mmr_select([1, 2], [0.1, 0.2], np.zeros((3, 2)), 0.5, 1)


# ------------------------------------------------- centroid similarities

def test_centroid_similarities_hand_case():
    sims, unit = centroid_similarities(np.asarray([[1.0, 0.0], [0.0, 1.0]]), 0)
    np.testing.assert_allclose(sims, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)
    np.testing.assert_array_equal(unit, [[1.0, 0.0], [0.0, 1.0]])
    sims, unit = centroid_similarities(np.asarray([[5.0, 5.0]]), 1)
    np.testing.assert_allclose(sims, [1.0], atol=1e-12)
    np.testing.assert_allclose(unit, [[math.sqrt(0.5), math.sqrt(0.5)]], atol=1e-15)


def test_centroid_similarities_uses_raw_member_mean():
    # raw-mean direction (dominated by the long vector) differs from the
    # mean of normalized rows; the raw mean is what counts here
    sims, _ = centroid_similarities(np.asarray([[10.0, 0.0], [0.0, 1.0]]), 0)
    mean = np.asarray([5.0, 0.5])
    expected = [
        float(np.dot([10, 0], mean) / (10 * np.linalg.norm(mean))),
        float(np.dot([0, 1], mean) / (1 * np.linalg.norm(mean))),
    ]
    np.testing.assert_allclose(sims, expected, atol=1e-12)
    assert sims[0] > sims[1]


def test_centroid_similarities_degenerate_cases():
    with pytest.raises(DegenerateClusterError, match="cluster 0 member vectors average to zero"):
        centroid_similarities(np.asarray([[1.0, 0.0], [-1.0, 0.0]]), 0)
    with pytest.raises(DegenerateClusterError, match="cluster 1 is empty"):
        centroid_similarities(np.zeros((0, 2)), 1)
    with pytest.raises(DegenerateVectorError, match="zero-norm member vector in cluster 2"):
        centroid_similarities(np.asarray([[1.0, 0.0], [0.0, 0.0]]), 2)


# ------------------------------------------------- full selection pass

def _fit_fixture(seed=0):
    rng = np.random.default_rng(seed)
    centers = np.asarray([[2.0, 0.0, 0.0, 0.5], [0.0, 2.0, 0.5, 0.0]])
    data, labels = blob_matrix(rng, centers, per_blob=16, noise=0.15)
    X = data
    from rankforge.cluster import kmeans_fit

    model = kmeans_fit(X, PipelineConfig(clusters=2, seed=1, kmeans_restarts=3, kmeans_tol=0.0))
    return X, model


def oracle_select_representatives(X, model, cfg):
    """Independent re-derivation of the whole selection pass.

    Returns (ordinal, cluster, centroid_sim, prob, rank) per pick, in
    cluster order and then rank order.
    """
    sizes = fraction_allocation_capped(model.cluster_sizes().tolist(), cfg.sample_size)
    out = []
    for k in range(model.K):
        members = np.flatnonzero(model.assignments == k)
        raw = X[members].astype(np.float64)
        mean = raw.mean(axis=0)
        sims = raw @ mean / (np.linalg.norm(raw, axis=1) * np.linalg.norm(mean))
        sims = np.clip(sims, -1.0, 1.0)
        z = sims / cfg.softmax_temperature
        e = np.exp(z - z.max())
        probs = e / e.sum()

        pool, seen = [], set()
        for r in range(cfg.sample_rounds):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(k, r)))
            weights = probs.copy()
            for _ in range(sizes[k]):
                cum = np.cumsum(weights)
                target = rng.random() * float(cum[-1])
                idx = int(np.searchsorted(cum, target, side="right"))
                if idx >= len(weights):
                    idx = int(np.flatnonzero(weights > 0)[-1])
                weights[idx] = 0.0
                if idx not in seen:
                    seen.add(idx)
                    pool.append(idx)

        unit = raw / np.linalg.norm(raw, axis=1)[:, None]
        anchor = int(np.argmax(sims))
        anchor_sims = [float(unit[q] @ unit[anchor]) for q in range(len(members))]
        chosen = mmr_oracle(pool, [anchor_sims[q] for q in pool],
                            lambda a, b: float(unit[a] @ unit[b]), cfg.mmr_lambda, sizes[k])
        out.extend((int(members[q]), k, float(sims[q]), float(probs[q]), rank)
                   for rank, q in enumerate(chosen))
    return out


def fraction_allocation_capped(c, total):
    sizes = fraction_allocation(c, total)
    overflow = 0
    for k in range(len(c)):
        if sizes[k] > c[k]:
            overflow += sizes[k] - c[k]
            sizes[k] = c[k]
    while overflow:
        k = min((j for j in range(len(c)) if sizes[j] < c[j]), key=lambda j: (-c[j], j))
        sizes[k] += 1
        overflow -= 1
    return sizes


def test_select_representatives_matches_oracle():
    # every field of every pick must be bit-equal to the oracle's, not merely close
    for fixture_seed in (0, 3, 5, 7):
        X, model = _fit_fixture(fixture_seed)
        for lam, temperature, rounds in [(1.0, 1.0, 5), (0.7, 0.8, 3), (0.0, 2.0, 1),
                                         (0.5, 0.3, 2)]:
            cfg = PipelineConfig(sample_size=10, seed=11, softmax_temperature=temperature,
                                 sample_rounds=rounds, mmr_lambda=lam)
            got = select_representatives(X, model, cfg)
            want = oracle_select_representatives(X, model, cfg)
            assert [(d.ordinal, d.cluster, d.centroid_sim, d.prob, d.rank_in_cluster)
                    for d in got] == want


def test_mmr_after_an_anchor_in_the_pool_picks_the_smallest_ordinal(monkeypatch):
    # At lambda 0.5, once the anchor is picked, every candidate scores
    # 0.5 * sim(anchor) - 0.5 * sim(anchor), exactly 0 when both similarities are
    # the same dot product, so the second pick is the smallest ordinal left.
    pools = []

    def recording(pool, *args):
        pools.append(list(pool))
        return mmr_select(pool, *args)

    monkeypatch.setattr(selection, "mmr_select", recording)
    checked = 0
    for seed in (1, 2, 3):
        docs = filter_min_length(make_collection(300, seed=seed), 100)
        X = embed_collection(tokenize_collection(docs), 128, 42)
        cfg = PipelineConfig(clusters=3, seed=42, sample_size=30, mmr_lambda=0.5)
        model = kmeans_fit(X, cfg)
        pools.clear()
        selected = select_representatives(X, model, cfg)
        for k, (pool, members) in enumerate(zip(pools, groups(model.assignments, model.K))):
            sims, _ = centroid_similarities(X[members].astype(np.float64), k)
            anchor = int(np.argmax(sims))
            if anchor not in pool:
                continue
            picks = [d.ordinal for d in selected if d.cluster == k]
            second = min(pos for pos in pool if pos != anchor)
            assert picks[:2] == [members[anchor], members[second]], (seed, k)
            checked += 1
    assert checked >= 3


def test_select_representatives_invariants():
    X, model = _fit_fixture(seed=3)
    cfg = PipelineConfig(sample_size=12, seed=2, softmax_temperature=1.0, sample_rounds=5,
                         mmr_lambda=0.5)
    selected = select_representatives(X, model, cfg)
    from rankforge.selection import allocate_sizes as alloc

    sizes = alloc(model.cluster_sizes(), 12).sizes
    assert len(selected) == 12
    ordinals = [d.ordinal for d in selected]
    assert len(set(ordinals)) == len(ordinals)
    # cluster order, then rank order
    assert [(d.cluster, d.rank_in_cluster) for d in selected] == [
        (k, rank) for k in range(model.K) for rank in range(sizes[k])]
    for doc in selected:
        assert model.assignments[doc.ordinal] == doc.cluster
        assert 0.0 < doc.prob < 1.0
        assert -1.0 <= doc.centroid_sim <= 1.0


def test_select_representatives_deterministic():
    X, model = _fit_fixture(seed=5)
    cfg = PipelineConfig(sample_size=8, seed=9, softmax_temperature=0.7, sample_rounds=4,
                         mmr_lambda=0.3)
    a = select_representatives(X, model, cfg)
    b = select_representatives(X, model, cfg)
    assert [(d.ordinal, d.prob) for d in a] == [(d.ordinal, d.prob) for d in b]
    c = select_representatives(X, model, dataclasses.replace(cfg, seed=10))
    assert [d.ordinal for d in a] != [d.ordinal for d in c]


def test_selected_roundtrip(tmp_path):
    X, model = _fit_fixture(seed=7)
    ids = [f"d{i}" for i in range(len(X))]
    cfg = PipelineConfig(sample_size=6, seed=1)
    selected = select_representatives(X, model, cfg)
    path = tmp_path / "sel.jsonl"
    save_selected(selected, ids, path)
    rows = load_selected(path)
    assert len(rows) == 6
    for row, doc in zip(rows, selected):
        assert row["doc_id"] == f"d{doc.ordinal}"
        assert row["cluster"] == doc.cluster
        assert row["rank_in_cluster"] == doc.rank_in_cluster
        assert row["d_i"] == doc.centroid_sim       # JSON floats round-trip exactly
        assert row["prob"] == doc.prob


def test_load_selected_rejects_bad_lines(tmp_path):
    path = tmp_path / "sel.jsonl"
    path.write_text('{"doc_id": "a", "cluster": 0}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_selected(path)
    assert "line 2" in str(err.value)
    path.write_text('{"cluster": 0}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        load_selected(path)
    path.write_text('{"doc_id": "a", "cluster": 0}\n"doc_id cluster"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: expected a JSON object"):
        load_selected(path)
    path.write_text('{"doc_id": "a", "cluster": 0}\n{"doc_id": {"a": 1}, "cluster": 0}\n',
                    encoding="utf-8")
    with pytest.raises(FormatError, match="line 2: `doc_id` must be a string, not an object"):
        load_selected(path)


def test_sampling_config_validation():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(sample_size=5, softmax_temperature=0.0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(sample_size=5, sample_rounds=0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(sample_size=5, mmr_lambda=1.1)
