"""Acceptance gate: every core behavior checked against an independent oracle.

Each test covers one criterion and prints exactly one pass/fail line; the
oracles live in the per-module test files and recompute results from scratch
(exact rational arithmetic, arbitrary-precision floats, brute-force greedy).
"""

import json
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from rankforge import cli, cluster, selection
from rankforge.config import PipelineConfig
from rankforge.corpus import tokenize
from rankforge.embeddings import EmbeddingMatrix
from rankforge.evaluation import Qrels, Run, evaluate, ndcg_at_k, recall_at_k
from rankforge.mine import build_index, mine_negatives
from tests.conftest import blob_matrix, make_collection, write_corpus_jsonl
from tests.test_evaluation import ndcg_oracle, recall_oracle
from tests.test_mine import bm25_oracle, _collection_from_texts
from tests.test_selection import fraction_allocation, fraction_allocation_capped, mmr_oracle


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


def test_c1_stratified_allocation():
    with criterion("1 (stratified allocation, exact vs rational oracle)"):
        rng = random.Random(0)
        start = time.perf_counter()
        for _ in range(1000):
            K = rng.randint(1, 40)
            sizes = [rng.randint(1, 50) for _ in range(K)]
            total = rng.randint(K, sum(sizes))
            alloc = selection.allocate_sizes(sizes, total)
            assert int(alloc.sizes.sum()) == total
            assert all(1 <= int(a) <= c for a, c in zip(alloc.sizes, sizes))
            assert alloc.sizes.tolist() == fraction_allocation_capped(sizes, total)
        for _ in range(100):
            K = rng.randint(1, 20)
            sizes = [rng.randint(30, 60) for _ in range(K)]
            total = rng.randint(K, K * 25)    # caps can never bind here
            alloc = selection.allocate_sizes(sizes, total)
            assert alloc.sizes.tolist() == fraction_allocation(sizes, total)
        assert time.perf_counter() - start < 5.0


def test_c2_softmax_probabilities():
    with criterion("2 (softmax weights vs mpmath, 1e-12)"):
        rng = np.random.default_rng(1)
        with mp.workdps(60):
            for _ in range(100):
                n = int(rng.integers(1, 30))
                values = rng.uniform(-20, 20, size=n)
                temperature = float(rng.uniform(0.05, 5.0))
                got = selection.softmax_probabilities(values, temperature)
                exps = [mp.e ** (mp.mpf(v) / mp.mpf(temperature)) for v in values]
                denom = mp.fsum(exps)
                want = [float(e / denom) for e in exps]
                np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)
                assert abs(float(got.sum()) - 1.0) < 1e-12


def test_c3_mmr_greedy():
    with criterion("3 (greedy diversification vs brute-force oracle)"):
        rng = np.random.default_rng(2)
        for trial in range(200):
            size = int(rng.integers(1, 13))
            pool = sorted(rng.choice(300, size=size, replace=False).tolist())
            sims = rng.uniform(-1, 1, size=size).tolist()
            vecs = rng.normal(size=(301, 4))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]

            def pairwise(a, b):
                return float(vecs[a] @ vecs[b])

            lam = [0.0, 0.25, 0.5, 0.75, 1.0][trial % 5]
            n = int(rng.integers(1, size + 1))
            got = selection.mmr_select(pool, sims, vecs[pool], lam, n)
            assert got == mmr_oracle(pool, sims, pairwise, lam, n)


def test_c4_kmeans_behavior():
    with criterion("4 (k-means: monotone inertia, exact fit, elbow, determinism)"):
        rng = np.random.default_rng(3)
        centers = np.eye(3, 16)
        X = EmbeddingMatrix(data=blob_matrix(rng, centers, per_blob=40, noise=0.05)[0])

        for seed in range(3):
            cfg = PipelineConfig(clusters=5, seed=seed, kmeans_restarts=1)
            model = cluster.kmeans_fit(X, cfg)
            history = model.inertia_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

        small = EmbeddingMatrix(data=rng.normal(size=(8, 6)).astype(np.float32))
        exact = cluster.kmeans_fit(small, PipelineConfig(clusters=8, seed=0))
        assert exact.inertia <= 1e-10

        scan = cluster.elbow_scan(X, [1, 2, 3, 4, 5, 6], PipelineConfig(clusters=1, seed=0))
        assert scan.knee == 3

        cfg = PipelineConfig(clusters=4, seed=9)
        a, b = cluster.kmeans_fit(X, cfg), cluster.kmeans_fit(X, cfg)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)


def test_c5_bm25_scoring():
    with criterion("5 (BM25 vs from-scratch oracle, 1e-6)"):
        index = build_index(_collection_from_texts(["a"]))
        assert abs(float(index.score_all(["a"])[0]) - math.log(4.0 / 3.0)) < 1e-9

        rng = random.Random(4)
        vocab = [f"w{i}" for i in range(40)]
        for _ in range(50):
            n_docs = rng.randint(1, 25)
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 60))) for _ in range(n_docs)]
            index = build_index(_collection_from_texts(texts))
            query = rng.choices(vocab, k=rng.randint(1, 6))
            want = bm25_oracle([tokenize(t) for t in texts], query)
            np.testing.assert_allclose(index.score_all(query), want, atol=1e-6)


def test_c6_negative_mining_invariants():
    with criterion("6 (hard-negative mining invariants, 10k trials)"):
        rng = random.Random(5)
        vocab = [f"t{i}" for i in range(30)]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(3, 30))) for _ in range(60)]
        index = build_index(_collection_from_texts(texts))
        for _ in range(10_000):
            x = rng.randint(2, 12)
            num_neg = rng.randint(1, x - 1)
            cfg = PipelineConfig(first_stage_hits=x, num_negatives=num_neg)
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            positive = rng.randrange(len(texts))
            negatives, shortfall = mine_negatives(index, query, positive, cfg)
            filtered = [o for o, _ in index.search(query, x) if o != positive]
            assert negatives == (filtered[-num_neg:] if filtered else [])
            assert positive not in negatives
            assert shortfall == (len(negatives) < num_neg)


def test_c7_retrieval_metrics():
    with criterion("7 (nDCG@k / recall@k vs explicit-loop oracle, 1e-4)"):
        rng = random.Random(6)
        for _ in range(100):
            n_docs = rng.randint(1, 40)
            ranked = [f"d{i}" for i in range(n_docs)]
            rng.shuffle(ranked)
            run = Run(by_query={"q": [(doc, float(n_docs - i)) for i, doc in enumerate(ranked)]})
            judgments = {f"d{i}": rng.choice([0, 0, 1, 2, -1]) for i in range(n_docs)
                         if rng.random() < 0.7}
            qrels = Qrels(by_query={"q": judgments})
            k = rng.randint(1, 15)
            got = ndcg_at_k(run, qrels, "q", k)
            assert abs(got - ndcg_oracle(ranked, judgments, k)) < 1e-4
            want_recall = recall_oracle(ranked, judgments, k)
            if want_recall is not None:
                assert abs(recall_at_k(run, qrels, "q", k) - want_recall) < 1e-4

        ideal = Run(by_query={"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
        graded = Qrels(by_query={"q": {"a": 3, "b": 2, "c": 1}})
        assert ndcg_at_k(ideal, graded, "q", 3) == pytest.approx(1.0, abs=1e-12)
        miss = Run(by_query={"q": [("x", 9.0), ("y", 8.0)]})
        assert ndcg_at_k(miss, graded, "q", 10) == 0.0
        assert recall_at_k(miss, graded, "q", 10) == 0.0

        qrels = Qrels(by_query={"q": {"a": 1}})
        run = Run(by_query={"q": [("a", 2.0)], "unjudged": [("z", 1.0)]})
        report = evaluate(run, qrels, ndcg_k=10, recall_k=100)
        assert report.evaluated_queries == 1 and report.mean_ndcg == pytest.approx(1.0)


def test_c8_end_to_end_pipeline(tmp_path, monkeypatch):
    with criterion("8 (10k-doc pipeline: runtime, counts, allocation, determinism)"):
        corpus_bytes = write_corpus_jsonl(
            make_collection(10_000, seed=7), tmp_path / "src.jsonl"
        ).read_bytes()
        flags = ["--min-chars", "100", "--hash-embed-dim", "128",
                 "--clusters", "100", "--kmeans-restarts", "1",
                 "--kmeans-max-iters", "50", "--sample-size", "500",
                 "--seed", "42"]

        manifests = []
        for name in ("cwd_a", "cwd_b"):
            home = tmp_path / name
            home.mkdir()
            (home / "corpus.jsonl").write_bytes(corpus_bytes)
            monkeypatch.chdir(home)
            start = time.perf_counter()
            code = cli.main(["run-all", "--input", "corpus.jsonl",
                             "--workdir", "work", "--out", "out"] + flags)
            elapsed = time.perf_counter() - start
            assert code == 0
            if name == "cwd_a":
                assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
            manifests.append((home / "out" / cli.MANIFEST_FILE).read_bytes())
        assert manifests[0] == manifests[1]

        counts = json.loads(manifests[0])["counts"]
        assert counts["documents"] == 10_000
        assert counts["selected"] == 500
        assert counts["queries"] == 500
        assert counts["pairs"] == 500
        assert counts["negatives"] <= 2000
        assert counts["triples"] == counts["negatives"]
        assert counts["pointwise_records"] == counts["pairs"] + counts["negatives"]

        work = tmp_path / "cwd_a" / "work"
        model = cluster.load_model(work / cli.KMEANS_FILE)
        alloc = selection.allocate_sizes(model.cluster_sizes().tolist(), 500)
        by_cluster = Counter(row["cluster"] for row in selection.load_selected(work / cli.SELECTED_FILE))
        assert [by_cluster[k] for k in range(model.K)] == alloc.sizes.tolist()


def test_c9_config_defaults_and_manifest_echo(tmp_path):
    with criterion("9 (documented defaults and exact config echo)"):
        cfg = cli.PipelineConfig()
        assert (cfg.min_chars, cfg.clusters, cfg.sample_size) == (300, 1000, 1000)
        assert (cfg.softmax_temperature, cfg.mmr_lambda, cfg.sample_rounds) == (1.0, 1.0, 5)
        assert (cfg.shots, cfg.decode_temperature) == (3, 0.0)
        assert (cfg.first_stage_hits, cfg.num_negatives) == (100, 4)
        assert (cfg.bm25_k1, cfg.bm25_b, cfg.seed) == (0.9, 0.4, 42)

        corpus = write_corpus_jsonl(make_collection(45, seed=8), tmp_path / "c.jsonl")
        import dataclasses
        overrides = dict(min_chars=50, hash_embed_dim=64, clusters=3, sample_size=9,
                         sample_rounds=3, first_stage_hits=12, num_negatives=2, seed=7)
        argv = ["run-all", "--input", str(corpus), "--workdir", str(tmp_path / "w"),
                "--out", str(tmp_path / "o")]
        for key, value in overrides.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert cli.main(argv) == 0
        echoed = json.loads((tmp_path / "o" / cli.MANIFEST_FILE).read_text())["config"]
        assert echoed == dataclasses.asdict(cli.PipelineConfig(**overrides))
