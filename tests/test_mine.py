"""BM25 scoring against an independent oracle, negative mining, index format."""

import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rankforge import mine
from rankforge.config import PipelineConfig
from rankforge.corpus import (Document, TokenizedCollection, render_document, tokenize,
                             tokenize_collection)
from rankforge.embeddings import embed_collection
from rankforge.errors import AlignmentError, DataError, FormatError
from rankforge.mine import (
    Bm25Index,
    TrainingPair,
    assemble_pairs,
    build_index,
    load_index,
    load_pairs,
    mine_negatives,
    save_index,
    save_pairs,
)
from rankforge.querygen import SyntheticQuery
from tests.conftest import TOPIC_VOCAB, make_collection


# ---------------------------------------------------------------- the oracle

def bm25_oracle(doc_token_lists, query_tokens, k1=0.9, b=0.4):
    """From-scratch BM25 with plain dicts; one score per document."""
    n = len(doc_token_lists)
    lengths = [len(toks) for toks in doc_token_lists]
    avgdl = sum(lengths) / n
    df = Counter()
    for toks in doc_token_lists:
        for term in set(toks):
            df[term] += 1
    scores = []
    for toks, dl in zip(doc_token_lists, lengths):
        tf = Counter(toks)
        s = 0.0
        for term in query_tokens:
            if tf[term] == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            t = tf[term]
            s += idf * (t * (k1 + 1.0)) / (t + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(s)
    return scores


def _collection_from_texts(texts):
    """The token stream of one untitled document per text, with ids d0, d1, ..."""
    docs = [Document(id=f"d{i}", title="", text=t) for i, t in enumerate(texts)]
    return tokenize_collection({d.id: d for d in docs})


def test_single_doc_closed_form():
    index = build_index(_collection_from_texts(["a"]))
    score = float(index.score_all(["a"])[0])
    assert abs(score - math.log(4.0 / 3.0)) < 1e-9


def test_scores_match_oracle_on_random_corpora():
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(40)]
    for trial in range(50):
        n_docs = rng.randint(1, 25)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 60))) for _ in range(n_docs)]
        coll = _collection_from_texts(texts)
        index = build_index(coll)
        query = rng.choices(vocab, k=rng.randint(1, 6))
        got = index.score_all(query)
        want = bm25_oracle([tokenize(t) for t in texts], query)
        np.testing.assert_allclose(got, want, atol=1e-6, err_msg=f"trial {trial}")


def test_repeated_query_terms_add_per_occurrence():
    index = build_index(_collection_from_texts(["apple banana", "apple apple"]))
    single = index.score_all(["apple"])
    double = index.score_all(["apple", "apple"])
    np.testing.assert_allclose(double, 2.0 * single, atol=1e-12)


def test_cached_term_weights_keep_score_bits():
    # the reference adds each query term's weights into the scores in query order
    coll = make_collection(60, seed=5)

    def uncached(index, query):
        scores = np.zeros(index.n_docs)
        for term in query:
            if term not in index.terms:
                continue
            t = index.terms.index(term)
            lo, hi = int(index.indptr[t]), int(index.indptr[t + 1])
            df = hi - lo
            idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
            tf = index.tfs[lo:hi].astype(np.float64)
            ords = index.ords[lo:hi]
            norm = index.k1 * (1.0 - index.b + index.b * index.doc_lengths[ords] / index.avgdl)
            scores[ords] += idf * tf * (index.k1 + 1.0) / (tf + norm)
        return scores

    index = build_index(tokenize_collection(coll))
    small = build_index(_collection_from_texts(["beta delta", "delta foxtrot foxtrot", "beta"]))
    assert small.terms == ["beta", "delta", "foxtrot"]
    # tokens before the first term, after the last and between two terms, then the edge terms
    cases = [(index, q) for q in (["game", "orbit", "game", "salt", "unknown"],
                                  ["orbit", "orbit", "space"], ["unknown"], [])]
    cases += [(small, q) for q in (["alpha"], ["golf"], ["charlie", "echo"],
                                   ["alpha", "beta", "charlie", "foxtrot", "golf"], [])]
    for idx, query in cases:
        want = uncached(idx, query).tobytes()
        assert idx.score_all(query).tobytes() == want     # fills the weights
        assert idx.score_all(query).tobytes() == want     # reads them back


def test_score_all_holds_one_score_vector():
    index = build_index(tokenize_collection(make_collection(3000, seed=5)))
    query = tokenize("what is known about game team player season score win orbit")
    known = [index.terms.index(term) for term in query if term in index.terms]
    assert known
    longest = max(int(index.indptr[t + 1] - index.indptr[t]) for t in known)
    index.score_all(query)                              # fills the weight cache
    tracemalloc.start()
    try:
        index.score_all(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the score vector, one intp copy of the longest posting list, and slack
    assert peak <= 8 * index.n_docs + 8 * longest + 8192


def test_index_uses_rendered_title_and_text():
    docs = [Document(id="a", title="zebra title", text="body words here"),
            Document(id="b", title="", text="plain body")]
    coll = {"a": docs[0], "b": docs[1]}
    index = build_index(tokenize_collection(coll))
    assert index.doc_lengths[0] == len(tokenize(render_document(docs[0])))
    assert float(index.score_all(["zebra"])[0]) > 0.0
    assert float(index.score_all(["zebra"])[1]) == 0.0


def test_search_orders_and_truncates():
    texts = ["cat cat cat", "cat cat", "cat", "dog"]
    index = build_index(_collection_from_texts(texts))
    hits = index.search("cat", 10)
    assert [h[0] for h in hits] == [0, 1, 2]          # score descending
    assert all(s > 0 for _, s in hits)
    assert [h[0] for h in index.search("cat", 2)] == [0, 1]
    assert index.search("unseen", 5) == []


def test_search_tie_break_by_ordinal():
    texts = ["same text here", "same text here", "same text here"]
    index = build_index(_collection_from_texts(texts))
    hits = index.search("same", 3)
    assert [h[0] for h in hits] == [0, 1, 2]
    assert len({round(s, 12) for _, s in hits}) == 1


def _full_sort_top_k(scores, k):
    hits = np.flatnonzero(scores > 0.0)
    order = hits[np.lexsort((hits, -scores[hits]))]
    return [(int(o), float(scores[o])) for o in order[:k]]


def test_search_top_k_matches_full_sort_with_ties():
    index = build_index(_collection_from_texts(["x"] * 40))
    rng = np.random.default_rng(0)
    for trial in range(500):
        # one to five distinct values (zero in some trials), so ties straddle the k-th place
        n_values = int(rng.integers(1, 6))
        values = rng.choice([0.0, 0.5, 1.0, 1.25, 3.0], size=n_values, replace=False)
        scores = rng.choice(values, size=40)
        index.score_all = lambda tokens, s=scores: s
        for k in (1, 2, 3, int(rng.integers(1, 45))):
            assert index.search("x", k) == _full_sort_top_k(scores, k), (trial, k)


def test_search_matches_full_sort_on_a_corpus():
    coll = make_collection(200, seed=6)
    index = build_index(tokenize_collection(coll))
    rng = random.Random(3)
    words = [w for topic in TOPIC_VOCAB.values() for w in topic]
    for _ in range(200):
        query = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        k = rng.randint(1, 120)
        assert index.search(query, k) == _full_sort_top_k(index.score_all(tokenize(query)), k)


def test_index_and_embedding_read_only_the_token_stream(tmp_path):
    # a stream built by hand, with no documents and its own term ids, gives the bytes
    # of the stream that tokenize_collection reads from the matching documents
    by_hand = TokenizedCollection(
        doc_ids=["x", "y", "z"], terms=["blue", "fish", "one", "red", "sky"],
        ids=np.array([3, 1, 0, 1, 2, 1, 0, 4, 3, 4], dtype=np.int32),
        lengths=np.array([4, 2, 4], dtype=np.int64))
    texts = ["Red fish, blue fish", "one fish", "blue sky red sky"]
    docs = {i: Document(id=i, title="", text=t) for i, t in zip(by_hand.doc_ids, texts)}
    from_docs = tokenize_collection(docs)
    assert from_docs.terms != by_hand.terms                 # first-seen order differs
    for name, tokens in (("hand", by_hand), ("docs", from_docs)):
        save_index(build_index(tokens), tokens.doc_ids, tmp_path / f"{name}.idx")
    assert (tmp_path / "hand.idx").read_bytes() == (tmp_path / "docs.idx").read_bytes()
    for d, seed in ((8, 0), (32, 5)):
        assert (embed_collection(by_hand, d, seed).tobytes()
                == embed_collection(from_docs, d, seed).tobytes())


# ------------------------------------------------------------------- mining

def _ranked_fixture():
    # doc0 is the clear best match; the rest matched progressively less
    texts = [
        "quantum computer quantum computer quantum computer",
        "quantum computer quantum computer filler filler",
        "quantum computer filler filler filler filler",
        "quantum filler filler filler filler filler",
        "computer filler filler filler filler filler",
        "totally unrelated words about gardening roses",
    ]
    return _collection_from_texts(texts)


def test_mine_negatives_takes_tail_of_candidates():
    coll = _ranked_fixture()
    index = build_index(coll)
    cfg = PipelineConfig(first_stage_hits=10, num_negatives=2)
    hits = [o for o, _ in index.search("quantum computer", 10)]
    assert hits[0] == 0
    negatives, shortfall = mine_negatives(index, "quantum computer", 0, cfg)
    assert negatives == [o for o in hits if o != 0][-2:]
    assert not shortfall
    assert 0 not in negatives


def test_mine_negatives_flags_shortfall():
    coll = _collection_from_texts(["alpha beta", "alpha gamma"])
    index = build_index(coll)
    cfg = PipelineConfig(first_stage_hits=10, num_negatives=4)
    negatives, shortfall = mine_negatives(index, "alpha", 0, cfg)
    assert negatives == [1]
    assert shortfall
    negatives, shortfall = mine_negatives(index, "zzz", 0, cfg)
    assert negatives == [] and shortfall


def test_mine_negatives_invariants_bulk():
    rng = random.Random(1)
    vocab = [f"t{i}" for i in range(30)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(3, 30))) for _ in range(60)]
    coll = _collection_from_texts(texts)
    index = build_index(coll)
    trials = 10_000
    for trial in range(trials):
        x = rng.randint(2, 12)
        num_neg = rng.randint(1, x - 1)
        cfg = PipelineConfig(first_stage_hits=x, num_negatives=num_neg)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        positive = rng.randrange(len(texts))
        negatives, shortfall = mine_negatives(index, query, positive, cfg)
        hit_ordinals = [o for o, _ in index.search(query, x)]
        filtered = [o for o in hit_ordinals if o != positive]
        assert negatives == (filtered[-num_neg:] if filtered else [])
        assert positive not in negatives
        assert len(negatives) <= num_neg
        assert shortfall == (len(negatives) < num_neg)
        assert len(set(negatives)) == len(negatives)


def test_mining_config_validation():
    with pytest.raises(DataError, match="^first_stage_hits must be >= 2, got 1$"):
        PipelineConfig(first_stage_hits=1, num_negatives=1)
    with pytest.raises(DataError, match="^num_negatives must be >= 1, got 0$"):
        PipelineConfig(first_stage_hits=10, num_negatives=0)
    with pytest.raises(DataError, match=r"^num_negatives must be < first_stage_hits \(10\)"):
        PipelineConfig(first_stage_hits=10, num_negatives=10)
    PipelineConfig()                               # defaults are valid


def test_assemble_pairs_order_and_unknown_id():
    coll = _ranked_fixture()
    index = build_index(coll)
    queries = [
        SyntheticQuery(doc_id="d1", query_text="quantum computer", raw_completion="", model_name="m"),
        SyntheticQuery(doc_id="d0", query_text="quantum", raw_completion="", model_name="m"),
    ]
    cfg = PipelineConfig(first_stage_hits=5, num_negatives=2)
    pairs = assemble_pairs(index, coll.doc_ids, queries, cfg)
    assert [p.positive_doc_id for p in pairs] == ["d1", "d0"]
    assert all(p.positive_doc_id not in p.negative_doc_ids for p in pairs)
    bad = [SyntheticQuery(doc_id="nope", query_text="q", raw_completion="", model_name="m")]
    with pytest.raises(DataError):
        assemble_pairs(index, coll.doc_ids, bad, PipelineConfig())


def test_assemble_pairs_maps_only_the_queried_ids():
    # 200,000 documents, all holding "common" and every 50th "rare" too: an id ->
    # ordinal dict of the whole collection alone takes about 10 MiB
    n = 200_000
    rare = np.arange(0, n, 50, dtype=np.uint32)
    lengths = np.ones(n, dtype=np.uint32)
    lengths[rare] = 2
    index = Bm25Index(lengths, ["common", "rare"], np.array([0, n, n + rare.size]),
                      np.concatenate((np.arange(n, dtype=np.uint32), rare)),
                      np.ones(n + rare.size, dtype=np.uint32))
    ids = [f"doc-{i:06d}" for i in range(n)]
    queries = [SyntheticQuery(doc_id=ids[o], query_text=text, raw_completion="", model_name="m")
               for o, text in ((100, "rare common"), (7, "common"), (n - 50, "rare"))]
    tracemalloc.start()
    try:
        pairs = assemble_pairs(index, ids, queries, PipelineConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.positive_doc_id for p in pairs] == [q.doc_id for q in queries]
    assert all(p.negative_doc_ids and not p.shortfall for p in pairs)
    # a few float64 score, weight and hit arrays of n values, 1.5 MiB each
    assert peak < 10 << 20, f"peak {peak} bytes"


# --------------------------------------------------------------- file format

def _index_fields(index):
    return dict(doc_lengths=index.doc_lengths, terms=index.terms,
                indptr=index.indptr, ords=index.ords, tfs=index.tfs)


def test_csr_postings_match_counter_reference(monkeypatch):
    coll = make_collection(30, seed=3)
    reference: dict[str, list[tuple[int, int]]] = {}
    for ordinal, doc in enumerate(coll.values()):
        for term, tf in Counter(tokenize(render_document(doc))).items():
            reference.setdefault(term, []).append((ordinal, tf))
    for block_tokens in (mine._BLOCK_TOKENS, 150, 1):     # ordinals added in 1, 15 and 30 blocks
        monkeypatch.setattr(mine, "_BLOCK_TOKENS", block_tokens)
        index = build_index(tokenize_collection(coll))
        assert index.terms == sorted(reference)
        for t, term in enumerate(index.terms):
            lo, hi = index.indptr[t], index.indptr[t + 1]
            postings = list(zip(index.ords[lo:hi].tolist(), index.tfs[lo:hi].tolist()))
            assert postings == reference[term]


def test_index_roundtrip_and_byte_stability(tmp_path):
    base = make_collection(20, seed=4)
    docs = [Document(id=f"dök{i} ✓" if i % 2 else doc.id, title=doc.title, text=doc.text)
            for i, doc in enumerate(base.values())]
    coll = {d.id: d for d in docs}
    ids = [d.id for d in docs]
    index = build_index(tokenize_collection(coll))
    path_a = tmp_path / "a.idx"
    save_index(index, ids, path_a)
    loaded = load_index(path_a, ids, k1=1.1, b=0.3)
    assert loaded.k1 == 1.1 and loaded.b == 0.3
    assert loaded.terms == index.terms
    for name in ("doc_lengths", "indptr", "ords", "tfs"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(index, name), err_msg=name)

    path_b = tmp_path / "b.idx"
    save_index(loaded, ids, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    # scoring equivalence after the roundtrip, and k1/b taken at load
    query = ["game", "recipe", "orbit", "game"]
    np.testing.assert_array_equal(load_index(path_a, ids).score_all(query),
                                  index.score_all(query))
    want = bm25_oracle([tokenize(render_document(d)) for d in docs], query, k1=1.1, b=0.3)
    np.testing.assert_allclose(loaded.score_all(query), want, atol=1e-6)


def _saved_variant(tmp_path, index, ids, name, **fields):
    path = tmp_path / f"{name}.idx"
    save_index(Bm25Index(**{**_index_fields(index), **fields}), ids, path)
    return path


def test_index_load_rejects_corruption(tmp_path):
    coll = make_collection(5, seed=2)
    ids = list(coll)
    index = build_index(tokenize_collection(coll))
    path = tmp_path / "i.idx"
    save_index(index, ids, path)
    blob = path.read_bytes()

    def rejects(data: bytes, error: type, match: str, name: str):
        bad = tmp_path / f"{name}.idx"
        bad.write_bytes(data)
        with pytest.raises(error, match=match):
            load_index(bad, ids)

    rejects(blob[:20], FormatError, "too short for header", "header")
    rejects(b"WRONGMAG" + blob[8:], FormatError, "bad magic", "magic")
    rejects(blob[:-3], FormatError, "payload bytes, found", "short")
    rejects(blob + b"\x00\x00", FormatError, "payload bytes, found", "long")
    table = mine._HEADER.size                           # the term table follows the header
    rejects(blob[:table] + b"\xff" + blob[table + 1:], FormatError, "not UTF-8", "utf8")
    first_break = blob.index(b"\n", table)
    rejects(blob[:first_break] + b"x" + blob[first_break + 1:], FormatError,
            f"does not hold {len(index.terms)} lines", "lines")
    swapped = list(ids)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for doc_ids in (swapped, ids[:-1], ids + ["extra"]):
        with pytest.raises(AlignmentError, match="does not index the given document ids"):
            load_index(path, doc_ids)

    def variant_rejects(match: str, name: str, **fields):
        with pytest.raises(FormatError, match=match):
            load_index(_saved_variant(tmp_path, index, ids, name, **fields), ids)

    terms = list(index.terms)
    terms[1], terms[2] = terms[2], terms[1]
    variant_rejects("terms out of order", "terms", terms=terms)

    indptr = index.indptr.copy()
    indptr[1], indptr[2] = indptr[2], indptr[1]
    variant_rejects("strictly increase", "monotone", indptr=indptr)

    variant_rejects("expected", "nnz", ords=index.ords[:-1], tfs=index.tfs[:-1])

    ords = index.ords.copy()
    ords[-1] = len(coll)
    variant_rejects("out of range", "range", ords=ords)

    tfs = index.tfs.copy()
    tfs[0] = 0
    variant_rejects("term frequency", "tf0", tfs=tfs)

    t = int(np.flatnonzero(np.diff(index.indptr) >= 2)[0])   # a term in two documents
    ords = index.ords.copy()
    lo = index.indptr[t]
    ords[lo], ords[lo + 1] = ords[lo + 1], ords[lo]
    variant_rejects("postings out of order", "order", ords=ords)

    variant_rejects("not its tf sum", "len0", doc_lengths=np.zeros_like(index.doc_lengths))
    doc_lengths = index.doc_lengths.copy()
    doc_lengths[-1] += 1
    variant_rejects("document 4's length is not its tf sum", "len1", doc_lengths=doc_lengths)


def test_index_load_checks_lengths_without_postings_sized_copies(tmp_path, monkeypatch):
    n_docs, n_terms = 1000, 100                     # every term in every document
    nnz = n_docs * n_terms
    ids = [f"d{i}" for i in range(n_docs)]
    index = Bm25Index(np.full(n_docs, 2 * n_terms),
                      [f"t{t:03d}" for t in range(n_terms)], np.arange(0, nnz + 1, n_docs),
                      np.tile(np.arange(n_docs, dtype=np.uint32), n_terms),
                      np.full(nnz, 2, dtype=np.uint32))
    path = tmp_path / "i.idx"
    save_index(index, ids, path)
    monkeypatch.setattr(mine, "_BLOCK_TOKENS", 4096)
    tracemalloc.start()
    try:
        loaded = load_index(path, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.doc_lengths.tolist() == index.doc_lengths.tolist()
    # the loaded u32 ords and tfs, one order flag per posting, one block's 8-byte
    # casts, the per-document arrays and slack; 8-byte copies of every posting exceed it
    bound = nnz * (4 + 4 + 1) + 4096 * 16 + n_docs * 8 * 4 + 65536
    assert peak < bound < nnz * (4 + 4 + 1 + 8)


def test_pairs_roundtrip(tmp_path):
    pairs = [
        TrainingPair(query_text="q one", positive_doc_id="a",
                     negative_doc_ids=("b", "c"), shortfall=False),
        TrainingPair(query_text="q two", positive_doc_id="d",
                     negative_doc_ids=(), shortfall=True),
    ]
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs

    path.write_text('{"query": "x"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        load_pairs(path)
    path.write_text('"query positive_doc_id negative_doc_ids shortfall"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 1: expected a JSON object"):
        load_pairs(path)
    good = '{"query": "q", "positive_doc_id": "a", "negative_doc_ids": ["b"], "shortfall": false}'
    for field, value, match in [("query", "5", "must be a string, not an integer"),
                                ("positive_doc_id", "null", "must be a string, not null"),
                                ("negative_doc_ids", "[1]", "must hold strings only"),
                                ("negative_doc_ids", "7", "must be a list, not an integer")]:
        bad = json.loads(good)
        bad[field] = json.loads(value)
        path.write_text(good + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"line 2: `{field}` {match}"):
            load_pairs(path)
