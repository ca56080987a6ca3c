"""Embedding file format, alignment checks, and the hash embedder."""

import hashlib
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from rankforge import embeddings
from rankforge.corpus import Document, render_document, tokenize_collection
from rankforge.embeddings import (
    MAGIC,
    embed_collection,
    hash_embed,
    load_aligned,
    load_embeddings,
    load_ids,
    save_embeddings,
)
from rankforge.errors import (
    AlignmentError,
    DegenerateVectorError,
    FormatError,
    InvalidConfigError,
    SizeMismatchError,
    ValidationError,
)
from tests.conftest import child_pythonpath, make_collection


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "e.bin"
    save_embeddings(data, path, ids=[f"d{i}" for i in range(7)])
    loaded = load_embeddings(path)
    assert loaded.shape == (7, 5)
    np.testing.assert_array_equal(loaded, data)
    assert loaded.flags.writeable
    assert load_ids(str(path) + ".ids") == [f"d{i}" for i in range(7)]

    # an id list of the wrong length is refused before either file is touched
    with pytest.raises(SizeMismatchError):
        save_embeddings(data[:3], path, ids=[f"d{i}" for i in range(7)])
    np.testing.assert_array_equal(load_embeddings(path), data)


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.normal(size=(4, 3)).astype(np.float32)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_embeddings(data, a)
    save_embeddings(data, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:8] == MAGIC


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 12)
    with pytest.raises(FormatError):
        load_embeddings(path)
    path.write_bytes(MAGIC + b"\x00" * 11)                  # one byte short of a header
    with pytest.raises(FormatError, match="too short for header"):
        load_embeddings(path)
    path.write_bytes(struct.pack("<8sQI", MAGIC, 0, 0))
    with pytest.raises(FormatError, match="dimension must be >= 1"):
        load_embeddings(path)


def test_load_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.bin"
    header = struct.pack("<8sQI", MAGIC, 3, 4)           # declares 3x4 floats
    path.write_bytes(header + b"\x00" * (3 * 4 * 4 - 4))  # one float short
    with pytest.raises(SizeMismatchError):
        load_embeddings(path)


def test_load_rejects_nonfinite_rows(tmp_path):
    data = np.ones((3, 2), dtype=np.float32)
    data[1, 0] = np.nan
    path = tmp_path / "nan.bin"
    save_embeddings(np.ones((3, 2), dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    offset = struct.calcsize("<8sQI") + 2 * 4            # row 1, column 0
    blob[offset:offset + 4] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError) as err:
        load_embeddings(path)
    assert "row 1" in str(err.value)


def test_load_aligned_without_a_sidecar(tmp_path):
    ids = list(make_collection(5))
    data = np.arange(15, dtype=np.float32).reshape(5, 3)
    save_embeddings(data, tmp_path / "five.bin")
    np.testing.assert_array_equal(load_aligned(tmp_path / "five.bin", ids), data)
    save_embeddings(data[:4], tmp_path / "four.bin")
    with pytest.raises(AlignmentError, match=r"embedding rows \(4\) != collection size \(5\)"):
        load_aligned(tmp_path / "four.bin", ids)


def _assert_stage_array(rows, n, d):
    assert type(rows) is np.ndarray and rows.shape == (n, d)
    assert rows.dtype == np.float32 and rows.flags.c_contiguous


def test_producers_return_the_array_that_stages_read(tmp_path):
    coll = make_collection(12, seed=2)
    rows = embed_collection(tokenize_collection(coll), 16, seed=4)
    _assert_stage_array(rows, 12, 16)
    path = tmp_path / "e.bin"
    save_embeddings(rows, path)
    _assert_stage_array(load_embeddings(path), 12, 16)
    ids = list(coll)
    _assert_stage_array(load_aligned(path, ids), 12, 16)
    save_embeddings(rows, path, ids=ids)
    reordered = load_aligned(path, ids[::-1][:5])       # through the sidecar: a gather
    _assert_stage_array(reordered, 5, 16)
    np.testing.assert_array_equal(reordered, rows[::-1][:5])


def test_hash_embed_is_unit_norm_and_seeded():
    a = hash_embed("the quick brown fox", 32, seed=1)
    b = hash_embed("the quick brown fox", 32, seed=1)
    c = hash_embed("the quick brown fox", 32, seed=2)
    assert a.dtype == np.float32
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-6
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hash_embed_rejects_tiny_dim_and_empty_text():
    with pytest.raises(InvalidConfigError):
        hash_embed("words", 4, seed=0)
    with pytest.raises(DegenerateVectorError):
        hash_embed("!!! ...", 16, seed=0)


def test_hash_embed_bytes_are_pinned():
    # fixed outputs of the blake2b bucket/sign hashing; any change to it moves every artifact
    one = hash_embed("alpha beta gamma delta Straße 東京", 32, seed=5).tobytes()
    assert hashlib.sha256(one).hexdigest() == (
        "56e0d28b345584a6e059bfd32d7298addfe311384f14370e244da73c88164616")
    tokens = tokenize_collection(make_collection(50, seed=3))
    rows = embed_collection(tokens, 64, seed=9).tobytes()
    assert hashlib.sha256(rows).hexdigest() == (
        "4bd4b5327399373ad134cdfd21aa7ceae1aac265d8843e329b440f7b159624ba")


def test_term_hasher_matches_one_shot_keyed_blake2b():
    rng = random.Random(17)
    alphabet = [chr(c) for c in (*range(0x30, 0x7b), *range(0xc0, 0x250), *range(0x4e00, 0x4e80),
                                 *range(0x1f600, 0x1f650))]
    tokens = ["".join(rng.choices(alphabet, k=rng.randint(1, 40))) for _ in range(300)]
    for seed in (0, 42, (1 << 64) - 1, (1 << 64) + 42, 1 << 70):
        key = struct.pack("<Q", seed % (1 << 64))
        bucket_and_sign = embeddings._term_hasher(97, seed)
        for token in tokens:
            bucket, sign = (int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                                                           key=key, person=person).digest(),
                                           "little") for person in (b"bucket", b"sign"))
            assert bucket_and_sign(token) == (bucket % 97, 1.0 if sign & 1 else -1.0), (seed, token)


def test_hash_embed_stable_across_processes():
    # guards against accidental reliance on Python's per-process hash salt
    code = (
        "from rankforge.embeddings import hash_embed;"
        "print(hash_embed('alpha beta gamma delta', 32, seed=5).tobytes().hex())"
    )
    outs = set()
    for hash_seed in ("0", "12345"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": child_pythonpath()},
        )
        outs.add(out.stdout.strip())
    assert len(outs) == 1
    assert outs.pop() == hash_embed("alpha beta gamma delta", 32, seed=5).tobytes().hex()


def test_embed_collection_rows_follow_order():
    coll = make_collection(6, seed=1)
    matrix = embed_collection(tokenize_collection(coll), 32, seed=3)
    assert matrix.shape == (6, 32)
    for i, doc in enumerate(coll.values()):
        np.testing.assert_array_equal(matrix[i], hash_embed(render_document(doc), 32, seed=3))


def _collection(texts):
    docs = [Document(id=f"d{i}", title="", text=t) for i, t in enumerate(texts)]
    return {d.id: d for d in docs}


def _assert_matches_per_document(coll, d, seed, monkeypatch):
    want = np.stack([hash_embed(render_document(doc), d, seed) for doc in coll.values()]).tobytes()
    assert embed_collection(tokenize_collection(coll), d, seed).tobytes() == want
    for rows_per_block in (7, 1):
        with monkeypatch.context() as patch:
            patch.setattr(embeddings, "_BLOCK_BYTES", rows_per_block * 8 * d)
            assert embed_collection(tokenize_collection(coll), d, seed).tobytes() == want


def test_embed_collection_bytes_match_hash_embed(monkeypatch):
    coll = make_collection(300, seed=5)
    for d, seed in ((8, 0), (64, 7), (256, 42)):
        _assert_matches_per_document(coll, d, seed, monkeypatch)


def test_embed_collection_bytes_match_hash_embed_on_unicode(monkeypatch):
    texts = [
        "Ünïcödé Straße naïve café, ÜNÏCÖDÉ straße",
        "東京 タワー 東京 の 夜景",
        "Ελληνικά κείμενα και ελληνικά",
        "emoji 🚀 rocket ROCKET  mixed_under_score über",
        "Ǆ ǅ ǆ titlecase İstanbul ıi",
    ]
    _assert_matches_per_document(_collection(texts), 16, 11, monkeypatch)


def _cancelling_pair(d, seed):
    """Two tokens that land in the same bucket with opposite signs."""
    seen = {}
    for i in range(1000):
        token = f"t{i}"
        one_hot = hash_embed(token, d, seed)          # +/-1 in the token's bucket
        bucket = int(np.flatnonzero(one_hot)[0])
        sign = float(one_hot[bucket])
        other = seen.get((bucket, -sign))
        if other is not None:
            return other, token
        seen[(bucket, sign)] = token
    raise AssertionError("no cancelling pair found")


def test_embed_collection_rejects_degenerate_documents(monkeypatch):
    with pytest.raises(InvalidConfigError):
        embed_collection(tokenize_collection(_collection(["words"])), 4, seed=0)
    a, b = _cancelling_pair(16, seed=0)
    with pytest.raises(DegenerateVectorError):
        hash_embed(f"{a} {b}", 16, seed=0)
    texts = ["fine words", "more words", "!!! ...", f"{a} {b}"]
    for rows_per_block in (1000, 2, 1):       # one block, then the bad rows in later blocks
        monkeypatch.setattr(embeddings, "_BLOCK_BYTES", rows_per_block * 8 * 16)
        with pytest.raises(DegenerateVectorError, match="'d2' has no tokens"):
            embed_collection(tokenize_collection(_collection(texts)), 16, seed=0)
        with pytest.raises(DegenerateVectorError, match="'d1' has tokens that cancel"):
            embed_collection(tokenize_collection(_collection([texts[0], texts[3], texts[2]])), 16,
                             seed=0)
