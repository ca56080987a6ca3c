"""Training-file emission: TSV triples, pointwise JSONL, and artifact hashes."""

import hashlib
import json

import pytest

from rankforge.corpus import Document
from rankforge.dataset import sanitize_field, sha256_file, write_pointwise, write_triples
from rankforge.errors import DataError
from rankforge.mine import TrainingPair


def _fixture():
    docs = [
        Document(id="p1", title="Title One", text="positive body\twith tab"),
        Document(id="n1", title="", text="negative one\nwith newline"),
        Document(id="n2", title="N2", text="negative two"),
        Document(id="p2", title="", text="second positive"),
    ]
    coll = {d.id: d for d in docs}
    pairs = [
        TrainingPair(query_text="query\twith tab", positive_doc_id="p1",
                     negative_doc_ids=("n1", "n2"), shortfall=False),
        TrainingPair(query_text="plain query", positive_doc_id="p2",
                     negative_doc_ids=("n1",), shortfall=True),
    ]
    return coll, pairs


def test_sanitize_field():
    assert sanitize_field("a\tb\nc\rd") == "a b c d"
    assert sanitize_field("clean") == "clean"


def test_write_triples_rows_and_escaping(tmp_path):
    coll, pairs = _fixture()
    path = tmp_path / "t.tsv"
    rows = write_triples(pairs, coll, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert rows == 3 and len(lines) == 3
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 3            # sanitization keeps exactly 3 cells
    assert lines[0].split("\t")[0] == "query with tab"
    assert lines[0].split("\t")[1] == "Title One positive body with tab"
    assert lines[0].split("\t")[2] == "negative one with newline"
    assert lines[2].split("\t")[0] == "plain query"


def test_write_pointwise_labels(tmp_path):
    coll, pairs = _fixture()
    path = tmp_path / "pw.jsonl"
    records = write_pointwise(pairs, coll, path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert records == len(lines) == 5      # (1 pos + 2 neg) + (1 pos + 1 neg)
    assert [r["label"] for r in lines] == [1, 0, 0, 1, 0]
    assert lines[0]["doc_id"] == "p1" and lines[0]["query"] == "query\twith tab"
    assert lines[1]["doc_id"] == "n1"
    assert lines[3]["doc_id"] == "p2"
    assert "\t" in lines[0]["query"]       # JSONL needs no TSV escaping


def test_unknown_doc_id_raises(tmp_path):
    coll, _ = _fixture()
    pairs = [TrainingPair("q", "ghost", ("n1",), False)]
    with pytest.raises(DataError):
        write_triples(pairs, coll, tmp_path / "x.tsv")
    with pytest.raises(DataError):
        write_pointwise(pairs, coll, tmp_path / "x.jsonl")


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"some bytes \x00\xff" * 1000)
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()

