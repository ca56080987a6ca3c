"""Collection loading, validation, rendering, and length filtering; artifact writing."""

import ast
import json
import random
from pathlib import Path

import pytest

from rankforge import corpus
from rankforge.corpus import (
    Document,
    filter_min_length,
    load_collection,
    load_documents,
    render_document,
    replacing,
    save_collection,
    tokenize,
    tokenize_collection,
)
from rankforge.errors import AlignmentError, DataError, FormatError
from tests.conftest import make_collection


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The QUICK, brown fox!") == ["the", "quick", "brown", "fox"]
    assert tokenize("state-of-the-art (2023)") == ["state", "of", "the", "art", "2023"]
    assert tokenize("snake_case splits") == ["snake", "case", "splits"]
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_keeps_unicode_words():
    assert tokenize("Café déjà vu") == ["café", "déjà", "vu"]
    assert tokenize("naïve café 123") == ["naïve", "café", "123"]


def test_ascii_tokenize_matches_regex_on_every_code_point():
    rng = random.Random(0)
    alphabet = [chr(c) for c in range(128)]
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
        assert tokenize(text) == corpus._TOKEN_RE.findall(text.lower()), repr(text)


def test_load_save_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    docs = [
        {"_id": "a", "title": "T", "text": "first body"},
        {"_id": "b", "text": "no title here"},
        {"_id": "c", "title": "", "text": "unicode caféé ✓"},
    ]
    path.write_text("\n".join(json.dumps(d) for d in docs) + "\n", encoding="utf-8")
    coll = load_collection(path)
    assert list(coll) == ["a", "b", "c"]            # file order
    assert coll["a"].id == "a" and coll["a"].title == "T"
    assert coll["b"].title == ""                    # missing title defaults empty
    assert coll.get("c").id == "c"
    assert coll.get("missing") is None

    out = tmp_path / "copy.jsonl"
    save_collection(coll, out)
    again = load_collection(out)
    assert [d.id for d in again.values()] == ["a", "b", "c"]
    assert again["c"].text == "unicode caféé ✓"


def test_load_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"_id": "a", "text": "ok"}\n{not json}\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_collection(path)
    assert "line 2" in str(err.value)
    path.write_text('{"_id": "a", "text": "ok"}\n\n"_id text"\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 3: expected a JSON object"):
        load_collection(path)
    # Latin-1 "café" on line 2
    path.write_bytes(b'{"_id": "a", "text": "ok"}\n{"_id": "b", "text": "caf\xe9"}\n')
    with pytest.raises(FormatError, match="line 2: .* is not UTF-8 text"):
        load_collection(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"_id": "a", "text": "one"}\n{"_id": "a", "text": "two"}\n', encoding="utf-8"
    )
    with pytest.raises(DataError, match="^duplicate `_id` 'a' at line 2$"):
        load_collection(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"title": "no id", "text": "x"}\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_collection(path)
    assert "line 1" in str(err.value)

    path.write_text('{"_id": "a"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        load_collection(path)


def test_load_rejects_nul_bytes(tmp_path):
    path = tmp_path / "nul.jsonl"
    path.write_text('{"_id": "a", "text": "bad\\u0000byte"}\n', encoding="utf-8")
    with pytest.raises(DataError, match="^line 1: NUL byte in document 'a'$"):
        load_collection(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text('{"_id": "a", "text": "x"}\n\n   \n{"_id": "b", "text": "y"}\n', encoding="utf-8")
    assert len(load_collection(path)) == 2


def test_load_documents_decodes_only_the_lines_of_the_wanted_ids(tmp_path):
    docs = make_collection(6, seed=2)
    ids = list(docs)
    path = tmp_path / "c.jsonl"
    save_collection(docs, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b"not JSON, not UTF-8 \xff\n"        # a line no one asks for is not read
    path.write_bytes(b"".join(lines))
    assert load_documents(path, ids, [ids[4], ids[2], "no-such-id"]) == \
        {doc_id: docs[doc_id] for doc_id in (ids[2], ids[4])}

    for broken, error, message in [
        (lines + [lines[1]], AlignmentError, rf"line 7: {path} has more than 6 lines"),
        (lines[:5], AlignmentError, rf"line 6: missing, {path} ends after 5 of 6 lines"),
        (lines[:2] + [b"\n"] + lines[3:], FormatError, "line 3: invalid JSON"),
        (lines[:2] + lines[3:4] + lines[2:3] + lines[4:], AlignmentError,
         rf"line 3: `_id` '{ids[3]}' is not '{ids[2]}', the id of that line"),
    ]:
        path.write_bytes(b"".join(broken))
        with pytest.raises(error, match=message):
            load_documents(path, ids, [ids[2]])


def test_render_document_joins_title_and_text():
    assert render_document(Document(id="a", title="Hello", text="world")) == "Hello world"
    assert render_document(Document(id="a", title="", text="world")) == "world"


def test_filter_min_length_boundary():
    docs = [
        Document(id="keep", title="", text="x" * 10),
        Document(id="drop", title="", text="x" * 9),
        Document(id="title", title="abcd", text="x" * 5),   # rendered length 10
    ]
    kept = filter_min_length({d.id: d for d in docs}, 10)
    assert [d.id for d in kept.values()] == ["keep", "title"]   # order kept
    assert kept.get("title") is docs[2]


def test_filter_counts_unicode_scalars():
    doc = Document(id="e", title="", text="🙂" * 4)          # 4 scalar values
    coll = {"e": doc}
    assert len(filter_min_length(coll, 4)) == 1
    assert len(filter_min_length(coll, 5)) == 0


def test_tokenize_collection_matches_tokenize():
    docs = [Document(id="a", title="Straße", text="straße Über über"),
            Document(id="b", title="", text="!!! ..."),
            Document(id="c", title="Über", text="new words, über new")]
    tokens = tokenize_collection({d.id: d for d in docs})
    assert tokens.doc_ids == ["a", "b", "c"]
    assert tokens.terms == ["straße", "über", "new", "words"]       # first-seen order
    assert tokens.lengths.tolist() == [len(tokenize(render_document(d))) for d in docs]
    assert tokens.lengths.tolist() == [4, 0, 5]
    ends = tokens.lengths.cumsum()
    for doc, end, length in zip(docs, ends, tokens.lengths):
        ids = tokens.ids[end - length:end]
        assert [tokens.terms[i] for i in ids] == tokenize(render_document(doc))
    assert tokens.ids.dtype == "int32"
    empty = tokenize_collection({})
    assert empty.doc_ids == [] and empty.terms == [] and empty.ids.size == 0 and empty.lengths.size == 0



def test_replacing_writes_whole_or_not_at_all(tmp_path):
    existing = tmp_path / "existing.bin"
    existing.write_bytes(b"old bytes")
    absent = tmp_path / "absent.txt"
    for path, payload in ((existing, b"new"), (absent, "new")):
        with pytest.raises(RuntimeError):
            with replacing(path, binary=path is existing) as fh:
                fh.write(payload)
                raise RuntimeError("fails mid-write")
    assert existing.read_bytes() == b"old bytes"
    assert not absent.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["existing.bin"]

    with replacing(existing) as fh:
        fh.write("café\n")
        assert existing.read_bytes() == b"old bytes"    # replaced only when the block completes
    assert existing.read_bytes() == "café\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["existing.bin"]


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "open":
        # builtin open(file, mode); Path.open(mode); a mode that is not a literal counts as writing
        args = call.args[1:] if isinstance(func, ast.Name) else call.args
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), args[0] if args else None)
        if mode is None:
            return False
        return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))
    if name == "dump":
        return True
    return name in ("write_text", "write_bytes", "tofile")


def test_only_corpus_writes_files():
    # every artifact reaches disk through corpus.replacing, so this decision stays in one module
    package = Path(corpus.__file__).parent
    writers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "corpus.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert writers == []


def test_only_corpus_reads_jsonl_unchecked():
    # other modules read records through corpus.read_records, which checks each field's type
    package = Path(corpus.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "corpus.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        # a name, an attribute or an import of it
        if "read_jsonl" in (getattr(node, "id", None), getattr(node, "attr", None),
                            getattr(node, "name", None))
    ]
    assert readers == []
