"""Ingest, validate, filter, and render the target document collection.

Corpus files are JSONL in the BEIR convention: one object per line with
a string or integer `_id`, a string `text` and an optional string `title`.
A loaded collection is a ``dict`` from id to ``Document``, in file order.
``load_documents`` decodes only the lines of the documents a stage needs.
Every artifact is written whole through ``replacing``, every JSONL record
is read through ``read_records``, and ``read_header`` checks binary headers.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import struct
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (IO, TYPE_CHECKING, BinaryIO, Callable, Collection, Iterable, Iterator,
                    NamedTuple, Sequence)

from .errors import AlignmentError, DataError, FormatError

if TYPE_CHECKING:
    import numpy as np

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII text: A-Z fold to lower case, every other non-alphanumeric becomes a space
_ASCII_FOLD = str.maketrans({c: c.lower() if c.isalnum() else " " for c in map(chr, range(128))})
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "an object", type(None): "null"}
_DOC_FIELDS = {"_id": (str, int), "text": (str,), "title": (str, type(None))}


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    if text.isascii():
        return text.translate(_ASCII_FOLD).split()
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    id: str
    title: str
    text: str


def _decode(raw: bytes, path: str | Path, line_number: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason})", line_number) from None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of a UTF-8 text file; lines end at ``\\n``."""
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            yield line_number, _decode(raw, path, line_number)


def read_text(path: str | Path) -> str:
    """The whole of a UTF-8 text file, decoded at once."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason})", line_number) from None


def encode_lines(lines: Iterable[str]) -> bytes:
    """Each string in UTF-8, then ``\\n``: the bytes of a text file of those lines."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def read_jsonl(path: str | Path, lines: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a JSONL file.

    ``lines``, when given, holds one flag per line of the file: only lines
    whose flag is set are decoded, and each of them must hold an object. A
    file with more or fewer lines than flags raises ``AlignmentError``.
    """
    line_number = 0
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            if lines is not None:
                if line_number > len(lines):
                    raise AlignmentError(f"line {line_number}: {path} has more than "
                                         f"{len(lines)} lines")
                if not lines[line_number - 1]:
                    continue
            line = _decode(raw, path, line_number)
            if lines is None and not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", line_number) from exc
            if not isinstance(obj, dict):
                raise FormatError("expected a JSON object", line_number)
            yield line_number, obj
    if lines is not None and line_number < len(lines):
        raise AlignmentError(f"line {line_number + 1}: missing, {path} ends after "
                             f"{line_number} of {len(lines)} lines")


def read_records(path: str | Path, fields: dict[str, tuple[type, ...]],
                 lines: bytes | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each JSONL record whose fields have their types.

    ``fields`` maps a field to its exact JSON types, so ``true`` is no integer.
    A field that may be None may also be absent. ``lines`` picks the lines to
    decode, as in ``read_jsonl``.
    """
    checks = tuple(fields.items())
    for line_number, obj in read_jsonl(path, lines):
        for name, types in checks:
            if type(obj.get(name)) not in types:
                if name not in obj:
                    raise FormatError(f"`{name}` is missing", line_number)
                wanted = " or ".join(map(_JSON_NAMES.get, types))
                got = _JSON_NAMES[type(obj[name])]
                raise FormatError(f"`{name}` must be {wanted}, not {got}", line_number)
        yield line_number, obj


def read_header(fh: BinaryIO, layout: struct.Struct, magic: bytes,
                payload_bytes: Callable[..., int]) -> list:
    """Check the header at the start of a binary file; returns its fields after the magic.

    The header must be whole and start with ``magic``, and the file must hold
    exactly ``payload_bytes(*fields)`` bytes after it; otherwise ``FormatError``.
    """
    header = fh.read(layout.size)
    if len(header) < layout.size:
        raise FormatError(f"{fh.name}: file too short for header")
    found, *fields = layout.unpack(header)
    if found != magic:
        raise FormatError(f"{fh.name}: bad magic {found!r}, expected {magic!r}")
    expected = payload_bytes(*fields)
    size = os.fstat(fh.fileno()).st_size - layout.size
    if size != expected:
        raise FormatError(f"{fh.name}: header needs {expected} payload bytes, found {size}")
    return fields


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write ``path`` whole or not at all, through a temp file in the same directory.

    Text mode is UTF-8 with ``\\n`` line ends. The temp file replaces ``path``
    when the block completes and is deleted if the block raises. There is no
    fsync: this guards against a process that fails or dies, not power loss.
    """
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict], **dumps) -> int:
    """Write one ``json.dumps(record, **dumps)`` line per record; returns the count."""
    # json.dumps builds a new encoder per call whenever it is given options
    encode = json.JSONEncoder(**dumps).encode
    count = 0
    with replacing(path) as fh:
        for record in records:
            fh.write(encode(record) + "\n")
            count += 1
    return count


def write_json(path: str | Path, obj: object, **dumps) -> None:
    """Write ``json.dumps(obj, **dumps)`` and a final newline."""
    with replacing(path) as fh:
        fh.write(json.dumps(obj, **dumps) + "\n")


def _document(obj: dict, line_number: int) -> Document:
    """The Document of a record that ``read_records`` checked against ``_DOC_FIELDS``."""
    doc_id, text, title = obj["_id"], obj["text"], obj.get("title") or ""
    if type(doc_id) is int:
        doc_id = str(doc_id)
    if not doc_id:
        raise FormatError("`_id` is empty", line_number)
    if doc_id.splitlines() != [doc_id]:
        # the embeddings `.ids` sidecar holds one id per line
        raise FormatError(f"`_id` {doc_id!r} contains a line break", line_number)
    if "\x00" in title or "\x00" in text:
        raise DataError(f"line {line_number}: NUL byte in document {doc_id!r}")
    return Document(id=doc_id, title=title, text=text)


def load_collection(path: str | Path) -> dict[str, Document]:
    """Load a corpus file as id -> Document, in file order."""
    docs: dict[str, Document] = {}
    for line_number, obj in read_records(path, _DOC_FIELDS):
        doc = _document(obj, line_number)
        if doc.id in docs:
            raise DataError(f"duplicate `_id` {doc.id!r} at line {line_number}")
        docs[doc.id] = doc
    return docs


def load_documents(path: str | Path, ids: Sequence[str],
                   wanted: Collection[str]) -> dict[str, Document]:
    """The documents ``wanted`` of a collection file whose line ``i + 1`` holds ``ids[i]``.

    Only their lines are decoded and checked; the file must have one line per
    id, and each decoded line must hold its id, or ``AlignmentError`` names the
    line. Wanted ids that are not in ``ids`` are left out of the result.
    """
    wanted = set(wanted)
    lines = bytes(map(wanted.__contains__, ids))
    docs: dict[str, Document] = {}
    for line_number, obj in read_records(path, _DOC_FIELDS, lines):
        doc = _document(obj, line_number)
        if doc.id != ids[line_number - 1]:
            raise AlignmentError(f"line {line_number}: `_id` {doc.id!r} is not "
                                 f"{ids[line_number - 1]!r}, the id of that line")
        docs[doc.id] = doc
    return docs


def save_collection(collection: dict[str, Document], path: str | Path) -> None:
    """Write the documents back to JSONL in their order; values round-trip byte-exactly."""
    records = ({"_id": doc.id, "title": doc.title, "text": doc.text}
               for doc in collection.values())
    write_jsonl(path, records, ensure_ascii=False)


def render_document(doc: Document) -> str:
    """Title plus a single space plus text; bare text when the title is empty."""
    if doc.title:
        return doc.title + " " + doc.text
    return doc.text


class TokenizedCollection(NamedTuple):
    """The token stream of a collection: all the BM25 index and the embedder read.

    Document ``i`` is ``doc_ids[i]``; its tokens, as ids into ``terms``, are
    ``ids[sum(lengths[:i]):sum(lengths[:i + 1])]``.
    """

    doc_ids: list[str]      # in collection order
    terms: list[str]        # term id -> term, in first-seen order
    ids: np.ndarray         # int32 term ids of all documents, back to back
    lengths: np.ndarray     # int64 token count per document


def tokenize_collection(collection: dict[str, Document]) -> TokenizedCollection:
    """Tokenize each rendered document once; tokens become ids as they are read.

    All ids go into one growing int32 buffer, so no per-document arrays are
    alive beside the result; a vocabulary past 2**31 - 1 terms raises
    ``OverflowError``.
    """
    # imported here: querygen, and through it the mock LLM server, load this
    # module for ``tokenize`` alone and need not pay for importing numpy
    import numpy as np

    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__      # an unseen term gets the next id
    ids = array("i")
    lengths = []
    for doc in collection.values():
        tokens = tokenize(render_document(doc))
        ids.extend(map(vocab.__getitem__, tokens))
        lengths.append(len(tokens))
    return TokenizedCollection(list(collection), list(vocab), np.frombuffer(ids, dtype=np.int32),
                               np.array(lengths, dtype=np.int64))


def filter_min_length(collection: dict[str, Document], min_chars: int) -> dict[str, Document]:
    """Drop documents whose rendered string is shorter than min_chars, keeping order.

    Length counts Unicode scalar values of the rendered title+text string;
    min_chars is >= 0 (``PipelineConfig`` checks it).
    """
    return {doc_id: doc for doc_id, doc in collection.items()
            if len(render_document(doc)) >= min_chars}
