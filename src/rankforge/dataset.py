"""Training-file emission and the artifact hash of the run manifest.

Two training formats are written from the mined pairs:
  * triples TSV: one ``query \\t positive_text \\t negative_text`` row per
    negative, with tabs and newlines inside fields replaced by spaces;
  * pointwise JSONL: ``{query, doc_id, doc_text, label}`` with label 1 for
    the positive and 0 for each negative, positive first.

``cli``'s ``build`` writes the manifest: counts, the effective configuration,
and the ``sha256_file`` hash and size of every artifact. It holds no
timestamps, so two runs with the same seed and inputs write the same bytes.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Sequence

from .corpus import Document, render_document, replacing, write_jsonl
from .errors import DataError
from .mine import TrainingPair

_FIELD_BREAK_RE = re.compile(r"[\t\n\r]")


def sanitize_field(text: str) -> str:
    """Make text safe for one TSV cell."""
    return _FIELD_BREAK_RE.sub(" ", text)


def _doc_text(docs: dict[str, Document], doc_id: str) -> str:
    doc = docs.get(doc_id)
    if doc is None:
        raise DataError(f"pair references unknown document id {doc_id!r}")
    return render_document(doc)


def write_triples(pairs: Sequence[TrainingPair], docs: dict[str, Document], path: str | Path) -> int:
    """Write the triples TSV; returns the number of rows."""
    rows = 0
    with replacing(path) as fh:
        for pair in pairs:
            query = sanitize_field(pair.query_text)
            positive = sanitize_field(_doc_text(docs, pair.positive_doc_id))
            for neg_id in pair.negative_doc_ids:
                negative = sanitize_field(_doc_text(docs, neg_id))
                fh.write(f"{query}\t{positive}\t{negative}\n")
                rows += 1
    return rows


def write_pointwise(pairs: Sequence[TrainingPair], docs: dict[str, Document],
                    path: str | Path) -> int:
    """Write the pointwise JSONL; returns the number of records."""
    records = (
        {"query": pair.query_text, "doc_id": doc_id,
         "doc_text": _doc_text(docs, doc_id), "label": label}
        for pair in pairs
        for doc_id, label in [(pair.positive_doc_id, 1)] + [(n, 0) for n in pair.negative_doc_ids]
    )
    return write_jsonl(path, records, ensure_ascii=False, sort_keys=True)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()

