"""Few-shot prompt construction and synthetic query generation via an LLM endpoint.

The endpoint speaks a minimal JSON completion contract:
request ``{model, prompt, temperature, max_tokens, stop}``, response
``{"choices": [{"text": ...}]}``. An ``endpoint`` starting with ``mock:``
selects an in-process deterministic client so the pipeline runs offline;
``rankforge-mock-llm`` serves the same behavior over HTTP. Any other endpoint
gets ``httpclient.HttpCompletionClient``.

Generated queries are deliberately not filtered for quality; every
completion that parses to a non-empty first line becomes one query.
"""

from __future__ import annotations

import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig
from .corpus import read_records, read_text, tokenize, write_jsonl
from .errors import AccessDeniedError, DataError, EndpointError, FormatError

log = logging.getLogger(__name__)

_SLOT_RE = re.compile(r"\{(document|query)\}")
_QUOTE_CHARS = "\"'`“”‘’"


@dataclass
class PromptTemplate:
    preamble: str
    example_block_format: str      # uses {document} and {query}
    target_block_format: str       # uses {document} exactly once, ends at the query cue
    example_separator: str


@dataclass(frozen=True)
class FewShotExample:
    document_text: str
    query: str


@dataclass(frozen=True)
class QueryPrompt:
    doc_id: str
    text: str


@dataclass(frozen=True)
class SyntheticQuery:
    doc_id: str
    query_text: str
    raw_completion: str
    model_name: str


def builtin_template_path() -> Path:
    return Path(str(resources.files("rankforge") / "templates" / "inpars.json"))


def builtin_examples_path(name: str) -> Path:
    return Path(str(resources.files("rankforge") / "templates" / f"{name}.jsonl"))


def load_template(path: str | Path) -> PromptTemplate:
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    names = [f.name for f in fields(PromptTemplate)]
    bad = [name for name in names if not isinstance(obj.get(name), str)]
    if bad:
        raise DataError(f"{path}: template fields {bad} are missing or not strings")
    return PromptTemplate(**{name: obj[name] for name in names})


def load_examples(path: str | Path) -> list[FewShotExample]:
    examples = []
    for line_number, obj in read_records(path, {"document": (str,), "query": (str,)}):
        for name in ("document", "query"):
            if not obj[name]:
                raise FormatError(f"`{name}` is empty", line_number)
        examples.append(FewShotExample(document_text=obj["document"], query=obj["query"]))
    return examples


def _render(fmt: str, values: dict[str, str]) -> str:
    # single pass so slot-like text inside substituted values is never rescanned
    return _SLOT_RE.sub(lambda m: values.get(m.group(1), m.group(0)), fmt)


def truncate_at_whitespace(text: str, limit: int) -> str:
    """Cut text to at most limit characters, preferring a word boundary."""
    if len(text) <= limit:
        return text
    if text[limit].isspace():
        return text[:limit].rstrip()
    last_ws = limit - 1             # the last whitespace before the cut, scanned backward
    while last_ws > 0 and not text[last_ws].isspace():
        last_ws -= 1
    if last_ws <= 0:
        return text[:limit]
    return text[:last_ws].rstrip()


def build_prompt(
    tmpl: PromptTemplate,
    examples: Sequence[FewShotExample],
    target_doc: str,
    cfg: PipelineConfig,
) -> str:
    """Assemble preamble, rendered examples, and the target block into one prompt.

    Reads ``max_doc_chars`` from cfg; examples holds the first ``shots`` examples.
    """
    if tmpl.target_block_format.count("{document}") != 1:
        raise DataError("target block must contain {document} exactly once")
    if examples and (
        "{document}" not in tmpl.example_block_format
        or "{query}" not in tmpl.example_block_format
    ):
        raise DataError("example block must contain {document} and {query}")
    parts: list[str] = []
    if tmpl.preamble:
        parts.append(tmpl.preamble)
    for ex in examples:
        parts.append(_render(tmpl.example_block_format, {"document": ex.document_text, "query": ex.query}))
    doc = truncate_at_whitespace(target_doc, cfg.max_doc_chars)
    parts.append(_render(tmpl.target_block_format, {"document": doc}))
    return tmpl.example_separator.join(parts)


def parse_completion(raw: str) -> str:
    """First line, stripped of whitespace and surrounding quotes; ``""`` when nothing is left."""
    first_line = raw.split("\n", 1)[0]
    return first_line.strip().strip(_QUOTE_CHARS).strip()


def deterministic_completion(prompt: str) -> str:
    """Stable pseudo-query derived from the prompt tail; used by the mock endpoint."""
    body = prompt.rstrip()
    cue = body.rfind("\n")
    if cue >= 0:
        body = body[:cue]          # drop the trailing query cue line
    words = tokenize(body[-400:])
    if not words:
        return "placeholder query"
    return "what is known about " + " ".join(words[-6:])


class MockCompletionClient:
    """In-process stand-in for the endpoint; deterministic and offline."""

    def __init__(self, model: str = "mock"):
        self.model = model

    def complete(self, prompt: str) -> str:
        return deterministic_completion(prompt)

    def close(self) -> None:
        """Nothing to release; present so every client can be closed alike."""


def make_client(cfg: PipelineConfig):
    """The client for cfg's endpoint, holding every request setting; `mock:` runs in process.

    The HTTP client's module, and with it the standard library's HTTP stack,
    is imported only here, so no other stage loads it.
    """
    if cfg.endpoint.startswith("mock:"):
        return MockCompletionClient(model=cfg.model)
    from .httpclient import HttpCompletionClient
    return HttpCompletionClient(cfg)


def generate_queries(client, prompts: Sequence[QueryPrompt],
                     cfg: PipelineConfig) -> list[SyntheticQuery]:
    """One completion per prompt, cfg.threads at a time; output follows input order.

    Items that fail transport after retries or parse to an empty query are
    dropped and logged, in input order; the call raises when every request
    failed. A refused credential (``AccessDeniedError``) is raised at once:
    no worker sends another request, and the prompts not yet started are
    cancelled.
    """
    denied: list[AccessDeniedError] = []

    def attempt(prompt: QueryPrompt) -> str | EndpointError:
        if denied:      # set before this worker took the prompt: send nothing
            raise denied[0]
        try:
            return client.complete(prompt.text)
        except AccessDeniedError as exc:
            denied.append(exc)
            raise
        except EndpointError as exc:
            return exc

    queries: list[SyntheticQuery] = []
    transport_failures = 0
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        try:
            for prompt, raw in zip(prompts, pool.map(attempt, prompts)):
                if isinstance(raw, EndpointError):
                    transport_failures += 1
                    log.warning("generation failed for doc %s: %s", prompt.doc_id, raw)
                    continue
                query_text = parse_completion(raw)
                if not query_text:
                    log.warning("dropping doc %s: completion parsed empty", prompt.doc_id)
                    continue
                queries.append(SyntheticQuery(doc_id=prompt.doc_id, query_text=query_text,
                                              raw_completion=raw, model_name=client.model))
        except AccessDeniedError:
            pool.shutdown(cancel_futures=True)
            raise
    if prompts and transport_failures == len(prompts):
        raise EndpointError(f"all {transport_failures} generation requests failed")
    return queries


def save_queries(queries: Sequence[SyntheticQuery], path: str | Path) -> None:
    """Persist queries as JSONL {doc_id, query, raw, model}."""
    write_jsonl(path, ({"doc_id": q.doc_id, "query": q.query_text, "raw": q.raw_completion,
                        "model": q.model_name} for q in queries))


def load_queries(path: str | Path) -> list[SyntheticQuery]:
    """Read back the records ``save_queries`` writes; every field is a string."""
    types = {"doc_id": (str,), "query": (str,), "raw": (str,), "model": (str,)}
    return [SyntheticQuery(doc_id=obj["doc_id"], query_text=obj["query"],
                           raw_completion=obj["raw"], model_name=obj["model"])
            for _, obj in read_records(path, types)]
