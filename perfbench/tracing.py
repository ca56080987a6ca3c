"""Spans recorded from outside the program, around calls into its modules.

``install`` replaces public functions on the ``rankforge.*`` modules with
timing wrappers. This works because ``cli`` reaches every stage function
through its module (``corpus.load_collection``), and ``selection`` and
``mine`` look up ``mmr_select``, ``sample_without_replacement`` and
``mine_negatives`` as module globals at call time. ``querygen.make_client``
is wrapped so the returned client's ``complete`` is timed per request,
retries and backoff included.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time


class Tracer:
    """Records spans: name, start, end, parent span id, run id and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, describe=None):
        """Run fn inside a span; describe(args, kwargs, result) adds counters."""
        stack = self._stack()
        # pool threads have no span of their own: parent them to the main thread's
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            if describe is not None:
                try:
                    attrs.update(describe(args, kwargs, result))
                except (AttributeError, TypeError, IndexError, KeyError, ValueError) as exc:
                    attrs["describe_error"] = repr(exc)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                                   "parent": parent, "run": self.run_id, "attrs": attrs})

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)
        return traced


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, counters taken from the call) for every timed function
WRAPPED = [
    ("corpus", "load_collection", None),
    ("corpus", "filter_min_length",
     lambda a, kw, r: {"docs_in": len(a[0]), "docs_kept": len(r)}),
    ("corpus", "save_collection", None),
    ("embeddings", "embed_collection", None),
    ("embeddings", "save_embeddings", None),
    ("embeddings", "load_embeddings", None),
    ("cluster", "kmeans_fit",
     lambda a, kw, r: {"iters": len(r.inertia_history), "converged": bool(r.converged)}),
    ("cluster", "save_model", None),
    ("cluster", "load_model", None),
    ("selection", "select_representatives", None),
    ("selection", "mmr_select", lambda a, kw, r: {"candidates": len(a[0]), "picks": len(r)}),
    ("selection", "sample_without_replacement", None),
    ("querygen", "build_prompt", None),
    ("querygen", "generate_queries", None),
    ("mine", "build_index", None),
    ("mine", "save_index", None),
    ("mine", "assemble_pairs",
     lambda a, kw, r: {"pairs": len(r), "shortfall": sum(1 for p in r if p.shortfall)}),
    ("mine", "mine_negatives", None),
    ("dataset", "write_triples", None),
    ("dataset", "write_pointwise", None),
    ("dataset", "sha256_file", _file_bytes),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function; returns the names that no longer exist."""
    missing = []
    for module_name, attr, describe in WRAPPED:
        try:
            module = importlib.import_module(f"rankforge.{module_name}")
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(f"{module_name}.{attr}", fn, describe))

    querygen = importlib.import_module("rankforge.querygen")
    make_client = getattr(querygen, "make_client", None)
    if not callable(make_client):
        missing.append("querygen.make_client")
        return missing

    @functools.wraps(make_client)
    def traced_make_client(*args, **kwargs):
        client = make_client(*args, **kwargs)
        complete = getattr(client, "complete", None)
        if callable(complete):
            client.complete = tracer.wrap("querygen.request", complete)
        else:
            missing.append("querygen.<client>.complete")
        return client

    querygen.make_client = traced_make_client
    return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own[s["id"]]
    return table


def layer_metrics(spans: list[dict], threads: int) -> dict[str, float]:
    """The per-layer metrics of the benchmark, derived from one traced run."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    m: dict[str, float] = {}
    for stage in ("ingest", "cluster", "select", "generate", "mine", "build"):
        m[f"cli.{stage}_s"] = total(f"cli.{stage}")
        m[f"cli.{stage}_rss_mb"] = attr_sum(f"cli.{stage}", "rss_mb")

    m["corpus.load_collection_s"] = total("corpus.load_collection")
    m["corpus.load_calls"] = len(by_name.get("corpus.load_collection", []))
    m["corpus.filter_min_length_s"] = total("corpus.filter_min_length")
    m["corpus.save_collection_s"] = total("corpus.save_collection")
    m["corpus.docs_in"] = attr_sum("corpus.filter_min_length", "docs_in")
    m["corpus.docs_kept"] = attr_sum("corpus.filter_min_length", "docs_kept")

    for name in ("embed_collection", "save_embeddings", "load_embeddings"):
        m[f"embeddings.{name}_s"] = total(f"embeddings.{name}")

    m["cluster.kmeans_fit_s"] = total("cluster.kmeans_fit")
    m["cluster.iters"] = attr_sum("cluster.kmeans_fit", "iters")
    m["cluster.s_per_iter"] = m["cluster.kmeans_fit_s"] / max(1, m["cluster.iters"])
    fits = by_name.get("cluster.kmeans_fit", [])
    m["cluster.converged"] = float(bool(fits) and all(s["attrs"].get("converged") for s in fits))
    m["cluster.save_model_s"] = total("cluster.save_model")
    m["cluster.load_model_s"] = total("cluster.load_model")

    m["selection.select_representatives_s"] = total("selection.select_representatives")
    m["selection.mmr_select_s"] = total("selection.mmr_select")
    m["selection.mmr_calls"] = len(by_name.get("selection.mmr_select", []))
    m["selection.mmr_candidates"] = attr_sum("selection.mmr_select", "candidates")
    m["selection.mmr_picks"] = attr_sum("selection.mmr_select", "picks")
    m["selection.sample_without_replacement_s"] = total("selection.sample_without_replacement")

    requests = by_name.get("querygen.request", [])
    request_ms = [1000.0 * (s["end"] - s["start"]) for s in requests]
    m["querygen.build_prompt_s"] = total("querygen.build_prompt")
    m["querygen.generate_queries_s"] = total("querygen.generate_queries")
    m["querygen.request_ms_p50"] = statistics.median(request_ms) if request_ms else 0.0
    m["querygen.request_ms_p99"] = (
        statistics.quantiles(request_ms, n=100, method="inclusive")[98]
        if len(request_ms) > 1 else sum(request_ms)
    )
    m["querygen.requests"] = len(requests)
    m["querygen.requests_failed"] = sum(1 for s in requests if "error" in s["attrs"])
    busy = m["querygen.generate_queries_s"] * threads
    m["querygen.pool_busy"] = sum(request_ms) / 1000.0 / busy if busy > 0 else 0.0

    m["mine.build_index_s"] = total("mine.build_index")
    m["mine.save_index_s"] = total("mine.save_index")
    m["mine.assemble_pairs_s"] = total("mine.assemble_pairs")
    mined = by_name.get("mine.mine_negatives", [])
    m["mine.query_ms_mean"] = 1000.0 * total("mine.mine_negatives") / max(1, len(mined))
    m["mine.shortfall_pairs"] = attr_sum("mine.assemble_pairs", "shortfall")

    m["dataset.write_triples_s"] = total("dataset.write_triples")
    m["dataset.write_pointwise_s"] = total("dataset.write_pointwise")
    m["dataset.sha256_file_s"] = total("dataset.sha256_file")
    m["dataset.bytes_hashed"] = attr_sum("dataset.sha256_file", "bytes")
    return m
