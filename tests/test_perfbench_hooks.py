"""The benchmark's tracing hooks still find what they wrap.

``perfbench/tracing.py`` replaces functions on the ``rankforge.*`` modules
and relies on ``selection`` and ``mine`` calling their kernels through
module globals. A rename, or a call bound to a local name, would otherwise
show only as a ``missing:`` line or as zeroed per-layer metrics in a traced
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rankforge import mine, selection
from rankforge.cluster import kmeans_fit
from rankforge.config import PipelineConfig
from rankforge.corpus import tokenize_collection
from rankforge.embeddings import EmbeddingMatrix
from rankforge.querygen import SyntheticQuery
from tests.conftest import blob_matrix, make_collection

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py loaded by path, writing no bytecode beside it."""
    before = sorted(p.name for p in PERFBENCH.iterdir())
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    assert sorted(p.name for p in PERFBENCH.iterdir()) == before


def _counting(monkeypatch, module, attr: str) -> list[int]:
    """Wrap module.attr so each call appends to the returned list."""
    calls: list[int] = []
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_every_wrapped_function_exists(tracing):
    targets = [(module, attr) for module, attr, _ in tracing.WRAPPED]
    targets.append(("querygen", "make_client"))
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"rankforge.{module}"), attr, None))]
    assert missing == []


def test_selection_calls_its_kernels_through_module_globals(monkeypatch):
    rng = np.random.default_rng(0)
    centers = np.eye(3, 4) * 2.0
    data, _ = blob_matrix(rng, centers, per_blob=12, noise=0.1)
    X = EmbeddingMatrix(data=data)
    model = kmeans_fit(X, PipelineConfig(clusters=3, seed=1, kmeans_restarts=1))
    draws = _counting(monkeypatch, selection, "sample_without_replacement")
    mmr = _counting(monkeypatch, selection, "mmr_select")
    cfg = PipelineConfig(sample_size=9, seed=2, sample_rounds=4, mmr_lambda=0.5)
    assert len(selection.select_representatives(X, model, cfg)) == 9
    assert len(draws) == cfg.sample_rounds * model.K
    assert len(mmr) == model.K


def test_mining_calls_mine_negatives_through_module_globals(monkeypatch):
    coll = make_collection(30, seed=1)
    index = mine.build_index(tokenize_collection(coll))
    queries = [SyntheticQuery(doc_id=doc.id, query_text=" ".join(doc.text.split()[:3]),
                              raw_completion="", model_name="m") for doc in list(coll.values())[:5]]
    calls = _counting(monkeypatch, mine, "mine_negatives")
    pairs = mine.assemble_pairs(index, queries, PipelineConfig(num_negatives=2))
    assert len(pairs) == len(queries)
    assert len(calls) == len(queries)
