"""Ranking metrics (nDCG@k, recall@k) over TREC-format runs and qrels.

Queries are evaluated when they appear in both the run and the qrels.
A judged query whose judgments are all non-positive scores 0 for nDCG and
is excluded from recall, whose denominator would be empty. Run rankings
are re-derived from the scores (score desc, doc id asc), so the rank
column in the file is ignored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .config import PipelineConfig
from .corpus import read_lines, write_json
from .errors import FormatError


@dataclass
class Qrels:
    by_query: dict[str, dict[str, int]] = field(default_factory=dict)

    def relevant(self, query_id: str) -> set[str]:
        return {d for d, rel in self.by_query.get(query_id, {}).items() if rel > 0}


@dataclass
class Run:
    by_query: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def ranking(self, query_id: str) -> list[str]:
        hits = self.by_query.get(query_id, [])
        ordered = sorted(hits, key=lambda h: (-h[1], h[0]))
        return [doc_id for doc_id, _ in ordered]


def _columns(path: str | Path, count: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each non-blank line; each must have ``count`` fields."""
    for line_number, line in read_lines(path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != count:
            raise FormatError(f"expected {count} fields, got {len(fields)}", line_number)
        yield line_number, fields


def load_qrels(path: str | Path) -> Qrels:
    """Read 4-column TREC qrels: query_id, iteration, doc_id, relevance."""
    qrels = Qrels()
    for line_number, (query_id, _, doc_id, rel_text) in _columns(path, 4):
        try:
            rel = int(rel_text)
        except ValueError:
            raise FormatError(f"relevance {rel_text!r} is not an integer", line_number) from None
        judgments = qrels.by_query.setdefault(query_id, {})
        if doc_id in judgments:
            raise FormatError(f"duplicate judgment for ({query_id}, {doc_id})", line_number)
        judgments[doc_id] = rel
    return qrels


def load_run(path: str | Path) -> Run:
    """Read 6-column TREC run: query_id, Q0, doc_id, rank, score, tag."""
    run = Run()
    seen: set[tuple[str, str]] = set()
    for line_number, (query_id, _, doc_id, _, score_text, _) in _columns(path, 6):
        try:
            score = float(score_text)
        except ValueError:
            raise FormatError(f"score {score_text!r} is not a number", line_number) from None
        if not math.isfinite(score):
            raise FormatError(f"score {score_text!r} is not finite", line_number)
        if (query_id, doc_id) in seen:
            raise FormatError(f"duplicate hit for ({query_id}, {doc_id})", line_number)
        seen.add((query_id, doc_id))
        run.by_query.setdefault(query_id, []).append((doc_id, score))
    return run


def _dcg(gains: Sequence[int]) -> float:
    return sum(g / math.log2(i + 2) for i, g in enumerate(gains))


def ndcg_at_k(run: Run, qrels: Qrels, query_id: str, k: int) -> float:
    """Linear-gain nDCG@k for one query; 0 when nothing judged positive."""
    judgments = qrels.by_query.get(query_id, {})
    ideal = sorted((rel for rel in judgments.values() if rel > 0), reverse=True)[:k]
    if not ideal:
        return 0.0
    ranking = run.ranking(query_id)[:k]
    gains = [max(judgments.get(doc_id, 0), 0) for doc_id in ranking]
    return _dcg(gains) / _dcg(ideal)


def recall_at_k(run: Run, qrels: Qrels, query_id: str, k: int) -> float:
    """Fraction of relevant documents in the top k; caller must skip unjudged queries."""
    relevant = qrels.relevant(query_id)
    if not relevant:
        raise ValueError(f"query {query_id} has no relevant documents")
    retrieved = set(run.ranking(query_id)[:k])
    return len(retrieved & relevant) / len(relevant)


@dataclass
class EvalReport:
    ndcg_k: int
    recall_k: int
    ndcg_per_query: dict[str, float]
    recall_per_query: dict[str, float]
    mean_ndcg: float
    mean_recall: float
    evaluated_queries: int


def evaluate(run: Run, qrels: Qrels, ndcg_k: int = PipelineConfig.ndcg_k,
             recall_k: int = PipelineConfig.recall_k) -> EvalReport:
    """Evaluate every query present in both run and qrels."""
    query_ids = sorted(set(run.by_query) & set(qrels.by_query))
    ndcg_scores: dict[str, float] = {}
    recall_scores: dict[str, float] = {}
    for query_id in query_ids:
        ndcg_scores[query_id] = ndcg_at_k(run, qrels, query_id, ndcg_k)
        if qrels.relevant(query_id):
            recall_scores[query_id] = recall_at_k(run, qrels, query_id, recall_k)
    mean_ndcg = sum(ndcg_scores.values()) / len(ndcg_scores) if ndcg_scores else 0.0
    mean_recall = sum(recall_scores.values()) / len(recall_scores) if recall_scores else 0.0
    return EvalReport(
        ndcg_k=ndcg_k,
        recall_k=recall_k,
        ndcg_per_query=ndcg_scores,
        recall_per_query=recall_scores,
        mean_ndcg=mean_ndcg,
        mean_recall=mean_recall,
        evaluated_queries=len(query_ids),
    )


def format_report(report: EvalReport) -> str:
    """Aligned text table, one query per row plus the means."""
    lines = [
        f"{'query':<24} {'ndcg@%d' % report.ndcg_k:>12} {'recall@%d' % report.recall_k:>12}"
    ]
    for query_id in sorted(report.ndcg_per_query):
        ndcg = report.ndcg_per_query[query_id]
        recall = report.recall_per_query.get(query_id)
        recall_text = f"{recall:.4f}" if recall is not None else "-"
        lines.append(f"{query_id:<24} {ndcg:>12.4f} {recall_text:>12}")
    lines.append(
        f"{'mean (%d queries)' % report.evaluated_queries:<24} "
        f"{report.mean_ndcg:>12.4f} {report.mean_recall:>12.4f}"
    )
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, path: str | Path) -> None:
    write_json(path, asdict(report), sort_keys=True, indent=2)
