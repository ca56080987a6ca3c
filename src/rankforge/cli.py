"""Command line entry point for the pipeline.

Subcommands cover each stage (ingest, cluster, select, generate, mine,
build), a chained `run-all`, and `eval` for scoring retrieval runs. Stage
outputs land in a working directory under fixed names, so a pipeline can
be resumed from any stage by rerunning only the later commands.

Configuration resolves in three layers: built-in defaults, then a flat
``key=value`` config file (``--config``), then command line flags. It is
validated once, before any stage runs, and echoed into the manifest at the
build stage.

Exit codes: 0 success, 1 usage error, 2 data error, 3 endpoint error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import cluster as clustering
from . import corpus, dataset, embeddings, evaluation, mine, querygen, selection
from .config import PipelineConfig
from .errors import (
    AlignmentError,
    DataError,
    EndpointError,
    FormatError,
    RankforgeError,
    UsageError,
)

log = logging.getLogger(__name__)

COLLECTION_FILE = "collection.jsonl"
EMBEDDINGS_FILE = "embeddings.bin"
IDS_FILE = EMBEDDINGS_FILE + ".ids"
KMEANS_FILE = "kmeans.bin"
SELECTED_FILE = "selected.jsonl"
QUERIES_FILE = "queries.jsonl"
INDEX_FILE = "index.bin"
PAIRS_FILE = "pairs.jsonl"
ELBOW_FILE = "elbow.json"
TRIPLES_FILE = "triples.tsv"
POINTWISE_FILE = "pointwise.jsonl"
MANIFEST_FILE = "manifest.json"

# every workdir file `build` reads or hashes -> (its manifest name, the stage that writes it)
ARTIFACTS = {
    COLLECTION_FILE: ("collection", "ingest"),
    EMBEDDINGS_FILE: ("embeddings", "ingest"),
    IDS_FILE: ("embedding_ids", "ingest"),
    KMEANS_FILE: ("kmeans_model", "cluster"),
    SELECTED_FILE: ("selected", "select"),
    QUERIES_FILE: ("queries", "generate"),
    INDEX_FILE: ("bm25_index", "ingest"),
    PAIRS_FILE: ("pairs", "mine"),
}


# field name -> the type of its default: int, float or str
_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}


def _parse_config_file(path: str | Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line_number, line in corpus.read_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError("expected key=value", line_number)
        key, _, value = stripped.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _typed_entries(entries: dict[str, str], source: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for key, raw in entries.items():
        if key not in _FIELD_TYPES:
            raise DataError(f"{source}: unknown config key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](raw)
        except ValueError:
            raise DataError(f"{source}: invalid value for {key}: {raw!r}") from None
    return values


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file entries, then explicit flags; validated once."""
    values: dict[str, object] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        values.update(_typed_entries(_parse_config_file(config_path), str(config_path)))
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    return PipelineConfig(**values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise UsageError(message)


def _require(workdir: Path, name: str) -> Path:
    path = workdir / name
    if not path.exists():
        raise DataError(f"{path} not found; run `rankforge {ARTIFACTS[name][1]}` first")
    return path


def cmd_ingest(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    docs = corpus.load_collection(args.input)
    n_read = len(docs)
    docs = corpus.filter_min_length(docs, cfg.min_chars)
    if not docs:
        raise DataError(
            f"no documents of {n_read} pass the {cfg.min_chars}-character length filter"
        )
    # build every artifact before writing any: a failure leaves the last ingest intact.
    # The index and the embedding read only the token stream; the documents are only
    # written back out. The index's temporaries come and go before the n x d embedding.
    tokens = corpus.tokenize_collection(docs)
    index = mine.build_index(tokens)
    if getattr(args, "embeddings", None):
        matrix = embeddings.load_aligned(args.embeddings, index.doc_ids)
    else:
        matrix = embeddings.embed_collection(tokens, cfg.hash_embed_dim, cfg.seed)
    del tokens

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus.save_collection(docs, workdir / COLLECTION_FILE)
    embeddings.save_embeddings(matrix, workdir / EMBEDDINGS_FILE, ids=index.doc_ids)
    mine.save_index(index, workdir / INDEX_FILE)
    print(f"ingest: kept {len(docs)} of {n_read} documents, embedding dim {matrix.shape[1]}")


def cmd_cluster(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    workdir = Path(args.workdir)
    path = _require(workdir, EMBEDDINGS_FILE)

    if getattr(args, "k_scan", None):
        result = clustering.elbow_scan(embeddings.load_embeddings(path),
                                       _parse_k_scan(args.k_scan), cfg)
        points = [{"k": k, "sse": sse} for k, sse in result.points]
        corpus.write_json(workdir / ELBOW_FILE, {"points": points, "knee": result.knee}, indent=2)
        print(f"{'K':>6} {'sse':>14}")
        for k, sse in result.points:
            print(f"{k:>6} {sse:>14.4f}")
        if result.knee is not None:
            print(f"suggested K (elbow): {result.knee}")
        else:
            print("no elbow suggestion (need at least 3 scanned K values)")
        return

    # the loaded matrix is the fit's only n x d array
    model = clustering.kmeans_fit(embeddings.load_embeddings(path), cfg)
    clustering.save_model(model, workdir / KMEANS_FILE)
    print(
        f"cluster: K={model.K} inertia={model.inertia:.6f} "
        f"iters={len(model.inertia_history)} converged={model.converged} "
        f"rescanned={sum(model.rescanned)} near_ties={model.near_ties} repairs={model.repairs} "
        f"float64_rows={model.float64_rows} (docs={model.assignments.size})"
    )


def _parse_k_scan(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--k-scan expects comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError("--k-scan needs at least one K")
    if min(values) < 1:
        raise UsageError(f"--k-scan values must be >= 1, got {min(values)}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("--k-scan values must be strictly increasing")
    return values


def _check_rows(rows: int, ids: int, assignments: int) -> None:
    """Raise unless the embedding rows, `.ids` lines and k-means assignments agree in number."""
    if not rows == ids == assignments:
        raise AlignmentError(f"{EMBEDDINGS_FILE} has {rows} rows, {IDS_FILE} {ids} ids and "
                             f"{KMEANS_FILE} {assignments} assignments; rerun the stale stage")


def cmd_select(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    workdir = Path(args.workdir)
    matrix = embeddings.load_embeddings(_require(workdir, EMBEDDINGS_FILE))
    ids = embeddings.load_ids(_require(workdir, IDS_FILE))
    model = clustering.load_model(_require(workdir, KMEANS_FILE))
    _check_rows(len(matrix), len(ids), len(model.assignments))
    selected = selection.select_representatives(matrix, model, cfg)
    selection.save_selected(selected, ids, workdir / SELECTED_FILE)
    print(f"select: {len(selected)} documents across {model.K} clusters")


def _read_documents(workdir: Path, ids: list[str],
                    wanted: set[str]) -> dict[str, corpus.Document]:
    """The documents ``wanted`` from the collection, found by their line in the `.ids` sidecar."""
    try:
        return corpus.load_documents(_require(workdir, COLLECTION_FILE), ids, wanted)
    except AlignmentError as exc:
        raise AlignmentError(f"{COLLECTION_FILE} does not hold the documents of {IDS_FILE} "
                             f"line for line ({exc}); rerun `rankforge ingest`") from None


def cmd_generate(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    workdir = Path(args.workdir)
    rows = selection.load_selected(_require(workdir, SELECTED_FILE))
    ids = embeddings.load_ids(_require(workdir, IDS_FILE))
    docs = _read_documents(workdir, ids, {row["doc_id"] for row in rows})

    template_path = getattr(args, "template", None) or querygen.builtin_template_path()
    examples_path = getattr(args, "examples", None) or querygen.builtin_examples_path("wikipedia")
    template = querygen.load_template(template_path)
    examples = querygen.load_examples(examples_path)
    if len(examples) < cfg.shots:
        raise DataError(f"{examples_path} has {len(examples)} examples, need {cfg.shots}")
    examples = examples[: cfg.shots]

    prompts = []
    for row in rows:
        doc = docs.get(row["doc_id"])
        if doc is None:
            raise DataError(f"selected document {row['doc_id']!r} missing from collection")
        prompts.append(
            querygen.QueryPrompt(
                doc_id=doc.id,
                text=querygen.build_prompt(template, examples, corpus.render_document(doc), cfg),
            )
        )
    client = querygen.make_client(cfg)
    try:
        queries = querygen.generate_queries(client, prompts, cfg)
    finally:
        client.close()
    querygen.save_queries(queries, workdir / QUERIES_FILE)
    dropped = len(prompts) - len(queries)
    print(f"generate: {len(queries)} queries from {len(prompts)} prompts ({dropped} dropped)")


def cmd_mine(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    workdir = Path(args.workdir)
    queries = querygen.load_queries(_require(workdir, QUERIES_FILE))
    ids = embeddings.load_ids(_require(workdir, IDS_FILE))
    try:
        index = mine.load_index(_require(workdir, INDEX_FILE), ids, k1=cfg.bm25_k1, b=cfg.bm25_b)
    except AlignmentError:
        raise AlignmentError(f"{INDEX_FILE} does not index the documents of {IDS_FILE}; "
                             "rerun `rankforge ingest`") from None
    pairs = mine.assemble_pairs(index, queries, cfg)
    mine.save_pairs(pairs, workdir / PAIRS_FILE)
    shortfalls = sum(1 for p in pairs if p.shortfall)
    negatives = sum(len(p.negative_doc_ids) for p in pairs)
    print(f"mine: {len(pairs)} pairs, {negatives} negatives, {shortfalls} under quota")


def cmd_build(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    workdir = Path(args.workdir)
    for name in ARTIFACTS:      # every input is there before anything is written
        _require(workdir, name)
    pairs = mine.load_pairs(workdir / PAIRS_FILE)
    ids = embeddings.load_ids(workdir / IDS_FILE)
    rows_n, dim = embeddings.read_shape(workdir / EMBEDDINGS_FILE)
    clusters, _, assigned = clustering.read_shape(workdir / KMEANS_FILE)
    _check_rows(rows_n, len(ids), assigned)
    # the collection has one line per id, or this raises
    docs = _read_documents(workdir, ids, {doc_id for p in pairs
                                          for doc_id in (p.positive_doc_id, *p.negative_doc_ids)})
    rows = selection.load_selected(workdir / SELECTED_FILE)
    queries = querygen.load_queries(workdir / QUERIES_FILE)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    triples = dataset.write_triples(pairs, docs, outdir / TRIPLES_FILE)
    pointwise = dataset.write_pointwise(pairs, docs, outdir / POINTWISE_FILE)

    # each artifact's path as given on the command line
    paths = {manifest_name: workdir / name for name, (manifest_name, _) in ARTIFACTS.items()}
    paths.update(triples=outdir / TRIPLES_FILE, pointwise=outdir / POINTWISE_FILE)
    manifest = {
        "config": dataclasses.asdict(cfg),
        "counts": {
            "documents": len(ids),
            "embedding_dim": dim,
            "clusters": clusters,
            "selected": len(rows),
            "queries": len(queries),
            "pairs": len(pairs),
            "negatives": sum(len(p.negative_doc_ids) for p in pairs),
            "shortfall_pairs": sum(1 for p in pairs if p.shortfall),
            "triples": triples,
            "pointwise_records": pointwise,
        },
        "artifacts": {
            name: {"path": path.as_posix(), "sha256": dataset.sha256_file(path),
                   "bytes": path.stat().st_size}
            for name, path in paths.items()
        },
    }
    corpus.write_json(outdir / MANIFEST_FILE, manifest, sort_keys=True, indent=2)
    print(f"build: {triples} triples, {pointwise} pointwise records -> {outdir}")


def cmd_eval(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    run = evaluation.load_run(args.run)
    qrels = evaluation.load_qrels(args.qrels)
    report = evaluation.evaluate(run, qrels, ndcg_k=cfg.ndcg_k, recall_k=cfg.recall_k)
    sys.stdout.write(evaluation.format_report(report))
    if getattr(args, "report", None):
        evaluation.save_report(report, args.report)


def cmd_run_all(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    for step in (cmd_ingest, cmd_cluster, cmd_select, cmd_generate, cmd_mine, cmd_build):
        step(args, cfg)


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    """Expose selected PipelineConfig fields as flags (default None = not set)."""
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=_FIELD_TYPES[name], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def stage(name: str, help_text: str, needs_workdir: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        if needs_workdir:
            p.add_argument("--workdir", required=True, help="stage artifact directory")
        _add_config_flags(p, ["seed"])
        return p

    p = stage("ingest", "filter a JSONL corpus, embed it and index it for BM25")
    p.add_argument("--input", required=True, help="corpus JSONL with _id/title/text")
    p.add_argument("--embeddings", default=None, help="precomputed embedding file (.ids sidecar honored)")
    _add_config_flags(p, ["min_chars", "hash_embed_dim"])
    p.set_defaults(func=cmd_ingest)

    p = stage("cluster", "fit spherical k-means on the ingested embeddings")
    p.add_argument("--k-scan", dest="k_scan", default=None,
                   help="comma-separated K values; prints SSE per K and the elbow")
    _add_config_flags(p, ["clusters", "kmeans_restarts", "kmeans_max_iters", "kmeans_tol"])
    p.set_defaults(func=cmd_cluster)

    p = stage("select", "sample and diversify representative documents")
    _add_config_flags(p, ["sample_size", "softmax_temperature", "mmr_lambda", "sample_rounds"])
    p.set_defaults(func=cmd_select)

    p = stage("generate", "create one synthetic query per selected document")
    p.add_argument("--template", default=None, help="prompt template JSON")
    p.add_argument("--examples", default=None, help="few-shot examples JSONL")
    _add_config_flags(p, ["endpoint", "model", "shots", "decode_temperature",
                          "max_new_tokens", "max_doc_chars", "threads",
                          "max_retries", "request_timeout"])
    p.set_defaults(func=cmd_generate)

    p = stage("mine", "mine BM25 hard negatives from the ingested index")
    _add_config_flags(p, ["first_stage_hits", "num_negatives", "bm25_k1", "bm25_b"])
    p.set_defaults(func=cmd_mine)

    p = stage("build", "emit training files and the manifest")
    p.add_argument("--out", required=True, help="output directory for training files")
    p.set_defaults(func=cmd_build)

    p = stage("eval", "score a TREC run against qrels", needs_workdir=False)
    p.add_argument("--run", required=True, help="TREC 6-column run file")
    p.add_argument("--qrels", required=True, help="TREC 4-column qrels file")
    p.add_argument("--report", default=None, help="also write a JSON report here")
    _add_config_flags(p, ["ndcg_k", "recall_k"])
    p.set_defaults(func=cmd_eval)

    p = stage("run-all", "run ingest through build in one go")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--template", default=None)
    p.add_argument("--examples", default=None)
    _add_config_flags(p, [name for name in _FIELD_TYPES if name != "seed"])
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        args.func(args, resolve_config(args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return 3
    except (RankforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
