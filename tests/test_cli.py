"""CLI behavior: stage chaining, config layering, exit codes, determinism."""

import dataclasses
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rankforge import cli, corpus, embeddings, httpclient, mine, querygen, selection
from rankforge import cluster as clustering
from rankforge.config import PipelineConfig
from rankforge.corpus import load_collection
from rankforge.dataset import sha256_file
from rankforge.embeddings import load_embeddings, save_embeddings
from rankforge.mockllm import MockLLMServer, _Handler
from tests.conftest import child_pythonpath, make_collection, write_corpus_jsonl

BASE_FLAGS = ["--min-chars", "50", "--hash-embed-dim", "64"]
SMALL_PIPELINE = BASE_FLAGS + [
    "--clusters", "3", "--sample-size", "9", "--sample-rounds", "3",
    "--first-stage-hits", "12", "--num-negatives", "2", "--seed", "7",
]


@pytest.fixture
def corpus_file(tmp_path) -> Path:
    return write_corpus_jsonl(make_collection(45, seed=1), tmp_path / "corpus.jsonl")


def _run(argv) -> int:
    return cli.main([str(a) for a in argv])


def _ingest_to_generate(work, corpus_path, *ingest_flags):
    """The first four stages with SMALL_PIPELINE's settings, each given the flags it takes."""
    assert _run(["ingest", "--input", corpus_path, "--workdir", work, "--seed", "7"]
                + BASE_FLAGS + list(ingest_flags)) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3", "--seed", "7"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "9",
                 "--sample-rounds", "3", "--seed", "7"]) == 0
    assert _run(["generate", "--workdir", work, "--seed", "7"]) == 0


def _mine_and_build(work, out):
    assert _run(["mine", "--workdir", work, "--first-stage-hits", "12",
                 "--num-negatives", "2", "--seed", "7"]) == 0
    assert _run(["build", "--workdir", work, "--out", out, "--seed", "7"]) == 0


def test_stagewise_pipeline_and_resume(tmp_path, corpus_file, capsys):
    work = tmp_path / "work"
    out = tmp_path / "out"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work,
                 "--min-chars", "50", "--hash-embed-dim", "64"]) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3", "--seed", "7"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "9",
                 "--sample-rounds", "3", "--seed", "7"]) == 0
    assert _run(["generate", "--workdir", work, "--seed", "7"]) == 0
    assert _run(["mine", "--workdir", work, "--first-stage-hits", "12",
                 "--num-negatives", "2", "--seed", "7"]) == 0
    assert _run(["build", "--workdir", work, "--out", out]) == 0
    assert re.search(r"^cluster: K=3 .* rescanned=\d+ near_ties=\d+ repairs=\d+ ",
                     capsys.readouterr().out, re.M)

    for name in (cli.COLLECTION_FILE, cli.EMBEDDINGS_FILE, cli.KMEANS_FILE,
                 cli.SELECTED_FILE, cli.QUERIES_FILE, cli.INDEX_FILE, cli.PAIRS_FILE):
        assert (work / name).exists(), name
    for name in (cli.TRIPLES_FILE, cli.POINTWISE_FILE, cli.MANIFEST_FILE):
        assert (out / name).exists(), name

    # resume: drop a late artifact, rerun just that stage
    before = (work / cli.SELECTED_FILE).read_bytes()
    (work / cli.SELECTED_FILE).unlink()
    assert _run(["select", "--workdir", work, "--sample-size", "9",
                 "--sample-rounds", "3", "--seed", "7"]) == 0
    assert (work / cli.SELECTED_FILE).read_bytes() == before

    manifest = json.loads((out / cli.MANIFEST_FILE).read_text())
    assert manifest["counts"]["documents"] == 45
    assert manifest["counts"]["selected"] == 9
    assert manifest["counts"]["queries"] == 9
    assert manifest["counts"]["pairs"] == 9
    assert manifest["counts"]["negatives"] <= 18


# the manifest's config block for SMALL_PIPELINE, as written before the
# per-stage config classes were folded into PipelineConfig
SMALL_PIPELINE_CONFIG = {
    "bm25_b": 0.4, "bm25_k1": 0.9, "clusters": 3, "decode_temperature": 0.0,
    "endpoint": "mock:deterministic", "first_stage_hits": 12, "hash_embed_dim": 64,
    "kmeans_max_iters": 100, "kmeans_restarts": 3, "kmeans_tol": 0.0001, "max_doc_chars": 2048,
    "max_new_tokens": 64, "max_retries": 3, "min_chars": 50, "mmr_lambda": 1.0,
    "model": "llama-2-7b-chat", "ndcg_k": 10, "num_negatives": 2, "recall_k": 100,
    "request_timeout": 30.0, "sample_rounds": 3, "sample_size": 9, "seed": 7, "shots": 3,
    "softmax_temperature": 1.0, "threads": 4,
}


def test_run_all_matches_stagewise(tmp_path, corpus_file):
    work_a, out_a = tmp_path / "wa", tmp_path / "oa"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work_a,
                 "--out", out_a] + SMALL_PIPELINE) == 0
    manifest = json.loads((out_a / cli.MANIFEST_FILE).read_text())
    assert manifest["counts"]["selected"] == 9
    assert manifest["config"] == SMALL_PIPELINE_CONFIG

    work_s, out_s = tmp_path / "ws", tmp_path / "os"
    _ingest_to_generate(work_s, corpus_file)
    _mine_and_build(work_s, out_s)
    stagewise = json.loads((out_s / cli.MANIFEST_FILE).read_text())
    assert stagewise["counts"] == manifest["counts"]
    digests = {name: a["sha256"] for name, a in manifest["artifacts"].items()}
    assert {name: a["sha256"] for name, a in stagewise["artifacts"].items()} == digests
    assert len(digests) == 10
    # `config` is left out: a stagewise `build` is given only its own flags,
    # so it echoes the defaults of every other stage's settings (ROADMAP item 6)


def test_run_all_parses_the_collection_once(tmp_path, corpus_file, monkeypatch):
    parsed, decoded = [], []
    load_collection, read_records = corpus.load_collection, corpus.read_records

    def counting(path):
        parsed.append(Path(path).name)
        return load_collection(path)

    def recording(path, fields, lines=None):
        records = list(read_records(path, fields, lines))
        if Path(path).name == cli.COLLECTION_FILE:
            decoded.append([line_number for line_number, _ in records])
        return iter(records)

    monkeypatch.setattr(corpus, "load_collection", counting)
    monkeypatch.setattr(corpus, "read_records", recording)
    work = tmp_path / "w"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work,
                 "--out", tmp_path / "o"] + SMALL_PIPELINE) == 0
    # ingest parses its input; generate, then build, decode only the lines of their documents
    assert parsed == ["corpus.jsonl"]
    line_of = {doc_id: i for i, doc_id in enumerate(embeddings.load_ids(work / cli.IDS_FILE), 1)}
    selected = [row["doc_id"] for row in selection.load_selected(work / cli.SELECTED_FILE)]
    in_pairs = {doc_id for pair in mine.load_pairs(work / cli.PAIRS_FILE)
                for doc_id in (pair.positive_doc_id, *pair.negative_doc_ids)}
    assert decoded == [sorted(map(line_of.get, selected)), sorted(map(line_of.get, in_pairs))]
    assert len(decoded[0]) == 9 and len(decoded[1]) < len(line_of)


def test_cluster_select_and_mine_do_not_read_the_collection(tmp_path, corpus_file):
    work = tmp_path / "w"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work,
                 "--out", tmp_path / "o"] + SMALL_PIPELINE) == 0
    produced = {name: (work / name).read_bytes()
                for name in (cli.KMEANS_FILE, cli.SELECTED_FILE, cli.PAIRS_FILE)}
    for name in produced:
        (work / name).unlink()
    (work / cli.COLLECTION_FILE).rename(tmp_path / cli.COLLECTION_FILE)

    assert _run(["cluster", "--workdir", work, "--clusters", "3", "--seed", "7"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "9",
                 "--sample-rounds", "3", "--seed", "7"]) == 0
    assert _run(["mine", "--workdir", work, "--first-stage-hits", "12",
                 "--num-negatives", "2", "--seed", "7"]) == 0
    for name, data in produced.items():
        assert (work / name).read_bytes() == data, name
    assert _run(["generate", "--workdir", work]) == 2      # prompts need the text


def test_readme_artifacts_table_lists_every_file(tmp_path, corpus_file):
    work, out = tmp_path / "w", tmp_path / "o"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work,
                 "--out", out] + SMALL_PIPELINE) == 0
    assert _run(["cluster", "--workdir", work, "--k-scan", "2,3"]) == 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Artifacts\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`|]+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
    assert len(rows) == len(dict(rows))
    assert set(dict(rows)) == {p.name for p in work.iterdir()} | {p.name for p in out.iterdir()}
    # the producer column agrees with the table `_require` and `build` use
    assert {name: dict(rows)[name].strip() for name in cli.ARTIFACTS} == \
        {name: producer for name, (_, producer) in cli.ARTIFACTS.items()}


def test_stage_flags_are_not_checked_against_other_stages_defaults(tmp_path, corpus_file):
    # select runs with the default clusters=1000, which it never reads
    work = tmp_path / "w"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "5"]) == 0


def test_manifests_byte_identical_across_cwds(tmp_path, corpus_file, monkeypatch):
    home_a = tmp_path / "cwd_a"
    home_b = tmp_path / "cwd_b"
    manifests = []
    for home in (home_a, home_b):
        home.mkdir()
        (home / "corpus.jsonl").write_bytes(Path(corpus_file).read_bytes())
        monkeypatch.chdir(home)
        assert _run(["run-all", "--input", "corpus.jsonl", "--workdir", "work",
                     "--out", "out"] + SMALL_PIPELINE) == 0
        manifests.append((home / "out" / cli.MANIFEST_FILE).read_bytes())
    assert manifests[0] == manifests[1]


DELIVERABLES = Path(__file__).with_name("deliverables.json")


def test_deliverables_match_the_recorded_hashes(tmp_path, monkeypatch):
    # The bytes depend on the numpy build, the C library's exp and log and the
    # machine, so deliverables.json keys its hashes by them. Under a key with no
    # record the hashes are printed (pytest -s shows them) and a second run in
    # another directory must give the same ones.
    key = f"numpy {np.__version__}, {' '.join(platform.libc_ver())}, {platform.machine()}"
    recorded = json.loads(DELIVERABLES.read_text())["run-all 3000"].get(key)
    write_corpus_jsonl(make_collection(3000, seed=7), tmp_path / "corpus.jsonl")
    runs = []
    for home in ("a",) if recorded else ("a", "b"):
        (tmp_path / home).mkdir()
        monkeypatch.chdir(tmp_path / home)          # the manifest echoes the relative paths
        assert _run(["run-all", "--input", "../corpus.jsonl", "--workdir", "work",
                     "--out", "out", "--min-chars", "100", "--hash-embed-dim", "128",
                     "--clusters", "3", "--kmeans-restarts", "1", "--sample-size", "30",
                     "--mmr-lambda", "0.5"]) == 0
        out = tmp_path / home / "out"
        runs.append({name: sha256_file(out / file) for name, file in (
            ("manifest", cli.MANIFEST_FILE), ("triples", cli.TRIPLES_FILE),
            ("pointwise", cli.POINTWISE_FILE))})
    if recorded:
        assert runs[0] == recorded, f"the deliverables moved under {key}"
    else:
        print(f"no record for {key}: {json.dumps(runs[0])}")
        assert runs[0] == runs[1]


def _cpu_switches() -> list[dict[str, str]]:
    """Child environments that change what numpy computes with on this CPU: another
    OpenBLAS kernel, and numpy's dispatch targets beyond its baseline switched off.

    Only targets this CPU has are named; numpy rejects one the CPU lacks.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    switches = [{"OPENBLAS_CORETYPE": "Prescott"}]
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if targets:
        switches.append({"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    return switches


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:                       # numpy before 1.26 only prints its config
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the switches name x86-64 kernels and dispatch targets")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="OPENBLAS_CORETYPE acts on OpenBLAS only")
def test_manifest_is_the_same_under_another_blas_kernel_and_simd_target(tmp_path):
    # no artifact may follow the BLAS kernel or numpy's SIMD target; each run is
    # a child process, so the switches act on it alone
    corpus_path = write_corpus_jsonl(make_collection(150, seed=3), tmp_path / "corpus.jsonl")
    script = "import sys; from rankforge import cli; sys.exit(cli.main(sys.argv[1:]))"
    manifests = []
    for i, switch in enumerate([{}] + _cpu_switches()):
        home = tmp_path / f"run{i}"           # the manifest echoes the relative paths
        home.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", script, "run-all", "--input", str(corpus_path),
             "--workdir", "work", "--out", "out", *BASE_FLAGS, "--clusters", "5",
             "--sample-size", "40", "--mmr-lambda", "0.5", "--seed", "7"],
            capture_output=True, text=True, cwd=home,
            env={**os.environ, **switch, "PYTHONPATH": child_pythonpath()})
        assert result.returncode == 0, result.stderr
        manifests.append((switch, (home / "out" / cli.MANIFEST_FILE).read_bytes()))
    for switch, manifest in manifests[1:]:
        assert manifest == manifests[0][1], f"the manifest moved under {switch}"


def test_config_file_layering(tmp_path, corpus_file):
    config = tmp_path / "pipeline.cfg"
    config.write_text(
        "# comment line\n"
        "seed = 3\n"
        "sample_size=6\n"
        "clusters=3\n"
        "min_chars=50\n"
        "hash_embed_dim=64\n"
        "sample_rounds=2\n"
        "first_stage_hits=12\n"
        "num_negatives=2\n",
        encoding="utf-8",
    )
    work, out = tmp_path / "w", tmp_path / "o"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work, "--out", out,
                 "--config", config, "--sample-size", "8"]) == 0
    echoed = json.loads((out / cli.MANIFEST_FILE).read_text())["config"]
    assert echoed["seed"] == 3              # config file beats the default
    assert echoed["sample_size"] == 8       # flag beats the config file
    assert echoed["clusters"] == 3
    assert echoed["softmax_temperature"] == 1.0   # untouched default


def test_config_file_errors(tmp_path, corpus_file):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n", encoding="utf-8")
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w",
                 "--config", bad]) == 2

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mystery_key=5\n", encoding="utf-8")
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w",
                 "--config", unknown]) == 2

    badval = tmp_path / "badval.cfg"
    badval.write_text("clusters=many\n", encoding="utf-8")
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w",
                 "--config", badval]) == 2

    out_of_bounds = tmp_path / "nan.cfg"
    out_of_bounds.write_text("kmeans_tol=nan\n", encoding="utf-8")
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w",
                 "--config", out_of_bounds]) == 2
    assert not (tmp_path / "w").exists()


def test_k_scan_writes_elbow(tmp_path, corpus_file, capsys):
    work = tmp_path / "w"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", work, "--k-scan", "1,2,3,4,5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "sse" in out.split() and "suggested K" in out
    elbow = json.loads((work / cli.ELBOW_FILE).read_text())
    assert [p["k"] for p in elbow["points"]] == [1, 2, 3, 4, 5]
    assert elbow["knee"] == 3               # the corpus has three topics
    assert not (work / cli.KMEANS_FILE).exists()

    capsys.readouterr()
    for text in ("5,2", "a,b", "0,2", ","):
        assert _run(["cluster", "--workdir", work, "--k-scan", text]) == 1, text
        assert capsys.readouterr().err.startswith("usage error: --k-scan "), text
    assert not (work / cli.KMEANS_FILE).exists()


def test_exit_codes(tmp_path, corpus_file, capsys):
    assert _run([]) == 1                                    # no subcommand
    assert _run(["ingest", "--nope"]) == 1                  # unknown flag
    assert _run(["nonsense"]) == 1                          # unknown subcommand
    assert _run(["ingest", "--input", tmp_path / "missing.jsonl",
                 "--workdir", tmp_path / "w"]) == 2          # absent input

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"_id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
    assert _run(["ingest", "--input", bad, "--workdir", tmp_path / "w"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err

    assert _run(["select", "--workdir", tmp_path / "never_made"]) == 2
    capsys.readouterr()

    # over-filtering leaves nothing
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w2",
                 "--min-chars", "100000"]) == 2

    # text inputs that are not UTF-8, and template or examples files of the wrong shape
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes('{"_id": "a", "text": "café"}\n'.encode("latin-1"))
    ext = tmp_path / "ext.bin"
    save_embeddings(np.ones((1, 8), dtype=np.float32), ext, ids=["a"])
    Path(str(ext) + ".ids").write_bytes(latin1.read_bytes())
    bad_template = tmp_path / "template.json"
    bad_template.write_text('{"preamble": ', encoding="utf-8")
    bad_examples = tmp_path / "examples.jsonl"
    bad_examples.write_text('{"document": 5, "query": "q"}\n', encoding="utf-8")
    work = tmp_path / "w3"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "6"]) == 0
    latin1_ids = tmp_path / "w5"
    shutil.copytree(work, latin1_ids)
    (latin1_ids / cli.IDS_FILE).write_bytes(latin1.read_bytes())
    capsys.readouterr()
    for argv in (
        ["ingest", "--input", latin1, "--workdir", tmp_path / "w4"],
        ["ingest", "--input", corpus_file, "--workdir", tmp_path / "w4", "--embeddings", ext],
        ["cluster", "--workdir", work, "--config", latin1],
        ["eval", "--run", latin1, "--qrels", latin1],
        ["generate", "--workdir", work, "--template", latin1],
        ["generate", "--workdir", work, "--examples", latin1],
        ["generate", "--workdir", work, "--template", bad_template],
        ["generate", "--workdir", work, "--examples", bad_examples],
        ["generate", "--workdir", latin1_ids],
    ):
        assert _run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_endpoint_failure_exits_three(tmp_path, corpus_file, capsys):
    work = tmp_path / "w"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3"]) == 0
    assert _run(["select", "--workdir", work, "--sample-size", "6"]) == 0
    code = _run(["generate", "--workdir", work, "--endpoint", "http://127.0.0.1:9/v1",
                 "--max-retries", "0", "--request-timeout", "2"])
    assert code == 3
    assert "endpoint error" in capsys.readouterr().err


def test_ingest_rejects_ids_the_sidecar_cannot_hold(tmp_path, capsys):
    # the `.ids` sidecar is one id per line; str.splitlines splits on all of these
    docs = make_collection(6, seed=2)
    for brk in ("\n", "\r", "\x85", "\u2028"):
        corpus_path = tmp_path / "c.jsonl"
        with open(corpus_path, "w", encoding="utf-8") as fh:
            for i, doc in enumerate(docs.values()):
                doc_id = doc.id + brk + "x" if i == 4 else doc.id
                fh.write(json.dumps({"_id": doc_id, "title": doc.title, "text": doc.text}) + "\n")
        work = tmp_path / "w"
        assert _run(["ingest", "--input", corpus_path, "--workdir", work, "--min-chars", "50"]) == 2
        assert "line 5: `_id`" in capsys.readouterr().err
        assert not (work / cli.COLLECTION_FILE).exists()


def test_ingest_holds_each_array_once(tmp_path):
    # Beside the loaded collection, ingest must hold the float32 embedding, the
    # int32 token ids, and one int64 per token: the index's sort keys, which
    # outweigh the index and the vocabulary left after them. Four embedding
    # blocks cover embed_collection's temporaries. A copy of the embedding
    # taken to write it, or the index built beside the embedding, exceeds this.
    n, d = 10_000, 512
    corpus_path = write_corpus_jsonl(make_collection(n, seed=7), tmp_path / "c.jsonl")
    tracemalloc.start()
    try:
        coll = load_collection(corpus_path)
        loaded, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tokens = corpus.tokenize_collection(coll).ids.size
    del coll
    tracemalloc.start()
    try:
        assert _run(["ingest", "--input", corpus_path, "--workdir", tmp_path / "w",
                     "--min-chars", "0", "--hash-embed-dim", d]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = loaded + n * d * 4 + n_tokens * (4 + 8) + 4 * embeddings._BLOCK_BYTES
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_build_peak_does_not_grow_with_the_collection_text(tmp_path):
    # build decodes only the documents of the pairs. Ten-times-longer texts in a
    # collection of the same ids raise its peak by those documents' texts, held
    # once, and a few documents' temporaries; never by the rest of the collection.
    corpus_path = write_corpus_jsonl(make_collection(3000, seed=7), tmp_path / "c.jsonl")
    short, long = tmp_path / "short", tmp_path / "long"
    assert _run(["run-all", "--input", corpus_path, "--workdir", short / "w",
                 "--out", short / "o"] + SMALL_PIPELINE) == 0
    shutil.copytree(short, long)
    docs = load_collection(short / "w" / cli.COLLECTION_FILE)
    corpus.save_collection({doc_id: dataclasses.replace(doc, text=" ".join([doc.text] * 10))
                            for doc_id, doc in docs.items()}, long / "w" / cli.COLLECTION_FILE)
    peaks = []
    for root in (short, long):
        tracemalloc.start()
        try:
            assert _run(["build", "--workdir", root / "w", "--out", root / "o"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    in_pairs = {doc_id for pair in mine.load_pairs(short / "w" / cli.PAIRS_FILE)
                for doc_id in (pair.positive_doc_id, *pair.negative_doc_ids)}
    growth = [9 * len(docs[doc_id].text) + 9 for doc_id in docs]      # chars added per document
    read_growth = sum(growth[i] for i, doc_id in enumerate(docs) if doc_id in in_pairs)
    bound = read_growth + 8 * max(growth)
    assert peaks[1] - peaks[0] < bound, (peaks, bound)
    assert bound < sum(growth) / 10       # the whole collection's growth would not pass


def test_external_embeddings_reordered_sidecar(tmp_path):
    # corpus with one too-short doc; external vectors shuffled and with an extra row
    docs = make_collection(6, seed=2)
    corpus_path = tmp_path / "c.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(docs.values()):
            text = "x" * 10 if i == 3 else doc.text        # doc 3 gets filtered out
            fh.write(json.dumps({"_id": doc.id, "title": doc.title, "text": text}) + "\n")

    kept_ids = [doc.id for i, doc in enumerate(docs.values()) if i != 3]
    rng = np.random.default_rng(0)
    ext_ids = ["extra0"] + kept_ids[::-1]                   # reversed plus a stranger
    ext = rng.normal(size=(len(ext_ids), 16)).astype(np.float32)
    ext_path = tmp_path / "ext.bin"
    save_embeddings(ext, ext_path, ids=ext_ids)

    work = tmp_path / "w"
    assert _run(["ingest", "--input", corpus_path, "--workdir", work,
                 "--embeddings", ext_path, "--min-chars", "50"]) == 0
    coll = load_collection(work / cli.COLLECTION_FILE)
    assert [d.id for d in coll.values()] == kept_ids
    stored = load_embeddings(work / cli.EMBEDDINGS_FILE)
    for i, doc_id in enumerate(kept_ids):
        np.testing.assert_array_equal(stored[i], ext[ext_ids.index(doc_id)])


def test_external_embeddings_missing_doc_fails(tmp_path, corpus_file):
    ext = np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32)
    ext_path = tmp_path / "ext.bin"
    save_embeddings(ext, ext_path, ids=["a", "b", "c"])
    assert _run(["ingest", "--input", corpus_file, "--workdir", tmp_path / "w",
                 "--embeddings", ext_path, "--min-chars", "50"]) == 2


def test_external_embeddings_ingest_writes_index_for_mine(tmp_path, corpus_file):
    plain = tmp_path / "plain"
    assert _run(["ingest", "--input", corpus_file, "--workdir", plain] + BASE_FLAGS) == 0
    coll = load_collection(plain / cli.COLLECTION_FILE)
    ext = np.random.default_rng(2).normal(size=(len(coll), 16)).astype(np.float32)
    ext_path = tmp_path / "ext.bin"
    save_embeddings(ext, ext_path, ids=[d.id for d in coll.values()])

    work = tmp_path / "w"
    _ingest_to_generate(work, corpus_file, "--embeddings", ext_path)
    # the index depends on the text only, not on where the vectors came from
    assert (work / cli.INDEX_FILE).read_bytes() == (plain / cli.INDEX_FILE).read_bytes()
    assert _run(["mine", "--workdir", work, "--first-stage-hits", "12",
                 "--num-negatives", "2"]) == 0
    assert len((work / cli.PAIRS_FILE).read_text().splitlines()) == 9


def test_mine_rejects_index_of_another_collection(tmp_path, corpus_file, capsys):
    work = tmp_path / "w"
    _ingest_to_generate(work, corpus_file)
    # the same documents in another order: every query id still resolves,
    # but the index ordinals no longer match the ids of the embedding rows
    reordered = tmp_path / "reordered.jsonl"
    lines = Path(corpus_file).read_text(encoding="utf-8").splitlines(keepends=True)
    reordered.write_text("".join(reversed(lines)), encoding="utf-8")
    other = tmp_path / "other"
    assert _run(["ingest", "--input", reordered, "--workdir", other] + BASE_FLAGS) == 0
    original = (work / cli.INDEX_FILE).read_bytes()
    (work / cli.INDEX_FILE).write_bytes((other / cli.INDEX_FILE).read_bytes())
    capsys.readouterr()
    assert _run(["mine", "--workdir", work]) == 2
    assert "index.bin does not index the documents of embeddings.bin.ids" in capsys.readouterr().err
    assert not (work / cli.PAIRS_FILE).exists()

    # the same ids with two of them swapped: the count and the set still match
    (work / cli.INDEX_FILE).write_bytes(original)
    ids_original = (work / cli.IDS_FILE).read_bytes()
    ids = ids_original.decode("utf-8").splitlines(keepends=True)
    ids[0], ids[1] = ids[1], ids[0]
    (work / cli.IDS_FILE).write_text("".join(ids), encoding="utf-8")
    assert _run(["mine", "--workdir", work]) == 2
    assert "index.bin does not index the documents of embeddings.bin.ids" in capsys.readouterr().err
    assert not (work / cli.PAIRS_FILE).exists()
    (work / cli.IDS_FILE).write_bytes(ids_original)

    # a document is read from its line of the collection, the line of its id in
    # `.ids`: the same documents in another order are refused, and nothing is written
    (work / cli.INDEX_FILE).write_bytes(original)
    _mine_and_build(work, tmp_path / "out")
    original_lines = (work / cli.COLLECTION_FILE).read_bytes().splitlines(keepends=True)
    (work / cli.COLLECTION_FILE).write_bytes((other / cli.COLLECTION_FILE).read_bytes())
    queries = (work / cli.QUERIES_FILE).read_bytes()
    capsys.readouterr()
    for argv in (["generate", "--workdir", work],
                 ["build", "--workdir", work, "--out", tmp_path / "out_reordered"]):
        assert _run(argv) == 2, argv
        err = capsys.readouterr().err
        assert re.search(r"collection\.jsonl does not hold the documents of embeddings\.bin\.ids "
                         r"line for line \(line \d+: `_id` '[^']+' is not '[^']+', the id of that "
                         r"line\); rerun `rankforge ingest`", err), err
    assert (work / cli.QUERIES_FILE).read_bytes() == queries
    assert not (tmp_path / "out_reordered").exists()
    # a collection without its last line has fewer lines than `.ids` has ids
    (work / cli.COLLECTION_FILE).write_bytes(b"".join(original_lines[:-1]))
    assert _run(["build", "--workdir", work, "--out", tmp_path / "out_reordered"]) == 2
    assert "(line 45: missing, " in capsys.readouterr().err
    assert not (tmp_path / "out_reordered").exists()

    # ingest is the producer of the index; a failed build makes no --out
    (work / cli.INDEX_FILE).unlink()
    capsys.readouterr()
    assert _run(["build", "--workdir", work, "--out", tmp_path / "out_failed"]) == 2
    assert "index.bin not found; run `rankforge ingest` first" in capsys.readouterr().err
    assert not (tmp_path / "out_failed").exists()
    assert _run(["mine", "--workdir", work]) == 2


def test_select_rejects_embeddings_or_model_of_another_ingest(tmp_path, corpus_file, capsys):
    work, other = tmp_path / "w", tmp_path / "other"
    assert _run(["ingest", "--input", corpus_file, "--workdir", work] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", work, "--clusters", "3"]) == 0
    smaller = write_corpus_jsonl(make_collection(44, seed=1), tmp_path / "smaller.jsonl")
    assert _run(["ingest", "--input", smaller, "--workdir", other] + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", other, "--clusters", "3"]) == 0
    capsys.readouterr()

    for name, message in [
        (cli.EMBEDDINGS_FILE, "embeddings.bin has 44 rows, embeddings.bin.ids 45 ids and "
                              "kmeans.bin 45 assignments"),
        (cli.KMEANS_FILE, "embeddings.bin has 45 rows, embeddings.bin.ids 45 ids and "
                          "kmeans.bin 44 assignments"),
    ]:
        original = (work / name).read_bytes()
        (work / name).write_bytes((other / name).read_bytes())
        assert _run(["select", "--workdir", work, "--sample-size", "6"]) == 2
        assert message in capsys.readouterr().err
        assert not (work / cli.SELECTED_FILE).exists()
        (work / name).write_bytes(original)
    assert _run(["select", "--workdir", work, "--sample-size", "6"]) == 0


def test_failed_ingest_leaves_the_previous_ingest_intact(tmp_path, capsys):
    work = tmp_path / "w"
    first = write_corpus_jsonl(make_collection(60, seed=4), tmp_path / "first.jsonl")
    assert _run(["ingest", "--input", first, "--workdir", work] + BASE_FLAGS) == 0
    before = {p.name: p.read_bytes() for p in work.iterdir()}

    # the 41st document passes the length filter but has no tokens to embed
    second = tmp_path / "second.jsonl"
    with open(second, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(make_collection(60, seed=5).values()):
            record = {"_id": "punct", "text": "!" * 400} if i == 40 else \
                {"_id": doc.id, "title": doc.title, "text": doc.text}
            fh.write(json.dumps(record) + "\n")
    capsys.readouterr()
    assert _run(["ingest", "--input", second, "--workdir", work] + BASE_FLAGS) == 2
    assert "document 'punct' has no tokens" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    # external vectors that miss the kept documents
    ext_path = tmp_path / "ext.bin"
    ext = np.random.default_rng(3).normal(size=(3, 8)).astype(np.float32)
    save_embeddings(ext, ext_path, ids=["a", "b", "c"])
    assert _run(["ingest", "--input", first, "--workdir", work,
                 "--embeddings", ext_path] + BASE_FLAGS) == 2
    assert "no embedding row for document" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


def test_failed_build_leaves_the_previous_build_intact(tmp_path, corpus_file, capsys):
    work, out = tmp_path / "w", tmp_path / "o"
    assert _run(["run-all", "--input", corpus_file, "--workdir", work,
                 "--out", out] + SMALL_PIPELINE) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {cli.TRIPLES_FILE, cli.POINTWISE_FILE, cli.MANIFEST_FILE}

    # the last negative of the last pair names a document that is not in the collection
    pairs_path = work / cli.PAIRS_FILE
    *head, last = pairs_path.read_text(encoding="utf-8").splitlines(keepends=True)
    pair = json.loads(last)
    pair["negative_doc_ids"][-1] = "no-such-doc"
    pairs_path.write_text("".join(head) + json.dumps(pair) + "\n", encoding="utf-8")
    work_files = {p.name for p in work.iterdir()}
    capsys.readouterr()
    assert _run(["build", "--workdir", work, "--out", out, "--seed", "7"]) == 2
    assert "unknown document id 'no-such-doc'" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert {p.name for p in work.iterdir()} == work_files


@pytest.fixture(scope="module")
def finished(tmp_path_factory) -> Path:
    """`corpus.jsonl`, `examples.jsonl`, a finished workdir `w` and its build `o`."""
    root = tmp_path_factory.mktemp("finished")
    corpus_path = write_corpus_jsonl(make_collection(45, seed=1), root / "corpus.jsonl")
    shutil.copy(querygen.builtin_examples_path("wikipedia"), root / "examples.jsonl")
    assert _run(["run-all", "--input", corpus_path, "--workdir", root / "w",
                 "--out", root / "o"] + SMALL_PIPELINE) == 0
    return root


def test_build_writes_the_manifest(finished, tmp_path):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    work, out = tmp_path / "w", tmp_path / "o"
    written = []
    for _ in range(2):
        assert _run(["build", "--workdir", work, "--out", out, "--seed", "7"]) == 0
        written.append((out / cli.MANIFEST_FILE).read_bytes())
    assert written[0] == written[1]

    manifest = json.loads(written[0])
    assert manifest["config"] == dataclasses.asdict(PipelineConfig(seed=7))
    assert manifest["counts"]["embedding_dim"] == 64 and manifest["counts"]["clusters"] == 3
    paths = {name: work / file for file, (name, _) in cli.ARTIFACTS.items()}
    paths.update(triples=out / cli.TRIPLES_FILE, pointwise=out / cli.POINTWISE_FILE)
    assert manifest["artifacts"] == {
        name: {"path": path.as_posix(), "sha256": sha256_file(path), "bytes": path.stat().st_size}
        for name, path in paths.items()
    }
    assert all("\\" not in a["path"] for a in manifest["artifacts"].values())
    # the index names its documents by the digest of the `.ids` bytes, not by a copy of them
    with open(work / cli.INDEX_FILE, "rb") as fh:
        digest = mine._HEADER.unpack(fh.read(mine._HEADER.size))[-1]
    assert digest.hex() == manifest["artifacts"]["embedding_ids"]["sha256"]


def test_build_checks_every_input_before_it_writes(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    work, out, fresh = tmp_path / "w", tmp_path / "o", tmp_path / "fresh"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(cli.ARTIFACTS) == 8
    for name, (_, producer) in cli.ARTIFACTS.items():
        (work / name).rename(tmp_path / name)
        capsys.readouterr()
        for target in (out, fresh):
            assert _run(["build", "--workdir", work, "--out", target, "--seed", "7"]) == 2
            assert f"{work / name} not found; run `rankforge {producer}` first" in \
                capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, name
        assert not fresh.exists(), name
        (tmp_path / name).rename(work / name)


def test_build_rejects_a_model_of_another_ingest(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    other = tmp_path / "other"
    write_corpus_jsonl(make_collection(50, seed=3), tmp_path / "other.jsonl")
    assert _run(["ingest", "--input", tmp_path / "other.jsonl", "--workdir", other]
                + BASE_FLAGS) == 0
    assert _run(["cluster", "--workdir", other, "--clusters", "3"]) == 0
    shutil.copy(other / cli.KMEANS_FILE, tmp_path / "w" / cli.KMEANS_FILE)
    before = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    capsys.readouterr()
    assert _run(["build", "--workdir", tmp_path / "w", "--out", tmp_path / "o"]) == 2
    assert f"{cli.KMEANS_FILE} 50 assignments" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()} == before


ABSENT = object()       # a field left out of the record


def _bad_field_exits_two(finished, tmp_path, capsys, file, field, value, argv):
    """Set `field` of the second record of `file` to `value`: the stage exits 2 and names both."""
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    path = tmp_path / file
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    if value is ABSENT:
        del record[field]
    else:
        record[field] = value
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    out = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    capsys.readouterr()
    assert _run(argv) == 2
    assert f"line 2: `{field}`" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()} == out


@pytest.mark.parametrize("field, value", [
    ("_id", None), ("_id", True), ("_id", 1.5), ("_id", ["a"]), ("_id", {"a": 1}), ("_id", ABSENT),
    ("text", None), ("text", 5), ("text", ["x"]), ("text", ABSENT),
    ("title", ["x"]), ("title", 5), ("title", False), ("_id", ""),
])
def test_collection_fields_have_their_types(finished, tmp_path, capsys, field, value):
    argv = ["ingest", "--input", tmp_path / "corpus.jsonl", "--workdir", tmp_path / "w2"]
    _bad_field_exits_two(finished, tmp_path, capsys, "corpus.jsonl", field, value,
                         argv + BASE_FLAGS)


def test_collection_takes_integer_ids_and_absent_or_null_titles(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"_id": 7, "text": "x"}\n{"_id": "b", "title": null, "text": "y"}\n'
                    '{"_id": -12, "title": "T", "text": "z"}\n', encoding="utf-8")
    coll = load_collection(path)
    assert [(d.id, d.title, d.text) for d in coll.values()] == [("7", "", "x"), ("b", "", "y"),
                                                        ("-12", "T", "z")]


@pytest.mark.parametrize("value", [None, 5, ["x"], ABSENT])
def test_build_checks_the_types_of_the_lines_it_decodes(finished, tmp_path, capsys, value):
    # line 2 holds a document of the pairs, so build decodes it
    ids = embeddings.load_ids(finished / "w" / cli.IDS_FILE)
    assert any(ids[1] in (pair.positive_doc_id, *pair.negative_doc_ids)
               for pair in mine.load_pairs(finished / "w" / cli.PAIRS_FILE))
    _bad_field_exits_two(finished, tmp_path, capsys, f"w/{cli.COLLECTION_FILE}", "text", value,
                         ["build", "--workdir", tmp_path / "w", "--out", tmp_path / "o"])


@pytest.mark.parametrize("field, value", [
    ("doc_id", None), ("doc_id", 5), ("doc_id", ABSENT),
    ("cluster", "0"), ("cluster", 1.0), ("cluster", True), ("cluster", None), ("cluster", ABSENT),
])
def test_selected_fields_have_their_types(finished, tmp_path, capsys, field, value):
    _bad_field_exits_two(finished, tmp_path, capsys, f"w/{cli.SELECTED_FILE}", field, value,
                         ["generate", "--workdir", tmp_path / "w"])


@pytest.mark.parametrize("field, value", [
    ("doc_id", None), ("doc_id", ["x"]), ("doc_id", ABSENT),
    ("query", 5), ("query", None), ("query", ABSENT),
    ("raw", 5), ("raw", None), ("raw", ABSENT),
    ("model", False), ("model", None), ("model", ABSENT),
])
def test_query_fields_have_their_types(finished, tmp_path, capsys, field, value):
    _bad_field_exits_two(finished, tmp_path, capsys, f"w/{cli.QUERIES_FILE}", field, value,
                         ["mine", "--workdir", tmp_path / "w"])


@pytest.mark.parametrize("field, value", [
    ("query", None), ("query", ABSENT),
    ("positive_doc_id", 5), ("positive_doc_id", ABSENT),
    ("negative_doc_ids", "x"), ("negative_doc_ids", [1]), ("negative_doc_ids", ABSENT),
    ("shortfall", "false"), ("shortfall", 0), ("shortfall", None), ("shortfall", ABSENT),
])
def test_pair_fields_have_their_types(finished, tmp_path, capsys, field, value):
    _bad_field_exits_two(finished, tmp_path, capsys, f"w/{cli.PAIRS_FILE}", field, value,
                         ["build", "--workdir", tmp_path / "w", "--out", tmp_path / "o"])


@pytest.mark.parametrize("field, value", [
    ("document", 5), ("document", None), ("document", ""), ("document", ABSENT),
    ("query", ["q"]), ("query", ""), ("query", ABSENT),
])
def test_example_fields_have_their_types(finished, tmp_path, capsys, field, value):
    _bad_field_exits_two(finished, tmp_path, capsys, "examples.jsonl", field, value,
                         ["generate", "--workdir", tmp_path / "w",
                          "--examples", tmp_path / "examples.jsonl"])


def test_generate_needs_as_many_examples_as_shots(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    (tmp_path / "w" / cli.QUERIES_FILE).unlink()
    examples = tmp_path / "examples.jsonl"
    examples.write_text("".join(examples.read_text(encoding="utf-8").splitlines(True)[:2]),
                        encoding="utf-8")
    capsys.readouterr()
    assert _run(["generate", "--workdir", tmp_path / "w", "--examples", examples]) == 2
    assert capsys.readouterr().err == f"error: {examples} has 2 examples, need 3\n"
    assert not (tmp_path / "w" / cli.QUERIES_FILE).exists()
    assert _run(["generate", "--workdir", tmp_path / "w", "--examples", examples,
                 "--shots", "2"]) == 0


def test_generate_rejects_a_selected_document_not_in_the_collection(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    work = tmp_path / "w"
    (work / cli.QUERIES_FILE).unlink()
    selected = (work / cli.SELECTED_FILE).read_text(encoding="utf-8").splitlines(keepends=True)
    selected[1] = json.dumps(dict(json.loads(selected[1]), doc_id="no-such-doc")) + "\n"
    (work / cli.SELECTED_FILE).write_text("".join(selected), encoding="utf-8")
    capsys.readouterr()
    assert _run(["generate", "--workdir", work]) == 2
    assert capsys.readouterr().err == \
        "error: selected document 'no-such-doc' missing from collection\n"
    assert not (work / cli.QUERIES_FILE).exists()


def test_generate_takes_the_longest_request_timeout(finished, tmp_path):
    # PipelineConfig's upper bound on request_timeout is one that the socket accepts
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    (tmp_path / "w" / cli.QUERIES_FILE).unlink()
    with MockLLMServer() as server:
        assert _run(["generate", "--workdir", tmp_path / "w", "--endpoint", server.endpoint,
                     "--request-timeout", repr(threading.TIMEOUT_MAX)]) == 0
    assert len(querygen.load_queries(tmp_path / "w" / cli.QUERIES_FILE)) == 9


def test_select_refuses_a_model_with_an_empty_cluster(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    work = tmp_path / "w"
    (work / cli.SELECTED_FILE).unlink()
    model = clustering.load_model(work / cli.KMEANS_FILE)
    model.assignments[model.assignments == 2] = 0
    clustering.save_model(model, work / cli.KMEANS_FILE)
    capsys.readouterr()
    assert _run(["select", "--workdir", work, "--sample-size", "9", "--sample-rounds", "3",
                 "--seed", "7"]) == 2
    assert capsys.readouterr().err == "error: every cluster must have at least one member\n"
    assert not (work / cli.SELECTED_FILE).exists()


class _NullCompletion(_Handler):
    """Answers every request with a 200 whose completion text is null."""

    def _reply(self, status, obj):
        super()._reply(status, {"choices": [{"text": None}]})


def test_generate_exits_three_when_no_completion_is_a_string(finished, tmp_path, capsys,
                                                             monkeypatch):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(httpclient, "BACKOFF_BASE", 0.0)
    queries = (tmp_path / "w" / cli.QUERIES_FILE).read_bytes()
    with MockLLMServer(handler=_NullCompletion) as server:
        assert _run(["generate", "--workdir", tmp_path / "w", "--endpoint", server.endpoint,
                     "--max-retries", "1"]) == 3
    assert "all 9 generation requests failed" in capsys.readouterr().err
    assert (tmp_path / "w" / cli.QUERIES_FILE).read_bytes() == queries


class _Unauthorized(_Handler):
    """Answers every request with a 401."""

    def _reply(self, status, obj):
        super()._reply(401, {"error": "bad key"})


def test_generate_exits_three_at_the_first_refused_credential(finished, tmp_path, capsys):
    shutil.copytree(finished, tmp_path, dirs_exist_ok=True)
    queries = (tmp_path / "w" / cli.QUERIES_FILE).read_bytes()
    capsys.readouterr()
    with MockLLMServer(handler=_Unauthorized) as server:
        assert _run(["generate", "--workdir", tmp_path / "w", "--endpoint", server.endpoint,
                     "--threads", "2"]) == 3
    assert capsys.readouterr().err == ("endpoint error: request refused: HTTP 401 Unauthorized; "
                                       f"check {httpclient.API_KEY_ENV}\n")
    assert (tmp_path / "w" / cli.QUERIES_FILE).read_bytes() == queries


def test_eval_subcommand(tmp_path, capsys):
    run_file = tmp_path / "run.txt"
    qrels_file = tmp_path / "qrels.txt"
    run_file.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n", encoding="utf-8")
    qrels_file.write_text("q1 0 d1 1\nq1 0 d3 1\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert _run(["eval", "--run", run_file, "--qrels", qrels_file,
                 "--report", report]) == 0
    out = capsys.readouterr().out
    assert "mean (1 queries)" in out
    data = json.loads(report.read_text())
    assert data["recall_k"] == 100
    assert data["mean_recall"] == pytest.approx(0.5)

    qrels_file.write_text("q1 0 d1\n", encoding="utf-8")
    assert _run(["eval", "--run", run_file, "--qrels", qrels_file]) == 2


def _console_script_target(name: str) -> str:
    """The `module:attr` that pyproject's [project.scripts] maps ``name`` to."""
    section = None
    for line in (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([^"]*)"', line)
            if match:
                return match.group(1)
    raise AssertionError(f"no [project.scripts] entry named {name!r} in pyproject.toml")


def test_console_script_entrypoint(tmp_path, corpus_file):
    # Runs the console script the way pip's generated wrapper does, on the
    # package this suite imported, so no install is needed.
    assert _console_script_target("rankforge") == "rankforge.cli:main"
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from rankforge.cli import main; sys.exit(main())",
         "ingest", "--input", str(corpus_file),
         "--workdir", str(tmp_path / "w"), "--min-chars", "50",
         "--hash-embed-dim", "64"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": child_pythonpath()},
    )
    assert result.returncode == 0, result.stderr
    assert "ingest: kept 45" in result.stdout


def test_runtime_imports_are_stdlib_and_numpy():
    # the declared runtime dependencies are numpy alone; a third-party import
    # anywhere under the CLI, the HTTP client or the mock server would need one more
    script = ("import json, sys; before = set(sys.modules); "
              "import rankforge.cli, rankforge.httpclient, rankforge.mockllm; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": child_pythonpath()})
    assert result.returncode == 0, result.stderr
    loaded = {name.split(".")[0] for name in json.loads(result.stdout)}
    assert "rankforge" in loaded and "numpy" in loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "rankforge"} == set()


def test_cli_import_leaves_out_the_http_stack():
    # only generate against an http(s) endpoint sends requests; every other
    # stage would pay the HTTP stack's import time and memory for nothing
    script = ("import json, sys; import rankforge.cli; print(json.dumps("
              "[m for m in ('http.client', 'ssl', 'email', 'urllib.request') "
              "if m in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": child_pythonpath()})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_run_all_leaves_out_numpy_ma(tmp_path, corpus_file):
    # importing numpy.ma costs a process 16-30 ms and 1.3 MB of RSS; np.unique
    # imports it on its first call, so no stage may call np.unique
    script = ("import json, sys; from rankforge import cli; code = cli.main(sys.argv[1:]); "
              "print(json.dumps([code, 'numpy.ma' in sys.modules]))")
    argv = ["run-all", "--input", str(corpus_file), "--workdir", str(tmp_path / "work"),
            "--out", str(tmp_path / "out"), "--endpoint", "mock:deterministic"]
    result = subprocess.run([sys.executable, "-c", script, *argv, *SMALL_PIPELINE],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": child_pythonpath()})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [0, False]


def test_defaults_match_documented_values():
    cfg = cli.PipelineConfig()
    assert cfg.min_chars == 300
    assert cfg.clusters == 1000
    assert cfg.sample_size == 1000
    assert cfg.softmax_temperature == 1.0
    assert cfg.mmr_lambda == 1.0
    assert cfg.sample_rounds == 5
    assert cfg.shots == 3
    assert cfg.decode_temperature == 0.0
    assert cfg.first_stage_hits == 100
    assert cfg.num_negatives == 4
    assert cfg.bm25_k1 == 0.9
    assert cfg.bm25_b == 0.4
    assert cfg.seed == 42
