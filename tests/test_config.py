"""The single PipelineConfig: every bound, and no drift from the CLI or the README."""

import dataclasses
import re
import sys
from pathlib import Path

import pytest

from rankforge import cli
from rankforge.config import PipelineConfig
from rankforge.errors import DataError
from tests.conftest import make_collection, write_corpus_jsonl
from tests.test_cli import BASE_FLAGS

NAN, INF = float("nan"), float("inf")

# one value just outside each bound; NaN for every float field, and
# infinity for those without an upper bound
OUT_OF_BOUNDS = [
    ("min_chars", -1), ("hash_embed_dim", 7), ("seed", -1),
    ("clusters", 0), ("kmeans_restarts", 0), ("kmeans_max_iters", 0), ("sample_size", 0),
    ("sample_rounds", 0), ("max_new_tokens", 0), ("max_doc_chars", 0), ("threads", 0),
    ("ndcg_k", 0), ("recall_k", 0),
    ("kmeans_tol", -1e-9), ("kmeans_tol", NAN), ("kmeans_tol", INF),
    ("decode_temperature", -0.1), ("decode_temperature", NAN), ("decode_temperature", INF),
    ("shots", -1), ("max_retries", -1),
    ("bm25_k1", -0.1), ("bm25_k1", NAN), ("bm25_k1", INF),
    ("softmax_temperature", 0.0), ("softmax_temperature", NAN), ("softmax_temperature", INF),
    ("softmax_temperature", 1e-310),       # subnormal: cosines over it overflow
    ("request_timeout", 0.0), ("request_timeout", NAN), ("request_timeout", INF),
    ("request_timeout", 1e10),
    ("mmr_lambda", -0.1), ("mmr_lambda", 1.1), ("mmr_lambda", NAN),
    ("bm25_b", -0.1), ("bm25_b", 5.0), ("bm25_b", NAN),
    ("first_stage_hits", 1), ("num_negatives", 0), ("num_negatives", 100),
    ("endpoint", ""), ("model", ""),
]

# a run-all that succeeds on a 45-document corpus when nothing else is set
RUNNABLE = BASE_FLAGS + ["--clusters", "3", "--sample-size", "9", "--sample-rounds", "3",
                         "--seed", "7"]


@pytest.mark.parametrize("name,value", OUT_OF_BOUNDS)
def test_out_of_bounds_value_is_rejected_before_any_stage(tmp_path, name, value):
    with pytest.raises(DataError, match=f"^{name} must be"):
        PipelineConfig(**{name: value})

    corpus = write_corpus_jsonl(make_collection(45, seed=1), tmp_path / "corpus.jsonl")
    work = tmp_path / "work"
    flag = "--" + name.replace("_", "-") + "=" + str(value)   # "=" lets "-1e-09" through
    argv = ["run-all", "--input", str(corpus), "--workdir", str(work),
            "--out", str(tmp_path / "out")] + RUNNABLE + [flag]
    assert cli.main(argv) == 2
    assert not work.exists()


def test_values_on_each_bound_are_accepted():
    PipelineConfig(min_chars=0, hash_embed_dim=8, seed=0, clusters=1, kmeans_restarts=1,
                   kmeans_max_iters=1, kmeans_tol=0.0, sample_size=1, sample_rounds=1,
                   shots=0, decode_temperature=0.0, max_new_tokens=1, max_doc_chars=1,
                   first_stage_hits=2, num_negatives=1, bm25_k1=0.0, bm25_b=0.0,
                   mmr_lambda=0.0, threads=1, max_retries=0, ndcg_k=1, recall_k=1)
    PipelineConfig(mmr_lambda=1.0, bm25_b=1.0, softmax_temperature=sys.float_info.min,
                   request_timeout=1e-9, endpoint="x", model="m")


def test_a_temperature_that_leaves_too_few_drawable_members_is_named(tmp_path, capsys):
    # 1e-5 underflows every softmax probability of cluster 0 but two, under its budget of 3
    corpus = write_corpus_jsonl(make_collection(45, seed=1), tmp_path / "corpus.jsonl")
    flags = ["--min-chars", "0", "--clusters", "3", "--sample-size", "9", "--sample-rounds", "3",
             "--seed", "7"]
    for temperature, code in (("1e-4", 0), ("1e-5", 2)):
        argv = ["run-all", "--input", str(corpus), "--workdir", str(tmp_path / temperature),
                "--out", str(tmp_path / temperature / "out"), "--softmax-temperature", temperature]
        capsys.readouterr()
        assert cli.main(argv + flags) == code, temperature
    assert capsys.readouterr().err.endswith(
        "error: cluster 0: softmax_temperature 1e-05 gives 2 members a nonzero probability, "
        "fewer than its budget 3\n")


def test_every_field_is_a_run_all_flag_and_a_readme_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| `?([^|`]*?)`? \|", section, flags=re.MULTILINE))
    parser = cli.build_parser()
    for f in dataclasses.fields(PipelineConfig):
        assert f.name in rows, f"README configuration table has no row for {f.name}"
        assert type(f.default)(rows[f.name]) == f.default, f.name
        args = parser.parse_args(["run-all", "--input", "c", "--workdir", "w", "--out", "o",
                                  "--" + f.name.replace("_", "-"), str(f.default)])
        assert getattr(args, f.name) == f.default, f.name
    assert set(rows) <= {f.name for f in dataclasses.fields(PipelineConfig)}
