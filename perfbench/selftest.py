"""Self-test of the benchmark; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at a tiny shape through the same code path as a real
run, checks the generators, and checks that a tampered artifact is caught.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.ROOT))   # for tests.conftest

TINY = {
    "wide-k": dict(n_docs=600, clusters=40, sample_size=40),
    "few-k": dict(n_docs=600, clusters=3, sample_size=30),
    "zipf-http": dict(n_docs=900, clusters=8, sample_size=40),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def private_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def bench(wl: workloads.Workload, trace: bool, seed: int = 3) -> tuple[int, dict]:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.run(wl, seed, 1.0, trace)
    last = stdout.getvalue().strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    code, result = bench(wl, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


def test_topic_corpus_matches_test_suite_corpus(tmp_path):
    from tests import conftest

    expected = conftest.write_corpus_jsonl(conftest.make_collection(300, seed=7), tmp_path / "a")
    workloads.topic_corpus(300, 7).write_jsonl(tmp_path / "b")
    assert (tmp_path / "b").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("make", [workloads.topic_corpus, workloads.zipf_corpus])
def test_generators_are_deterministic_per_seed(make):
    assert make(500, 11).docs == make(500, 11).docs
    assert make(500, 11).docs != make(500, 12).docs


def test_zipf_words_are_distinct_single_tokens():
    from rankforge.corpus import tokenize

    words = [workloads.zipf_word(w) for w in range(workloads.ZIPF_VOCAB)]
    assert len(set(words)) == len(words)
    assert all(tokenize(w) == [w] for w in words[:: 997])


def test_tampered_artifact_fails_the_run(monkeypatch):
    real = run.run_sample

    def tampering(spec, sample_dir, deadline):
        result = real(spec, sample_dir, deadline)
        with open(sample_dir / "out" / "triples.tsv", "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        return result

    monkeypatch.setattr(run, "run_sample", tampering)
    wl = dataclasses.replace(workloads.WORKLOADS["few-k"], **TINY["few-k"])
    code, result = bench(wl, trace=False)
    assert code == 0
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] == 0.0
    assert result["metrics"]["total_s"]["value"] is None   # failed samples give no time


def test_changed_manifest_across_runs_fails(monkeypatch):
    wl = dataclasses.replace(workloads.WORKLOADS["few-k"], **TINY["few-k"])
    assert bench(wl, trace=False)[1]["correct"]
    store = next((run.OUT / "manifests").iterdir())
    store.write_text("0" * 64 + "\n")
    assert not bench(wl, trace=False)[1]["correct"]


def test_missing_function_is_reported_not_fatal(monkeypatch):
    import tracing

    for module_name, attr, _ in tracing.WRAPPED + [("querygen", "make_client", None)]:
        module = importlib.import_module(f"rankforge.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))   # restored after the test
    gone = [("mine", "no_such_function", None), ("no_such_module", "fit", None)]
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + gone)
    assert tracing.install(tracing.Tracer("t")) == ["mine.no_such_function", "no_such_module.fit"]


def test_self_time_subtracts_children():
    import tracing

    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0},
    ]
    assert tracing.self_times(spans) == {0: 5.0, 1: 3.0, 2: 3.0}
