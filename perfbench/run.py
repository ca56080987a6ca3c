"""rankforge benchmark: time-to-dataset of ``run-all`` on three corpus shapes.

    python3 perfbench/run.py --workload wide-k --seed 7 --seconds 36 --trace 0

Run from the root of a checkout. Each run generates its corpus from
``--seed`` (set-up, repeated through the run and reported as a mean), then runs the
pipeline in fresh processes, checks every output and prints one JSON
object as the last line of stdout:

* ``--trace 0``: untraced ``run-all`` samples until ``--seconds`` is used
  up; end-to-end metrics are medians over the samples that passed every
  check.
* ``--trace 1``: one untraced ``run-all`` and one traced stage-by-stage
  run; per-layer metrics come from the traced run's spans, which are
  written to ``.perfbench_out/traces/``.

See ``perfbench/README.md`` for the workloads and what each metric should
show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_LIMIT_S = 170.0     # a run must end well within the 180 s a run is allowed
SERVER_WAIT_S = 30.0
SETUP_GAP_S = 0.6       # set-up repeated between samples for at least this long


class BenchError(Exception):
    """The benchmark itself could not run (not a failed pipeline output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def env_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def code_id() -> str:
    """Hash of the program's sources, so stored manifests are per program version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rankforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class MockServer:
    """``rankforge.mockllm`` in its own process on a free local port."""

    def __init__(self, log_path: Path):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            self.port = sock.getsockname()[1]
        self.endpoint = f"http://127.0.0.1:{self.port}/v1/completions"
        self._log = open(log_path, "ab")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "rankforge.mockllm", "--port", str(self.port)],
            env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> None:
        body = json.dumps({"prompt": "ready?", "stop": ["\n"]}).encode()
        deadline = time.monotonic() + SERVER_WAIT_S
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise BenchError(f"mock LLM server exited with {self._proc.returncode}")
            request = urllib.request.Request(
                self.endpoint, data=body, headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request, timeout=2) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError, TimeoutError):
                time.sleep(0.02)
        raise BenchError(f"mock LLM server did not answer within {SERVER_WAIT_S} s")

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._log.close()


def set_up(wl: workloads.Workload, seed: int, corpus_path: Path, servers: list):
    """Write the corpus and, on HTTP workloads, start a server; returns (corpus, seconds)."""
    start = time.perf_counter()
    corpus = workloads.make_corpus(wl, seed)
    corpus.write_jsonl(corpus_path)
    if wl.http:
        servers.append(MockServer(corpus_path.with_suffix(".mockllm.log")))
        servers[-1].wait_ready()
    return corpus, time.perf_counter() - start


def run_sample(spec: dict, sample_dir: Path, deadline: float) -> dict:
    shutil.rmtree(sample_dir, ignore_errors=True)
    sample_dir.mkdir(parents=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another sample")
    with open(sample_dir / "sample.log", "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
                cwd=sample_dir, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": "timeout", "total_s": timeout, "peak_rss_mb": 0.0}
    result_path = sample_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    result.setdefault("total_s", 0.0)
    result.setdefault("peak_rss_mb", 0.0)
    if proc.returncode != 0 or result.get("exit_code") != 0:
        result["exit_code"] = proc.returncode
    return result


def check_sample(sample_dir: Path, wl: workloads.Workload, kept: int, endpoint: str,
                 result: dict) -> list[str]:
    """Every output check of one sample; returns the problems found."""
    if result.get("exit_code") != 0:
        return [f"exit code {result.get('exit_code')}"]
    from rankforge import cluster, selection

    problems = []
    manifest_path = sample_dir / "out" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    c = manifest["counts"]
    expected = {
        "documents": kept,
        "selected": wl.sample_size,
        "pairs": c["queries"],
        "triples": c["negatives"],
        "pointwise_records": c["pairs"] + c["negatives"],
    }
    for key, want in expected.items():
        if c[key] != want:
            problems.append(f"manifest counts.{key} = {c[key]}, expected {want}")

    model = cluster.load_model(sample_dir / "work" / "kmeans.bin")
    allocation = selection.allocate_sizes(model.cluster_sizes(), wl.sample_size)
    per_cluster = Counter(
        json.loads(line)["cluster"]
        for line in (sample_dir / "work" / "selected.jsonl").read_text().splitlines()
    )
    picked = [per_cluster.get(k, 0) for k in range(model.K)]
    if picked != allocation.sizes.tolist():
        problems.append("per-cluster selections differ from selection.allocate_sizes")

    for name, art in manifest["artifacts"].items():
        path = sample_dir / art["path"]
        if not path.is_file() or sha256_file(path) != art["sha256"]:
            problems.append(f"artifact {name} does not match its manifest sha256")
    # the manifest echoes the endpoint, whose port differs per run on zipf-http
    raw = manifest_path.read_bytes().replace(endpoint.encode(), b"<endpoint>")
    result["manifest_sha256"] = hashlib.sha256(raw).hexdigest()
    result["manifest"] = manifest
    return problems


def check_same_manifest(store: Path, manifest_sha: str) -> list[str]:
    """Every run on the same program, workload and corpus must give the same manifest."""
    if store.exists():
        previous = store.read_text().strip()
        if previous != manifest_sha:
            return [f"manifest {manifest_sha[:12]} differs from an earlier run's {previous[:12]}"]
        return []
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(manifest_sha + "\n")
    os.replace(tmp, store)
    return []


def compare_stagewise(untraced: dict, traced: dict) -> list[str]:
    """The traced stage-by-stage run must produce the run-all artifacts and counts."""
    a, b = untraced["manifest"], traced["manifest"]
    problems = []
    if a["counts"] != b["counts"]:
        problems.append("stagewise counts differ from run-all")
    for name in sorted(set(a["artifacts"]) | set(b["artifacts"])):
        if a["artifacts"].get(name, {}).get("sha256") != b["artifacts"].get(name, {}).get("sha256"):
            problems.append(f"stagewise artifact {name} differs from run-all")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankforge" / "cli.py").is_file():
        print(f"error: no rankforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # turn SIGTERM into SystemExit so the finally blocks stop the child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = OUT / "runs" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    servers: list[MockServer] = []
    try:
        result = measure(wl, seed, seconds, trace, rundir, servers, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        while servers:
            servers.pop().stop()
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, seed, seconds, trace, rundir, servers, deadline) -> dict:
    from rankforge.errors import RankforgeError

    stamp = env_stamp()
    print("env: " + json.dumps(stamp))
    corpus_path = rundir / "corpus.jsonl"
    corpus, first_setup_s = set_up(wl, seed, corpus_path, servers)
    setup_times = [first_setup_s]
    digest = sha256_file(corpus_path)
    endpoint = servers[0].endpoint if wl.http else "mock:deterministic"

    def repeat_setup() -> None:
        """Set up again beside the set-up in use, and check it gives the same corpus.

        Host load switches between fast and slow phases of seconds to
        minutes, so repeats back to back all land in one phase. Spread over
        the whole run they sample several phases; their mean is steadier
        between runs than their median or minimum, which jump from one
        phase's level to the other's."""
        path = rundir / "corpus-repeat.jsonl"
        spent = 0.0
        while spent < SETUP_GAP_S:
            _, seconds = set_up(wl, seed, path, servers)
            if wl.http:
                servers.pop().stop()
            if sha256_file(path) != digest:
                raise BenchError("corpus generator is not deterministic for one seed")
            setup_times.append(seconds)
            spent += seconds

    kept = len(corpus.kept_texts(wl.min_chars))
    key = hashlib.sha256(f"{code_id()} {wl!r} {digest}".encode()).hexdigest()[:16]
    manifest_store = OUT / "manifests" / f"{wl.name}-{seed}-{key}.sha256"
    spec = {
        "input": str(corpus_path), "endpoint": endpoint,
        "pipeline_seed": workloads.PIPELINE_SEED, "flags": wl.stage_flags(),
        "run_id": f"{wl.name}-{seed}-{os.getpid()}",
    }
    samples: list[dict] = []

    def sample(mode: str) -> dict:
        sample_dir = rundir / f"sample{len(samples)}"
        result = run_sample(dict(spec, mode=mode), sample_dir, deadline)
        try:
            problems = check_sample(sample_dir, wl, kept, endpoint, result)
        except (OSError, ValueError, KeyError, TypeError, RankforgeError) as exc:
            problems = [f"output check raised {exc!r}"]
        if not problems and mode == "runall":
            problems = check_same_manifest(manifest_store, result["manifest_sha256"])
        result.update(problems=problems, dir=sample_dir)
        samples.append(result)
        return result

    start = time.monotonic()
    if trace:
        untraced = sample("runall")
        traced = sample("traced")
        if not (untraced["problems"] or traced["problems"]):
            traced["problems"] = compare_stagewise(untraced, traced)
    else:
        while True:
            sample("runall")
            repeat_setup()
            elapsed = time.monotonic() - start
            per_sample = elapsed / len(samples)
            if elapsed + per_sample > seconds or time.monotonic() + per_sample > deadline:
                break

    for i, s in enumerate(samples):
        for problem in s["problems"]:
            print(f"FAILED sample {i}: {problem}", file=sys.stderr)
    checked = [s for s in samples if "manifest" in s]
    if checked:
        art = checked[-1]["manifest"]["artifacts"]
        shas = {name: art[name]["sha256"] for name in ("triples", "pointwise") if name in art}
        shas["manifest_without_endpoint"] = checked[-1]["manifest_sha256"]
        print("deliverables: " + json.dumps(shas, sort_keys=True))
    failed = sum(1 for s in samples if s["problems"])
    print(f"samples: {len(samples)}, error_rate: {failed / len(samples)}")

    if trace:
        values = traced_metrics(wl, seed, corpus, untraced, traced, stamp)
    else:
        print(f"total_s per sample: {[s['total_s'] for s in samples]}")
        print(f"setup_s per repeat: {setup_times}")
        passed = [s for s in samples if not s["problems"]]

        def median(key):
            # a failed sample's times are not the program's: they stay out of the figures
            return statistics.median(key(s) for s in passed) if passed else None

        values = {
            "total_s": median(lambda s: s["total_s"]),
            "peak_rss_mb": median(lambda s: s["peak_rss_mb"]),
            "setup_s": statistics.mean(setup_times),
            "ok_rate": 1.0 - failed / len(samples),
            "query_yield": median(lambda s: s["manifest"]["counts"]["queries"]
                                  / s["manifest"]["counts"]["selected"]),
        }
    declared = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def traced_metrics(wl, seed, corpus, untraced, traced, stamp) -> dict:
    import tracing

    spans = json.loads((traced["dir"] / "spans.json").read_text()) \
        if (traced["dir"] / "spans.json").exists() else []
    m = tracing.layer_metrics(spans, workloads.THREADS)
    index = traced["dir"] / "work" / "index.bin"
    m["mine.index_bytes"] = index.stat().st_size if index.exists() else 0
    m["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
    props = workloads.input_properties(corpus, wl.min_chars)
    print("input: " + json.dumps(props))

    summary = tracing.summarize(spans)
    if traced.get("missing"):
        print("missing: " + ", ".join(traced["missing"]))
    print(f"{'span':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<36} {row['calls']:>7} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{wl.name}-{seed}.json").write_text(json.dumps({
        "env": stamp, "workload": wl.name, "seed": seed, "input": props,
        "missing": traced.get("missing", []), "untraced_total_s": untraced["total_s"],
        "traced_total_s": traced["total_s"], "summary": summary, "metrics": m, "spans": spans,
    }))
    return {name: float(value) for name, value in m.items()}


if __name__ == "__main__":
    sys.exit(main())
