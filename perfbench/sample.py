"""One benchmark sample, in a fresh process: ``sample.py SPEC_JSON``.

The spec names the mode, the corpus, the endpoint and the pipeline flags
of each stage. The sample runs in its working directory (``work/`` and
``out/`` are relative, so manifests are identical across samples) and
writes ``result.json`` there:

* ``runall``: one timed ``cli.main(["run-all", ...])``, untraced;
* ``traced``: the functions listed in ``tracing.WRAPPED`` are wrapped,
  then ``cli.main`` runs stage by stage; the spans go to ``spans.json``.

The process exits with the pipeline's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing

STAGES = ("ingest", "cluster", "select", "generate", "mine", "build")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_argv(spec: dict, stage: str) -> list[str]:
    argv = [stage, "--workdir", "work", "--seed", str(spec["pipeline_seed"])]
    if stage == "ingest":
        argv += ["--input", spec["input"]]
    elif stage == "generate":
        argv += ["--endpoint", spec["endpoint"]]
    elif stage == "build":
        argv += ["--out", "out"]
    return argv + spec["flags"][stage]


def run_all(spec: dict) -> dict:
    from rankforge import cli

    argv = ["run-all", "--input", spec["input"], "--workdir", "work", "--out", "out",
            "--seed", str(spec["pipeline_seed"]), "--endpoint", spec["endpoint"]]
    for stage in STAGES:
        argv += spec["flags"][stage]
    start = time.perf_counter()
    code = cli.main(argv)
    return {"exit_code": code, "total_s": time.perf_counter() - start, "peak_rss_mb": _rss_mb()}


def run_traced(spec: dict) -> dict:
    from rankforge import cli

    tracer = tracing.Tracer(spec["run_id"])
    missing = tracing.install(tracer)
    code = 0
    start = time.perf_counter()
    for stage in STAGES:
        code = tracer.call(f"cli.{stage}", cli.main, (stage_argv(spec, stage),), {},
                           lambda a, kw, r: {"rss_mb": _rss_mb()})
        if code != 0:
            break
    total = time.perf_counter() - start
    Path("spans.json").write_text(json.dumps(sorted(tracer.spans, key=lambda s: s["start"])))
    return {"exit_code": code, "total_s": total, "peak_rss_mb": _rss_mb(), "missing": missing}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    result = run_traced(spec) if spec["mode"] == "traced" else run_all(spec)
    Path("result.json").write_text(json.dumps(result))
    return int(result["exit_code"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
