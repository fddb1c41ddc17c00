"""Tests of the benchmark itself: seeded inputs, repeatable work, tracing.

Run from the checkout root with ``python3 -m pytest perfbench``.  Each
test runs a cheap subset of a workload's jobs, not the whole workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import layers
import run

run.import_package()
import jobs  # noqa: E402  (needs the package on sys.path)
import tracer as tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
META = json.loads((BENCH / "workloads.json").read_text())
PER_LAYER = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]

# Cheap jobs per workload; gated_p64 fails on a known defect and stays in.
SUBSETS = {
    "buffer-run": lambda j: j["id"].endswith(("_0", "_1")) or j["id"] in ("siso_n100", "gated_p64"),
    "buffer-enumerate": lambda j: j["id"].endswith(("_0", "_1", "_2")) or j["id"] == "siso_n50",
    "register-sim": lambda j: j["u"] <= 2,
}


def _subset(workload, seed=5):
    return [j for j in inputs.generate(workload, seed) if SUBSETS[workload](j)]


def _run(workload, job_list, tmp_path, traced):
    work = tmp_path / workload
    work.mkdir(exist_ok=True)
    jobs.write_scenarios(job_list, work)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = run.run_pass(job_list, work, limit=60, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, tracer


def _outputs(result):
    return [(o["id"], o["digest"], o["counts"], o["error"], o["wrong"]) for o in result["outcomes"]]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert inputs.digest(inputs.generate(workload, 7)) == inputs.digest(inputs.generate(workload, 7))
    assert inputs.digest(inputs.generate(workload, 7)) != inputs.digest(inputs.generate(workload, 8))
    # A fresh interpreter with another hash seed generates the same bytes.
    probe = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", "7"],
        capture_output=True, text=True, env={"PYTHONHASHSEED": "123"}, timeout=120, check=True,
    )
    assert probe.stdout.strip() == inputs.digest(inputs.generate(workload, 7))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_recorded_properties_match_generator(workload):
    for seed in (0, 3):
        job_list = inputs.generate(workload, seed)
        assert inputs.properties(workload, job_list) == META[workload]["input_properties"]
        ids = {j["id"] for j in job_list}
        assert {d["job"] for d in META[workload]["known_defects"]} <= ids


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_runs_agree_and_repeat(workload, tmp_path):
    job_list = _subset(workload)
    first, _ = _run(workload, job_list, tmp_path, traced=False)
    second, t2 = _run(workload, job_list, tmp_path, traced=True)
    third, t3 = _run(workload, job_list, tmp_path, traced=True)
    assert _outputs(first) == _outputs(second) == _outputs(third)
    known = {d["job"]: d["error"] for d in META[workload]["known_defects"]}
    for o in first["outcomes"]:
        assert o["wrong"] is None, o
        assert o["error"] is None or known.get(o["id"]) == o["error"].split(":")[0], o
    # Work counts the tracer sees repeat exactly between traced runs.
    a = layers.per_layer_metrics(PER_LAYER, t2, 0.0, 0.0)
    b = layers.per_layer_metrics(PER_LAYER, t3, 0.0, 0.0)
    for key in ("engine.enumerate.states", "engine.enumerate.signatures", "scenario.trace_bytes",
                "engine.fire.calls", "statevector.apply.calls"):
        assert a[key] == b[key], key


def test_gated_outputs_are_checked_before_the_unfire_chain_fails(tmp_path):
    job = next(j for j in inputs.generate("buffer-run", 5) if j["id"] == "gated_p64")
    res = jobs.run_gated_job(job, tmp_path)
    known = {d["job"]: d["error"] for d in META["buffer-run"]["known_defects"]}
    assert type(res["late_error"]).__name__ == known["gated_p64"]
    assert jobs.check_gated(job, res) is None
    # Another pairing of the basis payloads must fail the payload check.
    assert jobs.check_gated(dict(job, b=job["b"][1:] + job["b"][:1]), res) is not None


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "register-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
