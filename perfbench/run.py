"""Benchmark of the qpnbuf package: three seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload buffer-run --seed 1 --seconds 35 --trace 0

Workloads (BENCHMARK.json records why each was chosen and the metrics;
workloads.json its input properties, job time limit and the jobs that fail
on current code, with the reason):

* buffer-run: scenario runs through ``qpnbuf.cli.main``, trace parsing,
  replay with ``fire`` and the ``unfire`` chain, plus gated Fig. 2 nets.
* buffer-enumerate: free-selector outcome enumeration through the CLI.
* register-sim: flip-flop registers through ``run_circuit`` and QASM.

One process runs one job at a time (a closed loop with one client).  A
pass runs every job once, in a fixed order; passes repeat while another
fits in ``--seconds``.  ``wall_s`` is the median pass, and the latency
percentiles run over each job's median time across passes.  A job fails
if it raises, if its output check fails, or if it runs past the
workload's time limit.  A failed job is charged ``FAILED_CHARGE_FACTOR``
times its own time, at most the limit, so its charge follows the work it
did and a fix that makes it pass does not read as a regression.

Job, pass and set-up times are reported in speed-adjusted seconds:
measured seconds scaled by the host's speed at the time, which a fixed
pure-Python reference loop measures before and after each job (see
``host_speed``).  On a shared 2-vCPU x86_64 VM the CPU switched between
speeds up to 1.7x apart every second or so, and moved the median job
time of a 35-second run by up to 50%.  Measured seconds stay in the report.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` untraced passes run for half the time, one traced pass
follows, and the last line holds the per-layer metrics.  A report with the
environment, per-job latencies and failures is written to
``perfbench/out/``, and with ``--trace 1`` the spans as well.
"""

import os

# Pin BLAS threads to 1 before NumPy loads, here and in set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 7
TRACED_LIMIT_FACTOR = 4
# A failed job's charge, as a multiple of its own time until it failed.
# The known defects fail late (the gated jobs at their first unfire, the
# long SISO enumeration near its last firing), so a passing run of each
# takes less than twice its failing run.
FAILED_CHARGE_FACTOR = 2
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
# The reference loop's size, and its best-of-three time at full speed on a
# 2-vCPU x86_64 VM, Python 3.11, where speed-adjusted and measured seconds
# agree.
REF_LOOP_N = 4000
REF_LOOP_S = 0.0006
# Job time goes as the reference loop's time to this power.  Log-log slopes
# measured on that VM over 90 s of speed changes: 0.42 for a u=3 register
# job, 0.64 for a SISO n=100 run job, 0.73 for u=2 register jobs; the loop
# itself is more sensitive to the slow speed than the package's work is.
SPEED_EXPONENT = 0.5

# ROADMAP item 1 baselines (seconds) that the report reproduces.
ROADMAP_BASELINES = {
    "buffer-run": {"siso_run_n100": 0.010, "siso_run_n400": 0.081, "siso_run_n1600": 1.53,
                   "emit_trace_n1600": 0.24},
    "buffer-enumerate": {"simo_n10": 0.14, "simo_n12": 0.98, "simo_n14": 3.8},
    "register-sim": {"u3": 0.06, "u4": 9.5},
}


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job exceeds its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def import_package():
    """Import the checkout's own package, never an installed copy."""
    if not (SRC / "qpnbuf" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'qpnbuf'}")
    sys.path.insert(0, str(SRC))
    import qpnbuf

    if Path(qpnbuf.__file__).resolve().parent != (SRC / "qpnbuf").resolve():
        raise SystemExit(f"error: imported qpnbuf from {qpnbuf.__file__}, not {SRC}")
    return qpnbuf


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least 10 of ``n`` samples beyond it."""
    return next(p for p in TAIL_PERCENTILES if n - math.ceil(p / 100 * n) >= 10 or p == 50)


def _reference_loop():
    start = perf_counter()
    table = {}
    for i in range(REF_LOOP_N):
        table[str(i)] = i
    sum(table.values())
    return perf_counter() - start


def host_speed():
    """The factor that turns a job's measured seconds now into speed-adjusted ones.

    Best of three runs of a fixed loop that uses no part of the package,
    with the garbage collector off, so the program under test cannot move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (REF_LOOP_S / min(_reference_loop() for _ in range(3))) ** SPEED_EXPONENT
    finally:
        if enabled:
            gc.enable()


def _describe(exc):
    text = str(exc)
    return f"{type(exc).__name__}: {text.splitlines()[0] if text else ''}"


def run_pass(job_list, work, limit, tracer=None):
    """Run every job once; returns per-job outcomes and the pass's check time.

    A ``late_error`` the body returns instead of raising becomes the job's
    error only once its outputs pass their checks.  ``speed`` is the mean
    host speed measured before and after the job.
    """
    import jobs

    outcomes, verify_s, speed = [], 0.0, host_speed()
    for job in job_list:
        body, check = jobs.BODIES[job["type"]]
        if tracer is not None:
            tracer.job, tracer.on = (job["id"], job.get("tag")), True
        error, res = None, None
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = perf_counter()
        try:
            res = body(job, work)
        except JobTimeout:
            error = "timeout"
        except Exception as exc:  # job boundary: the failure is recorded, the pass goes on
            error = _describe(exc)
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.on = False
        t0 = perf_counter()
        counts, digest, wrong = {}, error and error.split(":")[0], None
        if res is not None:
            try:
                wrong = check(job, res)
            except Exception as exc:  # a crashing check is a failed check
                wrong = f"check raised {type(exc).__name__}: {exc}"
            counts = jobs.work_counts(job, res)
            digest = jobs.output_digest(job, res)
            if wrong is None and res.get("late_error") is not None:
                error = _describe(res["late_error"])
        del res
        verify_s += perf_counter() - t0
        before, speed = speed, host_speed()
        outcomes.append({
            "id": job["id"],
            "seconds": elapsed,
            "speed": (before + speed) / 2,
            "error": error,
            "wrong": wrong,
            "counts": counts,
            "digest": digest,
        })
    return {"outcomes": outcomes, "verify_s": verify_s}


def adjusted_seconds(p):
    """A pass's job times in speed-adjusted seconds."""
    return [o["seconds"] * o["speed"] for o in p["outcomes"]]


def latency_stats(passes, limit, failed):
    """Speed-adjusted timings; a job that failed in any pass is charged in each.

    ``wall_s`` is the median pass, and the percentiles run over each job's
    median time across passes.  ``charged_share`` is the median share of a
    pass's time that is charge for failed jobs rather than measured time.
    """
    charged = [[min(limit, FAILED_CHARGE_FACTOR * o["seconds"]) * o["speed"] if o["id"] in failed
                else o["seconds"] * o["speed"] for o in p["outcomes"]] for p in passes]
    per_job = [statistics.median(times) for times in zip(*charged)]
    tail = tail_percentile(len(per_job))
    return {
        "wall_s": statistics.median(sum(times) for times in charged),
        "p50_ms": 1000 * percentile(per_job, 50),
        "tail_ms": 1000 * percentile(per_job, tail),
        "tail_percentile": tail,
        "charged_share": statistics.median(
            (sum(times) - sum(adjusted_seconds(p))) / sum(times) for p, times in zip(passes, charged)
        ),
        "measured_wall_s": statistics.median(sum(o["seconds"] for o in p["outcomes"])
                                             for p in passes),
    }


def work_totals(p):
    totals = {}
    for o in p["outcomes"]:
        for key, value in o["counts"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def setup_probe(workload, seed):
    """Fresh interpreter: import the package and generate the inputs.

    Returns the speed-adjusted time and the inputs' digest.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    before = host_speed()
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return elapsed * (before + host_speed()) / 2, proc.stdout.strip()


def git_commit():
    """The checkout's commit; git is not asked to look above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed, qpnbuf):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qpnbuf": qpnbuf.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_probes(workload, seed, work):
    """Run the workload's probe jobs once untraced, for time, then once traced.

    Returns the tracer, each probe's untraced seconds, and any problems.
    """
    import jobs
    import tracer as tracing

    probes = inputs.probe_jobs(workload, seed)
    jobs.write_scenarios(probes, work)
    untraced = run_pass(probes, work, limit=600)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(probes, work, limit=600, tracer=tracer)
    finally:
        tracer.uninstall()
    problems = [f"probe {o['id']}: {o['error'] or o['wrong']}"
                for o in untraced["outcomes"] + traced["outcomes"] if o["error"] or o["wrong"]]
    mismatch = check_consistency([untraced, traced])
    if mismatch:
        problems.append(f"probe {mismatch}")
    return tracer, {o["id"]: o["seconds"] for o in untraced["outcomes"]}, problems


def baselines(workload, passes, tracer, probe, probe_seconds):
    """ROADMAP item-1 baselines beside this run's own times for them.

    The SISO ``run`` and ``emit_trace`` times are inclusive spans of the
    traced pass and probe, so they hold tracing overhead; the others are
    untraced job times.
    """
    if workload == "buffer-run":
        measured = {}
        if tracer is not None:
            for n in (100, 400):
                measured[f"siso_run_n{n}"] = tracer.by_tag[("engine.run", f"siso_n{n}")][1]
            measured["siso_run_n1600"] = probe.by_tag[("engine.run", "siso_n1600")][1]
            measured["emit_trace_n1600"] = probe.by_tag[("scenario.emit_trace", "siso_n1600")][1]
    else:
        lat = {}
        for p in passes:
            for o in p["outcomes"]:
                lat.setdefault(o["id"], []).append(o["seconds"])
        if workload == "buffer-enumerate":
            measured = {f"simo_n{n}": statistics.median(lat[f"simo_n{n}"]) for n in (10, 12)}
            measured["simo_n14"] = probe_seconds.get("simo_n14")
        else:
            u3 = [statistics.median(v) for k, v in lat.items() if k.startswith("u3_")
                  and "basis" in k]
            measured = {"u3": statistics.median(u3), "u4": probe_seconds.get("u4_normalized_basis_0")}
    return {key: {"roadmap_s": value, "measured_s": measured.get(key)}
            for key, value in ROADMAP_BASELINES[workload].items()}


def check_consistency(passes):
    """Every pass must produce the same outputs and the same work counts.

    A timed-out job has no output to compare; its failure is counted apart.
    """
    first = passes[0]["outcomes"]
    for p in passes[1:]:
        for a, b in zip(first, p["outcomes"]):
            if "timeout" in (a["error"], b["error"]):
                continue
            if (a["digest"], a["counts"]) != (b["digest"], b["counts"]):
                return f"job {a['id']} output or counts changed between passes"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    qpnbuf = import_package()
    job_list = inputs.generate(args.workload, args.seed)
    digest = inputs.digest(job_list)
    if args.setup_probe:
        print(digest)
        return 0

    import tracer as tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((BENCH_DIR / "workloads.json").read_text())[args.workload]
    limit = meta["job_time_limit_s"]
    known = {d["job"]: d["error"] for d in meta["known_defects"]}

    setups = [setup_probe(args.workload, args.seed) for _ in range(1 if args.trace else SETUP_PROBES)]
    problems = []
    if any(d != digest for _, d in setups):
        problems.append("a fresh interpreter generated different inputs for the same seed")

    import jobs

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs.write_scenarios(job_list, work)

    # Keep the inputs and the imported package out of every later GC pass.
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, start, last = [], perf_counter(), 0.0
    try:
        # Start a pass only if one more pass as long as the last still fits.
        while not passes or perf_counter() - start + last <= budget:
            gc.collect()
            pass_start = perf_counter()
            passes.append(run_pass(job_list, work, limit))
            last = perf_counter() - pass_start
        traced_pass, tracer, probe, probe_seconds = None, None, None, {}
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            gc.collect()
            try:
                traced_pass = run_pass(job_list, work, limit * TRACED_LIMIT_FACTOR, tracer)
            finally:
                tracer.uninstall()
            probe, probe_seconds, probe_problems = run_probes(args.workload, args.seed, work)
            problems += probe_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = check_consistency(passes + ([traced_pass] if traced_pass else []))
    if mismatch:
        problems.append(mismatch)
    failures = list({o["id"]: o for p in reversed(passes) for o in p["outcomes"]
                     if o["error"] or o["wrong"]}.values())
    stats = latency_stats(passes, limit, {o["id"] for o in failures})
    for o in failures:
        if o["wrong"]:
            problems.append(f"job {o['id']}: {o['wrong']}")
        elif known.get(o["id"]) != o["error"].split(":")[0]:
            problems.append(f"job {o['id']} failed with {o['error']} (not a known defect)")

    wall_s = stats["wall_s"]
    totals = work_totals(passes[0])
    e2e = {
        "wall_s": (wall_s, "s"),
        "job_ms_p50": (stats["p50_ms"], "ms"),
        "job_ms_tail": (stats["tail_ms"], "ms"),
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"failed_ratio": (len(failures) / len(job_list), "ratio")}
    if "firings" in totals:
        extra["firings_per_s"] = (totals["firings"] / wall_s, "1/s")
    if "gates" in totals:
        extra["gates_per_s"] = (totals["gates"] / wall_s, "1/s")

    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "environment": environment(args.seed, qpnbuf),
        "input_digest": digest,
        "input_properties": inputs.properties(args.workload, job_list),
        "job_time_limit_s": limit,
        "passes": len(passes),
        "jobs_per_pass": len(job_list),
        "tail_percentile": stats["tail_percentile"],
        "charged_share_of_wall_s": stats["charged_share"],
        "measured_wall_s": stats["measured_wall_s"],
        "work_counts": totals,
        "roadmap_baselines": baselines(args.workload, passes, tracer, probe, probe_seconds),
        "probe_seconds": probe_seconds,
        "failures": [{"id": o["id"], "error": o["error"], "wrong": o["wrong"]} for o in failures],
        "problems": problems,
        "job_seconds": {
            job["id"]: [p["outcomes"][i]["seconds"] for p in passes]
            for i, job in enumerate(job_list)
        },
        "job_speed_factor": {
            job["id"]: [p["outcomes"][i]["speed"] for p in passes]
            for i, job in enumerate(job_list)
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **extra}.items()},
    }
    if args.trace:
        import layers

        # Actual job time, not charged time: the traced limit is longer.
        traced_s = sum(adjusted_seconds(traced_pass))
        untraced_s = statistics.median(sum(adjusted_seconds(p)) for p in passes)
        per_layer = layers.per_layer_metrics(
            bench["per_layer"], tracer, traced_pass["verify_s"], traced_s / untraced_s - 1, probe
        )
        report["per_layer"] = per_layer
        report["traced_job_adjusted_seconds"] = traced_s
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer
    else:
        metrics = {k: report["end_to_end"][k] for k in e2e}
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# workload {args.workload}: {report['environment']}")
    print(f"# {len(passes)} passes of {len(job_list)} jobs; percentiles over each job's median "
          f"time, tail = p{stats['tail_percentile']} of {len(job_list)}; "
          f"{100 * stats['charged_share']:.1f}% of wall_s is charge for failed jobs; "
          f"report {report_path.relative_to(ROOT)}")
    for name, row in report["end_to_end"].items():
        print(f"{name} {row['value']:.6g} {row['unit']}")
    for key, row in report["roadmap_baselines"].items():
        print(f"# baseline {key}: roadmap {row['roadmap_s']} s, measured {row['measured_s']}")
    for o in failures:
        print(f"# failed {o['id']}: {o['error'] or o['wrong']}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    if args.trace:
        for name, row in metrics.items():
            print(f"{name} {row['value']:.6g} {row['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(job_list),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
