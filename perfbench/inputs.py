"""Seeded job lists for the three benchmark workloads.

Each workload is a fixed list of jobs.  The list's structure (job kinds,
sizes, payload widths, which payloads are superposed, where a selection is
skipped) never depends on the seed, so every seed asks for the same amount
of work; the seed only chooses values: basis labels, amplitudes, address
programs, scripts, drive rows, shot counts and dense states.

This module needs no part of the package under test, so inputs can be
generated (and hashed) before and apart from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

WORKLOADS = ("buffer-run", "buffer-enumerate", "register-sim")


def _rng(seed: int, *salt) -> random.Random:
    """One independent stream per (seed, workload, job) triple."""
    return random.Random(f"{seed}/" + "/".join(str(s) for s in salt))


def _payload(rng: random.Random, width: int, superposed: bool):
    """A scenario payload: a basis label, or a normalized [re, im] pair list."""
    if not superposed:
        return format(rng.randrange(1 << width), f"0{width}b")
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << width)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [[a.real / norm, a.imag / norm] for a in amps]


def _payloads(rng, count, max_width, superposed_every):
    """Payloads for d1..d<count>: width 1 + i % max_width, every n-th superposed."""
    return {
        f"d{i}": _payload(rng, 1 + i % max_width, i % superposed_every == 0)
        for i in range(1, count + 1)
    }


def _doc(kind: str, **fields) -> str:
    return json.dumps({"schema": "qpn-scenario/1", "kind": kind, **fields}, sort_keys=True)


def _spread(rng, counts: list[int], total: int) -> list[int]:
    """A seeded program of ``total`` indices using index j at most counts[j] times."""
    pool = [j for j, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(pool)
    return pool[:total]


# buffer-run ---------------------------------------------------------------

RUN_LADDER = (100, 200, 400, 800)
RUN_PROBE_N = 1600  # run once per traced run, see probe_jobs
GATED_PAIRS = (64, 256)
# Fig. 2-shaped gate on (a, b): a is a superposed 2-qubit payload on qubits
# 3..2, b a basis 2-qubit payload on qubits 1..0.  Every control sits on b,
# so the joint state stays a product and factors back per token.
GATED_GATE = (("cx", (1, 3)), ("ccx", (1, 0, 2)), ("cswap", (0, 3, 2)))


def _priority_script(rng, r_low, r_high, m_low, m_high) -> list[str]:
    """A seeded maximal firing order that respects the inhibitor on P_DA2."""
    i1, i2, a, a1, da1, da2 = r_low, r_high, m_low, m_high, 0, 0
    script = []
    while True:
        enabled = []
        if i1 and a:
            enabled.append("T1")
        if i2 and a1:
            enabled.append("T2")
        if da1 and not da2:
            enabled.append("T3")
        if da2:
            enabled.append("T4")
        if not enabled:
            return script
        tid = rng.choice(enabled)
        script.append(tid)
        if tid == "T1":
            i1, a, da1 = i1 - 1, a - 1, da1 + 1
        elif tid == "T2":
            i2, a1, da2 = i2 - 1, a1 - 1, da2 + 1
        elif tid == "T3":
            da1 -= 1
        else:
            da2 -= 1


def _run_job(seed, job_id, kind, params, tag=None, program=None) -> dict:
    rng = _rng(seed, "buffer-run", job_id)
    data = params.get("n", sum(params.get("r", ()))) + params.get("r_low", 0) + params.get(
        "r_high", 0
    )
    fields = dict(params, payloads=_payloads(rng, data, 3, 4))
    if program is not None:
        fields.update(program(rng))
    return {"id": job_id, "type": "run", "kind": kind, "params": fields, "tag": tag,
            "text": _doc(kind, **fields)}


def buffer_run_jobs(seed: int) -> list[dict]:
    jobs = []

    def scenario(*args, **kwargs):
        jobs.append(_run_job(seed, *args, **kwargs))

    for n in RUN_LADDER:
        scenario(f"siso_n{n}", "siso", {"n": n, "m": n}, tag=f"siso_n{n}")
    for i in range(20):
        n = 8 + 3 * i
        scenario(f"siso_{i}", "siso", {"n": n, "m": n - i % 3})
    for i in range(20):
        n, k = 10 + 5 * i, 2 + i % 3
        m = n - 2 * (i % 4)
        scenario(
            f"simo_{i}", "simo", {"n": n, "m": m, "k": k},
            program=lambda rng, m=m, k=k: {"addresses": [rng.randrange(k) for _ in range(m)]},
        )
    for i in range(20):
        k = 2 + i % 2
        r = [4 + i] * k
        if i % 3 == 0:
            # The last input holds no data; selection number m // 2 asks for
            # it and is skipped, and so is every selection after it, since
            # the unconsumed head selector then matches no other guard.
            r[-1] = 0
            m = (k - 1) * r[0]
            skip_at = m // 2

            def program(rng, m=m, k=k, r=tuple(r), skip_at=skip_at):
                head = _spread(rng, list(r), skip_at)
                tail = [rng.randrange(k) for _ in range(m - skip_at - 1)]
                return {"addresses": head + [k - 1] + tail}
        else:
            m = sum(r) - i % 3

            def program(rng, m=m, r=tuple(r)):
                return {"addresses": _spread(rng, list(r), m)}
        scenario(f"miso_{i}", "miso", {"r": r, "m": m}, program=program)
    for i in range(20):
        k, outputs = 2 + i % 2, 2 + (i + 1) % 2
        r = [3 + i // 2] * k
        m = sum(r) - i % 3

        def program(rng, m=m, r=tuple(r), outputs=outputs):
            return {
                "input_addresses": _spread(rng, list(r), m),
                "output_addresses": [rng.randrange(outputs) for _ in range(m)],
            }
        scenario(f"mimo_{i}", "mimo", {"r": r, "outputs": outputs, "m": m}, program=program)
    for i in range(20):
        r_low, r_high = 4 + 2 * i, 3 + i
        m_low, m_high = r_low - i % 3, r_high - (i + 1) % 3
        params = {"r_low": r_low, "r_high": r_high, "m_low": m_low, "m_high": m_high}
        scenario(
            f"priority_{i}", "priority", params,
            program=lambda rng, p=params: {
                "scheduler": "scripted",
                "script": _priority_script(rng, p["r_low"], p["r_high"], p["m_low"], p["m_high"]),
            },
        )
    for pairs in GATED_PAIRS:
        rng = _rng(seed, "buffer-run", f"gated_p{pairs}")
        jobs.append(
            {
                "id": f"gated_p{pairs}",
                "type": "gated",
                "tag": f"gated_p{pairs}",
                "pairs": pairs,
                "a": [_payload(rng, 2, True) for _ in range(pairs)],
                "b": [_payload(rng, 2, False) for _ in range(pairs)],
            }
        )
    return jobs


# buffer-enumerate -----------------------------------------------------------

ENUM_SIMO_SIZES = ((10, 2), (12, 2), (14, 2), (5, 3), (6, 3), (7, 3))  # (n = m, k)
ENUM_SIMO_PROBE = (14, 2)  # run once per traced run, see probe_jobs
ENUM_SIMO_LADDER = tuple(p for p in ENUM_SIMO_SIZES if p != ENUM_SIMO_PROBE)
ENUM_SISO_LADDER = (50, 100, 200, 400, 1000)


def simo_tag(n: int, k: int) -> str:
    return f"simo_n{n}" if k == 2 else f"simo{k}_n{n}"


def _enum_job(seed, job_id, kind, params, tag=None) -> dict:
    rng = _rng(seed, "buffer-enumerate", job_id)
    if "r" in params:
        params = dict(params, r=rng.sample(params["r"], len(params["r"])))
    data = params.get("n", sum(params.get("r", ())))
    fields = dict(params, payloads=_payloads(rng, data, 2, 5))
    return {"id": job_id, "type": "enumerate", "kind": kind, "params": fields, "tag": tag,
            "text": _doc(kind, **fields)}


def buffer_enumerate_jobs(seed: int) -> list[dict]:
    jobs = []

    def scenario(*args, **kwargs):
        jobs.append(_enum_job(seed, *args, **kwargs))

    for n, k in ENUM_SIMO_LADDER:
        scenario(simo_tag(n, k), "simo", {"n": n, "m": n, "k": k}, tag=simo_tag(n, k))
    for i in range(30):
        k = 2 + i % 3
        n = (2, 3, 4, 5, 6, 7, 8)[i % 7] if k == 2 else (2, 3, 4, 5)[i % 4] if k == 3 else 2 + i % 3
        scenario(f"simo_{i}", "simo", {"n": n, "m": n - i % 2, "k": k})
    for i in range(25):
        k = 2 + i % 2
        r = [1 + (i + j) % 3 for j in range(k)]
        scenario(f"miso_{i}", "miso", {"r": r, "m": 1 + i % 3})
    for i in range(20):
        k, outputs = 2 + i % 2, 2 + (i // 2) % 2
        r = [1 + (i + j) % 2 for j in range(k)]
        scenario(f"mimo_{i}", "mimo", {"r": r, "outputs": outputs, "m": 1 + i % 3})
    for n in ENUM_SISO_LADDER:
        scenario(f"siso_n{n}", "siso", {"n": n, "m": n}, tag=f"siso_n{n}")
    for i in range(15):
        n = 2 + 2 * i
        scenario(f"siso_{i}", "siso", {"n": n, "m": n - i % 2})
    return jobs


# register-sim -------------------------------------------------------------

DEFINED_DRIVES = ((0, 0), (1, 0), (0, 1))  # (S, R); S=R=1 is undefined


def _register_job(seed, i, u, variant, dense):
    job_id = f"u{u}_{variant}_{'dense' if dense else 'basis'}_{i}"
    rng = _rng(seed, "register-sim", job_id)
    s, r = rng.choice(DEFINED_DRIVES)
    job = {
        "id": job_id,
        "type": "register",
        "tag": f"u{u}",
        "u": u,
        "variant": variant,
        "s": s,
        "r": r,
        "qs": [rng.randrange(2) for _ in range(u)],
        "shots": rng.randint(64, 512),
        "shot_seed": rng.randrange(1 << 31),
        "amps": None,
    }
    if dense:
        gen = np.random.default_rng([seed, i])
        dim = 1 << (2 + 5 * u)
        amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        job["amps"] = amps / np.sqrt(np.sum(np.abs(amps) ** 2))
    return job


def register_jobs(seed: int) -> list[dict]:
    plan = (
        [(1, v, False) for v in ("normalized", "verbatim") for _ in range(15)]
        + [(2, v, False) for v in ("normalized", "verbatim") for _ in range(15)]
        + [(3, v, False) for v in ("normalized", "verbatim") for _ in range(8)]
        + [(u, v, True) for u in (1, 2, 3) for v in ("normalized", "verbatim") for _ in range(4)]
    )
    return [_register_job(seed, i, u, variant, dense) for i, (u, variant, dense) in enumerate(plan)]


def probe_jobs(workload: str, seed: int) -> list[dict]:
    """Top-of-ladder jobs run once per traced run instead of in every pass.

    On a shared 2-vCPU x86_64 VM each takes seconds (the u=4 register
    7-11 s, about half of it page faults on fresh 64 MiB arrays; the
    n=1600 SISO job about 4 s; the n=m=14 SIMO enumeration 3-5 s).  In
    every pass they left room for only two passes a run, and the host's
    speed swings then moved the percentiles by over 20% between runs.
    """
    if workload == "buffer-enumerate":
        n, k = ENUM_SIMO_PROBE
        return [_enum_job(seed, simo_tag(n, k), "simo", {"n": n, "m": n, "k": k},
                          tag=simo_tag(n, k))]
    if workload == "buffer-run":
        n = RUN_PROBE_N
        return [_run_job(seed, f"siso_n{n}", "siso", {"n": n, "m": n}, tag=f"siso_n{n}")]
    if workload == "register-sim":
        return [_register_job(seed, 0, 4, "normalized", False)]
    return []


GENERATORS = {
    "buffer-run": buffer_run_jobs,
    "buffer-enumerate": buffer_enumerate_jobs,
    "register-sim": register_jobs,
}


def _interleave(jobs: list[dict]) -> list[dict]:
    """A fixed golden-ratio stride order, so no size class runs in one block.

    Host speed drifts over seconds; spreading each class over the whole pass
    keeps one slow stretch from landing on a single class.
    """
    n = len(jobs)
    stride = round(n * 0.618)
    while math.gcd(stride, n) != 1:
        stride += 1
    return [jobs[i * stride % n] for i in range(n)]


def generate(workload: str, seed: int) -> list[dict]:
    return _interleave(GENERATORS[workload](seed))


def digest(jobs: list[dict]) -> str:
    """SHA-256 over every job input, dense amplitudes included byte for byte."""
    h = hashlib.sha256()
    for job in jobs:
        plain = {key: value for key, value in job.items() if key != "amps"}
        h.update(json.dumps(plain, sort_keys=True).encode())
        if job.get("amps") is not None:
            h.update(np.ascontiguousarray(job["amps"]).tobytes())
    return h.hexdigest()


def properties(workload: str, jobs: list[dict]) -> dict:
    """Input properties of one generated job list (recorded in workloads.json)."""
    kinds = sorted({job.get("kind", job["type"]) for job in jobs})
    out = {"jobs": len(jobs), "kinds": kinds}
    if workload == "register-sim":
        out["register_sizes_u"] = sorted({job["u"] for job in jobs})
        out["traced_probe_u"] = 4
        out["dense_support_share"] = round(
            sum(job["amps"] is not None for job in jobs) / len(jobs), 4
        )
        return out
    widths, superposed, selections, skipped = [], 0, 0, 0
    for job in jobs:
        for value in job.get("params", {}).get("payloads", {}).values():
            if isinstance(value, str):
                widths.append(len(value))
            else:
                widths.append(len(value).bit_length() - 1)
                superposed += 1
        program = job.get("params", {}).get("addresses")
        if job.get("kind") == "miso" and program is not None:
            selections += len(program)
            r, skip_at = job["params"]["r"], None
            if r[-1] == 0:
                skip_at = program.index(len(r) - 1)
            skipped += 0 if skip_at is None else len(program) - skip_at
    out["payload_widths"] = sorted(set(widths))
    out["superposed_payload_share"] = round(superposed / len(widths), 4)
    if workload == "buffer-run":
        out["size_ladder_n"] = list(RUN_LADDER)
        out["traced_probe_n"] = RUN_PROBE_N
        out["gated_pairs"] = list(GATED_PAIRS)
        out["miso_skipped_selection_share"] = round(skipped / selections, 4)
    else:
        out["simo_ladder_n_k"] = [list(p) for p in ENUM_SIMO_LADDER]
        out["traced_probe_simo_n_k"] = list(ENUM_SIMO_PROBE)
        out["siso_ladder_n"] = list(ENUM_SISO_LADDER)
    return out
