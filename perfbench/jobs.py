"""Job bodies and their output checks.

A job body calls only public functions of the package and returns what
its checks need.  Checks run after the job's timer has stopped; each
returns ``None`` when the output is right or a one-line reason when it is
not.  Expected values come from count-space models and an integer-index
permutation written here, not from the package.

Calls go through module attributes (``engine.fire``), so the tracer sees
the benchmark's own calls once it rebinds those names.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from inputs import GATED_GATE
from qpnbuf import cli, engine, flipflop, qasm, scenario, statevector


# buffer-run -----------------------------------------------------------------


def scenario_path(work: Path, job: dict) -> Path:
    return work / f"{job['id']}.scenario.json"


def write_scenarios(job_list: list[dict], work: Path):
    """Write each scenario job's document where its CLI call reads it."""
    for job in job_list:
        if "text" in job:
            scenario_path(work, job).write_text(job["text"])


def _replay(net, initial, tids) -> dict:
    """Fire ``tids`` from ``initial``, then unfire back; the job's reversal half.

    An exception in the unfire chain is kept as ``late_error``, not raised,
    so the fired outputs are still checked; the run records it as the job's
    failure once those checks pass.
    """
    marking, events = initial, []
    for tid in tids:
        marking, event = engine.fire(net, marking, tid)
        events.append(event)
    back, late_error = marking, None
    try:
        for event in reversed(events):
            back = engine.unfire(net, back, event)
    except Exception as exc:  # recorded as the job's failure after its checks
        back, late_error = None, exc
    return {"initial": initial, "final": marking, "events": events, "back": back,
            "late_error": late_error}


def run_scenario_job(job: dict, work: Path) -> dict:
    out = work / f"{job['id']}.trace.json"
    code = cli.main(["buffer", "run", "--scenario", str(scenario_path(work, job)), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"qpnbuf buffer run exited with {code}")
    text = out.read_text()
    doc = scenario.parse_trace(text)
    net, initial = scenario.parse_scenario(job["text"]).to_buffer_spec().build()
    return {"text": text, "doc": doc, **_replay(net, initial, doc.firing_transitions())}


def _gated_net(job: dict):
    """Fig. 2-shaped net: T1 takes the heads of P1 (a) and P2 (b) through a gate."""
    places = [
        engine.Place("P1", engine.PlaceKind.INPUT),
        engine.Place("P2", engine.PlaceKind.INPUT),
        engine.Place("P3", engine.PlaceKind.OUTPUT),
    ]
    t1 = engine.Transition(
        id="T1",
        input_arcs=(engine.Arc("P1", "T1", "in", "x"), engine.Arc("P2", "T1", "in", "y")),
        output_arcs=(engine.Arc("P3", "T1", "out", "f1"),),
        routing={"x": "P3", "y": "P3"},
        gate=tuple(statevector.GateOp(kind, qubits) for kind, qubits in GATED_GATE),
    )
    a_ids = [f"a{i + 1}" for i in range(job["pairs"])]
    b_ids = [f"b{i + 1}" for i in range(job["pairs"])]
    tokens = [
        engine.QToken(tok, engine.TokenKind.DATA,
                      statevector.StateVector(2, [complex(*p) for p in amps]))
        for tok, amps in zip(a_ids, job["a"])
    ] + [
        engine.QToken(tok, engine.TokenKind.DATA, statevector.basis_state(2, label))
        for tok, label in zip(b_ids, job["b"])
    ]
    net = engine.QPNet(places, [t1], tokens)
    return net, net.initial_marking({"P1": a_ids, "P2": b_ids})


def run_gated_job(job: dict, work: Path) -> dict:
    net, initial = _gated_net(job)
    trace = engine.run(net, initial, engine.Scripted(("T1",) * job["pairs"]))
    text = scenario.emit_trace(trace)
    doc = scenario.parse_trace(text)
    net, initial = _gated_net(job)
    return {"text": text, "doc": doc, **_replay(net, initial, doc.firing_transitions())}


def run_model(kind: str, params: dict) -> dict:
    """Count-space model of an address-driven or scripted buffer run.

    Returns the firing and skip counts, the number of data tokens delivered
    to output places (the capacity law: one delivery per spent ancilla,
    min(m, data the selections can reach)) and the final token count per
    place.
    """
    if kind == "siso":
        n, m = params["n"], params["m"]
        f = min(n, m)
        return {"firings": f, "skipped": 0, "delivered": f,
                "final": {"P_I": n - f, "P_A": m - f, "P_A1": f, "P_O": f}}
    if kind == "simo":
        n, m, k, program = params["n"], params["m"], params["k"], params["addresses"]
        selectors = list(program) + [None] * (m - len(program))
        outs, skipped = [0] * k, 0
        for a in program:
            if n and selectors and selectors[0] in (None, a):
                n, outs[a] = n - 1, outs[a] + 1
                selectors.pop(0)
            else:
                skipped += 1
        f = sum(outs)
        final = {"P_I": n, "P_A": len(selectors), "P_A1": f}
        final.update({f"P_O{j + 1}": c for j, c in enumerate(outs)})
        return {"firings": f, "skipped": skipped, "delivered": f, "final": final}
    if kind == "miso":
        ins, m, program = list(params["r"]), params["m"], params["addresses"]
        selectors = list(program) + [None] * (m - len(program))
        staged, skipped = 0, 0
        for a in program:
            if ins[a] and selectors and selectors[0] in (None, a):
                ins[a], staged = ins[a] - 1, staged + 1
                selectors.pop(0)
            else:
                skipped += 1
        final = {f"P_I{j + 1}": c for j, c in enumerate(ins)}
        final.update({"P_DA": 0, "P_A": len(selectors), "P_A1": staged, "P_O": staged})
        return {"firings": 2 * staged, "skipped": skipped, "delivered": staged, "final": final}
    if kind == "mimo":
        ins, outputs, m = list(params["r"]), params["outputs"], params["m"]
        w = list(params["input_addresses"]) + [None] * (m - len(params["input_addresses"]))
        z = list(params["output_addresses"]) + [None] * (m - len(params["output_addresses"]))
        staged, outs, firings = 0, [0] * outputs, 0
        while True:
            # Lowest transition id first: inputs T1..Tk, then outputs.
            j = next((j for j in range(len(ins)) if ins[j] and w and w[0] in (None, j)), None)
            if j is not None:
                ins[j], staged = ins[j] - 1, staged + 1
                w.pop(0)
            else:
                j = next((j for j in range(outputs) if staged and z and z[0] in (None, j)), None)
                if j is None:
                    break
                staged, outs[j] = staged - 1, outs[j] + 1
                z.pop(0)
            firings += 1
        final = {f"P_I{j + 1}": c for j, c in enumerate(ins)}
        final.update({"P_DA": 2 * staged, "P_A1": len(w), "P_A2": len(z), "P_A3": 2 * sum(outs)})
        final.update({f"P_O{j + 1}": c for j, c in enumerate(outs)})
        return {"firings": firings, "skipped": 0, "delivered": sum(outs), "final": final}
    script = params["script"]
    n = {tid: script.count(tid) for tid in ("T1", "T2", "T3", "T4")}
    delivered = n["T3"] + n["T4"]
    if delivered != min(params["r_low"], params["m_low"]) + min(params["r_high"], params["m_high"]):
        raise ValueError("priority script is not maximal")
    final = {
        "P_I1": params["r_low"] - n["T1"], "P_I2": params["r_high"] - n["T2"],
        "P_DA1": 2 * (n["T1"] - n["T3"]), "P_A": params["m_low"] - n["T1"],
        "P_DA2": 2 * (n["T2"] - n["T4"]), "P_A1": params["m_high"] - n["T2"],
        "P_A2": delivered, "P_O": delivered,
    }
    return {"firings": len(script), "skipped": 0, "delivered": delivered, "final": final}


def _event(e):
    """A firing as plain values, comparable between trace documents and engine events."""
    moves = [[(m.token, m.place, m.payload, m.address) for m in side]
             for side in (e.consumed, e.produced)]
    return (e.time, e.transition, moves, e.consumed_entry_sizes, e.produced_entry_sizes)


def _check_trace_vs_replay(res: dict) -> str | None:
    doc, final = res["doc"], res["final"]
    firing_docs = [e for e in doc.events if hasattr(e, "consumed")]
    if len(firing_docs) != len(res["events"]):
        return "trace and replay differ in firing count"
    for fd, ev in zip(firing_docs, res["events"]):
        if _event(fd) != _event(ev):
            return f"trace event at time {fd.time} differs from its replay"
    tokens = [tok for pid in final.place_ids for tok in final.tokens_in(pid)]
    if (
        doc.final.time != final.time
        or doc.final.queues != {pid: final.entries(pid) for pid in final.place_ids}
        or doc.final.payloads != {tok: final.payload(tok) for tok in tokens}
        or doc.final.addresses != {tok: final.address(tok) for tok in tokens}
    ):
        return "trace final marking differs from the replayed final marking"
    return None


def check_run(job: dict, res: dict) -> str | None:
    model = run_model(job["kind"], job["params"])
    doc = res["doc"]
    firings = [e for e in doc.events if hasattr(e, "consumed")]
    delivered = sum(
        1 for e in firings for mv in e.produced
        if mv.place.startswith("P_O") and mv.token.startswith("d")
    )
    if delivered != model["delivered"]:
        return f"capacity law: {delivered} deliveries, expected {model['delivered']}"
    if (len(firings), len(doc.events) - len(firings)) != (model["firings"], model["skipped"]):
        return (f"{len(firings)} firings / {len(doc.events) - len(firings)} skipped, expected "
                f"{model['firings']} / {model['skipped']}")
    if doc.final.counts() != {p: model["final"].get(p, 0) for p in doc.places}:
        return "final place counts differ from the count model"
    return _check_trace_vs_replay(res) or _check_unfire(res)


def _check_unfire(res: dict) -> str | None:
    if res["late_error"] is not None or res["back"] == res["initial"]:
        return None
    return "unfire chain missed the initial marking"


def _permutation_image(ops, num_qubits: int) -> np.ndarray:
    """image[i]: where basis index i ends up after ``ops``, by bit arithmetic."""
    image = np.arange(1 << num_qubits, dtype=np.int64)
    for kind, qubits in ops:
        bit = [(image >> q) & 1 for q in qubits]
        if kind == "x":
            image = image ^ (1 << qubits[0])
        elif kind == "cx":
            image = image ^ (bit[0] << qubits[1])
        elif kind == "ccx":
            image = image ^ ((bit[0] & bit[1]) << qubits[2])
        elif kind in ("swap", "cswap"):
            differ = bit[-2] ^ bit[-1]
            if kind == "cswap":
                differ &= bit[0]
            image = image ^ ((differ << qubits[-2]) | (differ << qubits[-1]))
        elif kind != "id":
            raise ValueError(f"unknown gate {kind}")
    return image


def _permuted(amps: np.ndarray, ops, num_qubits: int) -> np.ndarray:
    out = np.empty_like(amps)
    out[_permutation_image(ops, num_qubits)] = amps
    return out


def check_gated(job: dict, res: dict) -> str | None:
    final = res["final"]
    for i, (amps, label) in enumerate(zip(job["a"], job["b"])):
        joint = np.kron([complex(*p) for p in amps], np.eye(4)[int(label, 2)])
        want = _permuted(joint, GATED_GATE, 4)
        got = np.kron(final.payload(f"a{i + 1}").amplitudes, final.payload(f"b{i + 1}").amplitudes)
        if not np.allclose(got, want, atol=1e-10, rtol=0):
            return f"pair {i + 1}: payloads differ from the permuted joint state"
    return _check_trace_vs_replay(res) or _check_unfire(res)


# buffer-enumerate -------------------------------------------------------------


def run_enumerate_job(job: dict, work: Path) -> dict:
    out = work / f"{job['id']}.signatures.json"
    code = cli.main(
        ["buffer", "enumerate", "--scenario", str(scenario_path(work, job)), "--out", str(out)]
    )
    if code != 0:
        raise RuntimeError(f"qpnbuf buffer enumerate exited with {code}")
    text = out.read_text()
    return {"text": text, "outcomes": json.loads(text)}


def _count_finals(initial, moves, signature) -> list[dict]:
    """Quiescent count states reachable from ``initial``, as place-count dicts."""
    seen, stack, finals = {initial}, [initial], []
    while stack:
        state = stack.pop()
        nxt = moves(state)
        if not nxt:
            finals.append(signature(state))
        for s in nxt:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return finals


def _bump(t, j, d):
    return t[:j] + (t[j] + d,) + t[j + 1:]


def signature_oracle(kind: str, p: dict) -> list[dict]:
    """Free-selector outcome signatures by exhaustive search over count vectors."""
    if kind == "siso":
        f = min(p["n"], p["m"])
        return [{"P_I": p["n"] - f, "P_A": p["m"] - f, "P_A1": f, "P_O": f}]
    if kind == "simo":
        k = p["k"]

        def moves(s):
            pi, pa, outs = s
            return [(pi - 1, pa - 1, _bump(outs, j, 1)) for j in range(k)] if pi and pa else []

        def sig(s):
            out = {"P_I": s[0], "P_A": s[1], "P_A1": p["m"] - s[1]}
            out.update({f"P_O{j + 1}": c for j, c in enumerate(s[2])})
            return out
        return _count_finals((p["n"], p["m"], (0,) * k), moves, sig)
    if kind == "miso":
        def moves(s):
            ins, pda, pa, po = s
            out = [(_bump(ins, j, -1), pda + 1, pa - 1, po) for j in range(len(ins)) if ins[j] and pa]
            return out + [(ins, pda - 1, pa, po + 1)] if pda else out

        def sig(s):
            out = {f"P_I{j + 1}": c for j, c in enumerate(s[0])}
            out.update({"P_DA": 2 * s[1], "P_A": s[2], "P_A1": s[3], "P_O": s[3]})
            return out
        return _count_finals((tuple(p["r"]), 0, p["m"], 0), moves, sig)
    outputs = p["outputs"]

    def moves(s):
        ins, pda, pa1, pa2, outs = s
        out = [(_bump(ins, j, -1), pda + 1, pa1 - 1, pa2, outs)
               for j in range(len(ins)) if ins[j] and pa1]
        if pda and pa2:
            out += [(ins, pda - 1, pa1, pa2 - 1, _bump(outs, j, 1)) for j in range(outputs)]
        return out

    def sig(s):
        out = {f"P_I{j + 1}": c for j, c in enumerate(s[0])}
        out.update({"P_DA": 2 * s[1], "P_A1": s[2], "P_A2": s[3], "P_A3": 2 * sum(s[4])})
        out.update({f"P_O{j + 1}": c for j, c in enumerate(s[4])})
        return out
    return _count_finals((tuple(p["r"]), 0, p["m"], p["m"], (0,) * outputs), moves, sig)


def check_enumerate(job: dict, res: dict) -> str | None:
    outcomes = res["outcomes"]
    want = signature_oracle(job["kind"], job["params"])
    got_keys = {tuple(sorted(o["signature"].items())) for o in outcomes}
    if len(outcomes) != len(want):
        return f"{len(outcomes)} signatures, count oracle has {len(want)}"
    if got_keys != {tuple(sorted(s.items())) for s in want}:
        return "signature set differs from the count oracle"
    for o in outcomes:
        net, marking = scenario.parse_scenario(job["text"]).to_buffer_spec().build()
        for tid in o["witness"]:
            marking, _ = engine.fire(net, marking, tid)
        if engine.enabled_transitions(net, marking):
            return f"witness {o['witness'][:3]}... ends in a live marking"
        if marking.counts() != o["signature"]:
            return "witness replay ends off its signature"
    return None


# register-sim -----------------------------------------------------------------


def _register_layout(job: dict) -> tuple[int, int, tuple[int, ...]]:
    """(qubits, initial basis index, qubits an X gate raises) for a basis drive."""
    num_qubits = 2 + flipflop.LANE_QUBITS * job["u"]
    raised = [flipflop.S_QUBIT] * job["s"] + [flipflop.R_QUBIT] * job["r"]
    for lane, q in enumerate(job["qs"]):
        roles = flipflop.register_lane_qubits(lane)
        raised.append(roles[flipflop.Q_QUBIT] if q else roles[flipflop.QPRIME_QUBIT])
    raised = tuple(sorted(raised))
    return num_qubits, sum(1 << q for q in raised), raised


def run_register_job(job: dict, work: Path) -> dict:
    circuit = flipflop.build_register(job["u"], flipflop.CircuitVariant(job["variant"]))
    num_qubits, index, raised = _register_layout(job)
    if job["amps"] is not None:
        initial, raised = statevector.StateVector(num_qubits, job["amps"]), ()
    else:
        initial = statevector.basis_state_from_index(num_qubits, index)
    final, counts = statevector.run_circuit(circuit, initial, job["shots"], job["shot_seed"])
    text = qasm.export_qasm(circuit, raised)
    return {"circuit": circuit, "final": final, "counts": counts, "qasm": text,
            "parsed": qasm.parse_qasm(text), "raised": raised}


@lru_cache(maxsize=None)
def _verbatim_outcome(s: int, r: int, q: int):
    return flipflop.simulate_qsr(flipflop.CircuitVariant.VERBATIM, flipflop.QsrInputs(s, r, q))


def _lane_drives(job: dict, circuit) -> list[tuple[int, int]]:
    """(S, R) each lane's body sees: the drive, flipped by X gates earlier lanes left.

    The normalized body applies an even number of X gates to each shared
    line; the verbatim listing applies three to R, so with it lane i reads
    R xor (i mod 2).  That is the preserved artifact, not a register fault.
    """
    per_lane = len(circuit.ops) // job["u"]
    drives, s, r = [], job["s"], job["r"]
    for lane in range(job["u"]):
        drives.append((s, r))
        for op in circuit.ops[lane * per_lane:(lane + 1) * per_lane]:
            if op.kind == "x" and op.qubits[0] == flipflop.S_QUBIT:
                s ^= 1
            elif op.kind == "x" and op.qubits[0] == flipflop.R_QUBIT:
                r ^= 1
    return drives


def check_register(job: dict, res: dict) -> str | None:
    circuit, final, counts = res["circuit"], res["final"], res["counts"]
    num_qubits = circuit.num_qubits
    if job["amps"] is not None:
        ops = [(op.kind, op.qubits) for op in circuit.ops]
        if not np.array_equal(final.amplitudes, _permuted(job["amps"], ops, num_qubits)):
            return "dense final state is not the permuted input"
        if sum(counts.values()) != job["shots"]:
            return "histogram does not hold every shot"
    else:
        index = final.basis_index()
        key = ["0"] * (2 * job["u"])
        for lane, ((s, r), q) in enumerate(zip(_lane_drives(job, circuit), job["qs"])):
            if job["variant"] == "normalized":
                want = flipflop.reference_next_state(flipflop.QsrInputs(s, r, q))
            else:
                want = _verbatim_outcome(s, r, q)
            roles = flipflop.register_lane_qubits(lane)
            got = ((index >> roles[flipflop.Q_QUBIT]) & 1, (index >> roles[flipflop.QPRIME_QUBIT]) & 1)
            if got != (want.q_next, want.q_prime_next):
                return f"lane {lane} reads Q, Q' = {got}, expected {(want.q_next, want.q_prime_next)}"
            key[len(key) - 1 - 2 * lane] = str(got[1])
            key[len(key) - 2 - 2 * lane] = str(got[0])
        if counts != {"".join(key): job["shots"]}:
            return f"histogram {counts} is not all {''.join(key)}"
    init = tuple(statevector.GateOp("x", (q,)) for q in res["raised"])
    if res["parsed"] != statevector.Circuit(num_qubits, init + circuit.ops, circuit.measured_qubits):
        return "QASM round trip changed the circuit"
    return None


# dispatch -----------------------------------------------------------------------

BODIES = {
    "run": (run_scenario_job, check_run),
    "gated": (run_gated_job, check_gated),
    "enumerate": (run_enumerate_job, check_enumerate),
    "register": (run_register_job, check_register),
}


def work_counts(job: dict, res: dict) -> dict:
    """Work a finished job did, as exact counts."""
    if job["type"] in ("run", "gated"):
        return {"firings": len(res["events"]), "trace_bytes": len(res["text"])}
    if job["type"] == "enumerate":
        return {"signatures": len(res["outcomes"])}
    return {"gates": len(res["circuit"].ops)}


def output_digest(job: dict, res: dict) -> str:
    h = hashlib.sha256()
    if job["type"] == "register":
        h.update(res["final"].amplitudes.tobytes())
        h.update(json.dumps(res["counts"], sort_keys=True).encode())
        h.update(res["qasm"].encode())
    else:
        h.update(res["text"].encode())
    return h.hexdigest()
