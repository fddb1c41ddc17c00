"""Randomized property suites and the count-space capacity oracle.

The suites drive randomly sized buffer instances with a fixed-seed
``random.Random`` so every run checks the same 1000 cases.  The capacity
oracle re-implements the buffer token dynamics as pure count bookkeeping
(no engine imports beyond place naming), enumerating every reachable
count state to validate ancillary consumption on all maximal runs.
"""

import contextlib
import hashlib
import io
import json
import marshal
import random
import re
from collections import Counter, deque
from dataclasses import fields
from itertools import islice
from pathlib import Path

import numpy as np

from qpnbuf import cli
from qpnbuf.buffers import (
    KIND_TABLE,
    BufferSpec,
    _transition,
    build_cnot_example,
    build_miso,
    build_simo,
    build_siso,
)
from qpnbuf.engine import (
    AddressDriven,
    Arc,
    FiringEvent,
    Marking,
    PairRoute,
    Place,
    PlaceKind,
    QPNet,
    QToken,
    Scripted,
    SkippedSelection,
    TokenKind,
    TokenMove,
    Trace,
    Transition,
    _key_enables,
    _quotient_keys,
    _split_product,
    _step,
    distribution_signature,
    enabled_transitions,
    enumerate_final_markings,
    fire,
    run,
    unfire,
)
from qpnbuf.errors import ModelError, QasmError, QpnError, ReversalError, ScenarioError
from qpnbuf.flipflop import CircuitVariant, build_qsr_circuit, build_register
from qpnbuf.qasm import export_qasm, parse_qasm
from qpnbuf.scenario import (
    SCENARIO_SCHEMA,
    SCHEDULERS,
    TRACE_SCHEMA,
    ScenarioDoc,
    _expect,
    _int_field,
    _ints,
    _is_address,
    _strings,
    emit_scenario,
    emit_signatures,
    emit_trace,
    parse_scenario,
    parse_trace,
)
from qpnbuf.statevector import (
    Circuit,
    GateOp,
    StateVector,
    _compile,
    apply_all,
    basis_state,
    basis_state_from_index,
    probabilities,
    run_circuit,
)


def consumed_entries(event: FiringEvent) -> list[tuple[TokenMove, ...]]:
    """The event's consumed moves, grouped into queue entries."""
    moves = iter(event.consumed)
    return [tuple(islice(moves, size)) for size in event.consumed_entry_sizes]


def produced_entries(event: FiringEvent) -> list[tuple[TokenMove, ...]]:
    """The event's produced moves, grouped into queue entries."""
    moves = iter(event.produced)
    return [tuple(islice(moves, size)) for size in event.produced_entry_sizes]


def random_payload(rng: random.Random, max_qubits: int = 2) -> StateVector:
    n = rng.randint(1, max_qubits)
    if rng.random() < 0.6:
        return basis_state_from_index(n, rng.randrange(1 << n))
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return StateVector(n, [a / norm for a in amps])


def random_spec(rng: random.Random) -> BufferSpec:
    kind = rng.choice(("siso", "simo", "miso", "mimo", "priority"))
    if kind == "siso":
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        payloads = {f"d{i + 1}": random_payload(rng) for i in range(n) if rng.random() < 0.5}
        return BufferSpec(kind=kind, n=n, m=m, payloads=payloads)
    if kind == "simo":
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        k = rng.randint(2, 4)
        addresses = (
            tuple(rng.randrange(k) for _ in range(m)) if rng.random() < 0.7 else None
        )
        return BufferSpec(kind=kind, n=n, m=m, k=k, addresses=addresses)
    if kind == "miso":
        k = rng.randint(2, 3)
        r = tuple(rng.randint(0, 3) for _ in range(k))
        m = rng.randint(1, 4)
        addresses = (
            tuple(rng.randrange(k) for _ in range(m)) if rng.random() < 0.7 else None
        )
        return BufferSpec(kind=kind, r=r, m=m, addresses=addresses)
    if kind == "mimo":
        k = rng.randint(2, 3)
        r = tuple(rng.randint(0, 2) for _ in range(k))
        outputs = rng.randint(2, 3)
        m = rng.randint(1, 3)
        seeded = rng.random() < 0.7
        return BufferSpec(
            kind=kind,
            r=r,
            outputs=outputs,
            m=m,
            input_addresses=tuple(rng.randrange(k) for _ in range(m)) if seeded else None,
            output_addresses=(
                tuple(rng.randrange(outputs) for _ in range(m)) if seeded else None
            ),
        )
    return BufferSpec(
        kind="priority",
        r_low=rng.randint(0, 3),
        r_high=rng.randint(0, 3),
        m_low=rng.randint(0, 3),
        m_high=rng.randint(0, 3),
    )


def _token_multiset(marking):
    return sorted(t for p in marking.place_ids for t in marking.tokens_in(p))


def _random_firing_state(rng):
    """A random instance advanced to a state with at least one enabled transition."""
    while True:
        net, marking = random_spec(rng).build()
        if not enabled_transitions(net, marking):
            continue  # degenerate draw (e.g. empty inputs): try another
        for _ in range(rng.randint(0, 4)):
            enabled = enabled_transitions(net, marking)
            nxt, _ = fire(net, marking, rng.choice(enabled))
            if not enabled_transitions(net, nxt):
                break  # stay on the live predecessor
            marking = nxt
        return net, marking


def conservation_suite(cases: int = 1000, seed: int = 401) -> int:
    """Every firing preserves the multiset of token ids."""
    rng = random.Random(seed)
    for case in range(cases):
        if case % 50 == 0:
            net, marking = build_cnot_example()
        else:
            net, marking = _random_firing_state(rng)
        enabled = enabled_transitions(net, marking)
        before = _token_multiset(marking)
        after_marking, event = fire(net, marking, rng.choice(enabled))
        assert _token_multiset(after_marking) == before
        assert sorted(m.token for m in event.consumed) == sorted(
            m.token for m in event.produced
        )
    return cases


def norm_suite(cases: int = 1000, seed: int = 402) -> int:
    """Payload norms survive every firing within 1e-12."""
    rng = random.Random(seed)
    for case in range(cases):
        if case % 50 == 0:
            net, marking = build_cnot_example()
        else:
            net, marking = _random_firing_state(rng)
        enabled = enabled_transitions(net, marking)
        _, event = fire(net, marking, rng.choice(enabled))
        norm_in = sum(m.payload.norm() for m in event.consumed)
        norm_out = sum(m.payload.norm() for m in event.produced)
        assert abs(norm_in - norm_out) < 1e-12
        for move in event.produced:
            assert abs(move.payload.norm() - 1.0) < 1e-12
    return cases


def rebuilt(marking) -> Marking:
    """The same state built through the public constructor, tables in reverse order."""
    tokens = [t for p in marking.place_ids for t in marking.tokens_in(p)][::-1]
    return Marking(
        {p: marking.entries(p) for p in marking.place_ids},
        {t: marking.payload(t) for t in tokens},
        {t: marking.address(t) for t in tokens},
        time=marking.time,
    )


def unfire_identity_suite(cases: int = 1000, seed: int = 403) -> int:
    """unfire(fire(m)) restores the exact marking.

    Every derived marking also equals, and hashes like, the same state
    rebuilt through the public constructor, and firing shares (returns the
    very same tuple objects for) every queue it does not touch.
    """
    rng = random.Random(seed)
    for case in range(cases):
        if case % 50 == 0:
            net, marking = build_cnot_example()
        else:
            net, marking = _random_firing_state(rng)
        enabled = enabled_transitions(net, marking)
        after, event = fire(net, marking, rng.choice(enabled))
        touched = {m.place for m in event.consumed + event.produced}
        for pid in marking.place_ids:
            if pid not in touched:
                assert after.entries(pid) is marking.entries(pid)
        back = unfire(net, after, event)
        assert back == marking
        assert hash(back) == hash(marking)
        for derived in (marking, after, back):
            copy = rebuilt(derived)
            assert derived == copy and copy == derived
            assert hash(derived) == hash(copy)
    return cases


def determinism_suite(cases: int = 1000, seed: int = 404) -> int:
    """Identical spec => byte-identical serialized trace documents."""
    rng = random.Random(seed)
    for _ in range(cases):
        spec = random_spec(rng)
        scheduler = AddressDriven(
            program=spec.addresses if spec.kind in ("simo", "miso") else None
        )
        net_a, m_a = spec.build()
        net_b, m_b = spec.build()
        text_a = emit_trace(run(net_a, m_a, scheduler))
        text_b = emit_trace(run(net_b, m_b, scheduler))
        assert text_a == text_b
    return cases


def roundtrip_suite(cases: int = 1000, seed: int = 405) -> int:
    """Scenario docs and trace docs survive an emit/parse round trip."""
    rng = random.Random(seed)
    for case in range(cases):
        spec = random_spec(rng)
        payloads = dict(spec.payloads)
        doc = ScenarioDoc(
            kind=spec.kind,
            n=spec.n,
            m=spec.m,
            k=spec.k,
            r=spec.r,
            outputs=spec.outputs,
            r_low=spec.r_low,
            r_high=spec.r_high,
            m_low=spec.m_low,
            m_high=spec.m_high,
            payloads=payloads,
            addresses=spec.addresses,
            input_addresses=spec.input_addresses,
            output_addresses=spec.output_addresses,
            seed=rng.randrange(1 << 16),
        )
        assert parse_scenario(emit_scenario(doc)) == doc
        if case % 20 == 0:
            trace = run(spec.build()[0], spec.build()[1], AddressDriven())
            assert parse_trace(emit_trace(trace)) == trace
    return cases


def _reference_image(ops, index: int) -> int:
    """Where the gate list sends basis index ``index``, one bit at a time."""
    for op in ops:
        bits = [(index >> q) & 1 for q in op.qubits]
        if op.kind == "x":
            index ^= 1 << op.qubits[0]
        elif op.kind == "cx" and bits[0]:
            index ^= 1 << op.qubits[1]
        elif op.kind == "ccx" and bits[0] and bits[1]:
            index ^= 1 << op.qubits[2]
        elif op.kind == "swap" and bits[0] != bits[1]:
            index ^= (1 << op.qubits[0]) | (1 << op.qubits[1])
        elif op.kind == "cswap" and bits[0] and bits[1] != bits[2]:
            index ^= (1 << op.qubits[1]) | (1 << op.qubits[2])
    return index


def _dense_sampler(amps, measured, width: int, shots: int, seed: int) -> dict[str, int]:
    """The dense sampler: one draw per shot over index-ordered probabilities."""
    probs = np.abs(amps) ** 2
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).choice(len(probs), size=shots, p=probs)
    counts = Counter()
    for basis in draws:
        bits = ["0"] * width
        for q, c in measured:
            bits[width - 1 - c] = str((int(basis) >> q) & 1)
        counts["".join(bits)] += 1
    return dict(sorted(counts.items()))


def _random_start(rng: random.Random, n: int, kind: str) -> StateVector:
    if kind == "basis":
        return basis_state_from_index(n, rng.randrange(1 << n))
    if kind == "dense":
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
        norm = sum(abs(a) ** 2 for a in amps) ** 0.5
        amps = [a / norm for a in amps]
        for i in rng.sample(range(len(amps)), len(amps) // 2):
            amps[i] = complex(rng.choice((-0.0, 0.0)), rng.choice((-0.0, 0.0)))
        norm = sum(abs(a) ** 2 for a in amps) ** 0.5
        return StateVector(n, [complex(a.real / norm, a.imag / norm) for a in amps])
    # A joint basis state with a global phase splits into a basis head and a
    # tail that carries the phase (and the signed zeros the multiply makes).
    head = rng.randint(1, 3)
    phase = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phase /= abs(phase)
    joint = np.zeros(1 << (head + n), dtype=np.complex128)
    joint[rng.randrange(len(joint))] = phase
    return _split_product(StateVector(head + n, joint), [head, n])[1]


def permutation_core_suite(cases: int = 1000, seed: int = 406) -> int:
    """Gates on the support agree with a dense integer-index reference.

    Random gate lists on 1-10 qubits start from a basis state, a dense state
    holding signed zeros, or a phase-carrying ``_split_product`` factor.
    The final state must match ``out[image] = amps`` byte for byte, compare
    and hash like the same amplitudes given densely, give the same
    ``probabilities`` and basis index, and ``run_circuit`` must draw the
    histogram the dense sampler draws with the same seed.
    """
    rng = random.Random(seed)
    arity = {"x": 1, "cx": 2, "ccx": 3, "swap": 2, "cswap": 3, "id": 1}
    for case in range(cases):
        n = rng.randint(1, 10)
        start = _random_start(rng, n, ("basis", "dense", "phase")[case % 3])
        kinds = [k for k, a in arity.items() if a <= n]
        ops = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.choice(kinds)
            ops.append(GateOp(kind, tuple(rng.sample(range(n), arity[kind]))))
        measured = tuple(
            (q, c) for c, q in enumerate(rng.sample(range(n), rng.randint(0, n)))
        )
        shots = rng.randint(0, 64)
        final, hist = run_circuit(Circuit(n, ops, measured), start, shots, seed=case)

        amps = np.array(start.amplitudes)
        out = np.zeros(1 << n, dtype=np.complex128)
        out[[_reference_image(ops, i) for i in range(1 << n)]] = amps
        assert final.amplitude_bytes() == out.tobytes(), case
        dense = StateVector(n, out)
        assert final == dense and dense == final, case
        assert hash(final) == hash(dense), case
        want = [(format(i, f"0{n}b"), float(p)) for i, p in enumerate(np.abs(out) ** 2)
                if p > 1e-12]
        assert probabilities(final) == want, case
        assert final.is_basis_state() == dense.is_basis_state(), case
        if dense.is_basis_state():
            assert final.basis_index() == int(np.argmax(np.abs(out))), case
        assert hist == _dense_sampler(out, measured, len(measured), shots, case), case
    return cases


_GATE_ARITY = {"x": 1, "cx": 2, "ccx": 3, "swap": 2, "cswap": 3, "id": 1}


def _reference_images(ops, n: int) -> np.ndarray:
    """The image of every n-qubit basis index under the gate list, bit-sliced.

    Plane q is one Python int whose bit i is bit q of index i, so a gate
    acts on all 2**n indices at once with a few big-integer operations.
    For n >= 3 the planes fill whole bytes and unpack into the images.
    """
    size = 1 << n
    full = (1 << size) - 1
    planes = []
    for q in range(n):
        plane, period = ((1 << (1 << q)) - 1) << (1 << q), 2 << q
        while period < size:
            plane |= plane << period
            period *= 2
        planes.append(plane)
    for op in ops:
        q = op.qubits
        p = [planes[i] for i in q]
        if op.kind == "x":
            planes[q[0]] = p[0] ^ full
        elif op.kind == "cx":
            planes[q[1]] = p[1] ^ p[0]
        elif op.kind == "ccx":
            planes[q[2]] = p[2] ^ (p[0] & p[1])
        elif op.kind == "swap":
            planes[q[0]], planes[q[1]] = p[1], p[0]
        elif op.kind == "cswap":
            flip = p[0] & (p[1] ^ p[2])
            planes[q[1]], planes[q[2]] = p[1] ^ flip, p[2] ^ flip
    images = np.zeros(size, dtype=np.int64)
    for q, plane in enumerate(planes):
        raw = np.frombuffer(plane.to_bytes(size // 8, "little"), dtype=np.uint8)
        images |= np.unpackbits(raw, bitorder="little").astype(np.int64) << q
    return images


def fused_kernel_suite(cases: int = 1000, seed: int = 412) -> int:
    """``apply_all``'s fused runs agree with the one-index-at-a-time reference.

    Lists of 20-80 gates are cut into several runs, whose qubits fall into
    non-contiguous chunks.  Nine cases in ten start from a basis state of
    1-63 qubits (63 about half the time, with a gate on qubit 62); every
    tenth starts from a dense state of 11-16 qubits holding signed zeros.
    The final support must hold ``_reference_image`` of each start index at
    that index's position, share the start's amplitude array, and give the
    bytes of the start's amplitudes moved to those images.  Dense images
    come from ``_reference_images``, checked against ``_reference_image`` at
    sampled indices.
    """
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    multi_run = chunked = top = 0
    for case in range(cases):
        dense = case % 10 == 9
        n = rng.randint(11, 16) if dense else rng.choice((rng.randint(1, 63), 63))
        kinds = [k for k, a in _GATE_ARITY.items() if a <= n]
        ops = []
        for _ in range(rng.randint(20, 80)):
            kind = rng.choice(kinds)
            ops.append(GateOp(kind, tuple(rng.sample(range(n), _GATE_ARITY[kind]))))
        if n == 63:
            kind = rng.choice(("x", "cx", "ccx", "swap", "cswap"))
            qubits = rng.sample(range(62), _GATE_ARITY[kind] - 1) + [62]
            rng.shuffle(qubits)
            ops.insert(rng.randrange(len(ops)), GateOp(kind, tuple(qubits)))
        runs = _compile(tuple(ops))[1]
        multi_run += len(runs) >= 3
        chunked += any(len(chunks) >= 2 for chunks, _ in runs)
        top += any(62 in op.qubits for op in ops)

        if dense:
            size = 1 << n
            amps = gen.standard_normal(size) + 1j * gen.standard_normal(size)
            zeros = gen.permutation(size)[: size // 2]
            amps.real[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
            amps.imag[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
            start = StateVector(n, amps / np.sqrt(np.sum(np.abs(amps) ** 2)))
            final = apply_all(start, ops)
            assert final._values is start._values, case
            images = _reference_images(ops, n)
            for i in rng.sample(range(size), 8):
                assert images[i] == _reference_image(ops, i), case
            assert np.array_equal(final._indices, images), case
            out = np.zeros(size, dtype=np.complex128)
            out[images] = start.amplitudes
        else:
            index = rng.getrandbits(n)
            start = basis_state_from_index(n, index)
            final = apply_all(start, ops)
            assert final._values is start._values, case
            image = _reference_image(ops, index)
            assert final._indices.tolist() == [image], case
            if n > 16:  # the dense bytes would take 2**n amplitudes
                continue
            out = np.zeros(1 << n, dtype=np.complex128)
            out[image] = 1.0
        assert final.amplitude_bytes() == out.tobytes(), case
    assert min(multi_run, chunked, top) >= cases // 4, (multi_run, chunked, top)
    return cases


def _sampler_start(rng: random.Random, gen, n: int, kind: str) -> tuple[StateVector, np.ndarray]:
    """A start state of ``kind`` and its dense amplitudes.

    ``full`` comes from the constructor, ``shuffled`` is a full support in
    random index order and ``partial`` a strict subset of the indices in
    random order, both wrapped with ``_from_support``.  Support amplitudes
    hold signed zeros and, in some cases, ``5e-324`` parts whose squares
    underflow to zero.
    """
    if kind == "basis":
        start = basis_state_from_index(n, rng.randrange(1 << n))
        return start, np.array(start.amplitudes)
    size = 1 << n if kind != "partial" else rng.randint(2, (1 << n) - 1)
    values = gen.standard_normal(size) + 1j * gen.standard_normal(size)
    zeros = gen.permutation(size)[: rng.randint(0, size - 1)]
    values.real[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
    values.imag[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
    values /= np.sqrt(np.sum(np.abs(values) ** 2))
    if len(zeros) and rng.random() < 0.5:
        tiny = zeros[: rng.randint(1, len(zeros))]
        values.real[tiny] = np.copysign(5e-324, gen.standard_normal(len(tiny)))
    if kind == "full":
        start = StateVector(n, values)
        return start, np.array(start.amplitudes)
    indices = gen.permutation(1 << n)[:size]
    values.flags.writeable = False
    dense = np.zeros(1 << n, dtype=np.complex128)
    dense[indices] = values
    return StateVector._from_support(n, indices, values), dense


def sampler_suite(cases: int = 1000, seed: int = 414) -> int:
    """``run_circuit``'s draws, ``norm`` and ``probabilities`` match dense references.

    States of 1-16 qubits with full, shuffled full, partial or basis
    supports (see ``_sampler_start``) go through 0-12 random gates, and
    0-16 measured qubits land on classical bits with gaps.  The histogram
    of 0-2,000 shots must be the one ``_dense_sampler`` draws with
    ``Generator.choice`` over the dense final amplitudes and the same seed.
    ``probabilities`` must equal the dense final's squared magnitudes above
    the cutoff, and ``norm`` the sum of the dense final's squared
    magnitudes in index order, over the whole vector for a full support
    and over the support's images for a smaller one (a sum over the zeros
    off the support may round differently).  Both are compared bit for bit
    and before the dense view is built, and a full support that the gates
    permuted must leave ``run_circuit`` without its dense view.
    """
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    kinds = ("full", "shuffled", "partial", "basis")
    drawn = 0
    for case in range(cases):
        kind = kinds[case % 4]
        n = rng.randint(2 if kind == "partial" else 1, 16 if case % 8 < 4 else 11)
        start, dense = _sampler_start(rng, gen, n, kind)
        names = [k for k, a in _GATE_ARITY.items() if a <= n]
        ops = []
        for _ in range(rng.randint(0, 12)):
            name = rng.choice(names)
            ops.append(GateOp(name, tuple(rng.sample(range(n), _GATE_ARITY[name]))))
        qubits = rng.sample(range(n), rng.randint(0, n))
        clbits = rng.sample(range(len(qubits) + rng.randint(0, 3)), len(qubits))
        circuit = Circuit(n, ops, tuple(zip(qubits, clbits)))
        shots = rng.choice((0, 1, rng.randint(2, 200), rng.randint(2, 200), rng.randint(200, 2000)))
        shot_seed = rng.randrange(1 << 32)
        final, hist = run_circuit(circuit, start, shots, shot_seed)

        if n >= 3:
            images = _reference_images(ops, n)
        else:
            images = np.array([_reference_image(ops, i) for i in range(1 << n)])
        out = np.zeros(1 << n, dtype=np.complex128)
        out[images] = dense
        if ops and kind in ("full", "shuffled"):
            assert final._indices is not None and not hasattr(final, "_dense"), case
        mags = np.abs(out) ** 2
        if kind in ("full", "shuffled"):
            assert final.norm() == float(mags.sum()), case
        else:
            support = np.sort(images[start._indices])
            assert final.norm() == float(mags[support].sum()), case
        keep = np.flatnonzero(mags > 1e-12)
        want = list(zip([format(i, f"0{n}b") for i in keep.tolist()], mags[keep].tolist()))
        assert probabilities(final) == want, case
        assert final.amplitude_bytes() == out.tobytes(), case
        want = _dense_sampler(out, circuit.measured_qubits, circuit.num_clbits, shots, shot_seed)
        assert hist == want, case
        drawn += len(final._values) > 1 and shots > 0 and bool(qubits)
    assert drawn >= cases // 2, drawn
    return cases


def _dense_images(ops, n: int) -> np.ndarray:
    """The image of every n-qubit basis index under the gate list."""
    if n >= 3:
        return _reference_images(ops, n)
    return np.array([_reference_image(ops, i) for i in range(1 << n)], dtype=np.int64)


def dense_image_suite(cases: int = 300, seed: int = 418) -> Counter:
    """A gate list maps dense states of one width through one shared, read-only image.

    Each case draws 1-12 gates over x/cx/ccx/swap/cswap/id and a dense
    state of 1-14 qubits holding signed zeros, then runs the list on fresh
    copies of the state three times, ``apply_all`` and ``run_circuit`` in
    turn: the first run is cold when the list has not met that width
    before, the later ones are warm.  Every final must hold the list's
    image of ``arange(2**n)`` as its indices (one read-only object for
    every run), give the bytes of the amplitudes moved to
    ``_reference_images`` and sample the dense sampler's histogram.  The
    image stays the same after a final is mapped again and after every
    final builds its dense view.  About one case in two runs the list on a
    second width too, which must keep an image of its own.
    """
    rng = random.Random(seed)
    gen = np.random.default_rng(seed)
    outcomes = Counter()

    def dense_state(width: int) -> np.ndarray:
        size = 1 << width
        amps = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        zeros = gen.permutation(size)[: rng.randint(0, size - 1)]
        amps.real[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
        amps.imag[zeros] = np.copysign(0.0, gen.standard_normal(len(zeros)))
        return amps / np.sqrt(np.sum(np.abs(amps) ** 2))

    def moved(amps: np.ndarray, images: np.ndarray) -> np.ndarray:
        out = np.zeros(len(amps), dtype=np.complex128)
        out[images] = amps
        return out

    for case in range(cases):
        n = rng.randint(1, 14)
        span = rng.randint(1, n)
        names = [k for k, a in _GATE_ARITY.items() if a <= span]
        ops = []
        for _ in range(rng.randint(1, 12)):
            name = rng.choice(names)
            ops.append(GateOp(name, tuple(rng.sample(range(span), _GATE_ARITY[name]))))
        ops = tuple(ops)
        qubits = rng.sample(range(n), rng.randint(0, n))
        circuit = Circuit(n, ops, tuple(zip(qubits, rng.sample(range(n), len(qubits)))))
        shots, shot_seed = rng.randint(1, 100), rng.randrange(1 << 32)
        amps = dense_state(n)
        reference = _dense_images(ops, n)
        expected = moved(StateVector(n, amps).amplitudes, reference)
        histogram = _dense_sampler(expected, circuit.measured_qubits, circuit.num_clbits,
                                   shots, shot_seed)

        kept = _compile(ops)[2]
        cold = n not in kept
        finals = []
        for run in range(3):
            start = StateVector(n, amps)
            if (case + run) % 2:
                final, hist = run_circuit(circuit, start, shots, shot_seed)
                assert hist == histogram, case
            else:
                final = apply_all(start, ops)
            assert final._values is start._values, case
            finals.append(final)
        image = kept[n]
        assert not image.flags.writeable, case
        assert all(final._indices is image for final in finals), case
        assert np.array_equal(image, reference), case
        outcomes["cold " + ("run_circuit" if case % 2 else "apply_all")] += cold
        outcomes["warm"] += 2

        again = apply_all(finals[0], ops)  # a support out of index order
        assert again._indices is not image, case
        assert again.amplitude_bytes() == moved(expected, reference).tobytes(), case
        for final in finals:
            assert final.amplitude_bytes() == expected.tobytes(), case
            assert final._indices is None, case
        assert kept[n] is image and not image.flags.writeable, case
        assert np.array_equal(image, reference), case

        others = [m for m in range(span, 15) if m != n]
        if others and rng.random() < 0.5:
            m = rng.choice(others)
            other = StateVector(m, dense_state(m))
            final = apply_all(other, ops)
            assert set(kept) >= {n, m} and kept[n] is image, case
            assert final._indices is kept[m] and len(kept[m]) == 1 << m, case
            assert final.amplitude_bytes() == moved(
                other.amplitudes, _dense_images(ops, m)).tobytes(), case
            outcomes["two widths"] += 1
        outcomes["cases"] += 1
    return outcomes


def _reversal_payload(rng: random.Random, width: int) -> StateVector:
    """A basis, uniform (X-invariant, so a CX target stays a product) or random state."""
    kind = rng.choice(("basis", "uniform", "random", "random"))
    if kind == "basis":
        return basis_state_from_index(width, rng.randrange(1 << width))
    if kind == "uniform":
        phase = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        phase /= abs(phase)
        return StateVector(width, [phase / (1 << width) ** 0.5] * (1 << width))
    return _random_start(rng, width, "dense")


def _gated_reversal_case(rng: random.Random):
    """A net whose one transition takes 2-3 data tokens of 1-3 qubits through gates."""
    widths = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    total = sum(widths)
    kinds = [k for k, a in _GATE_ARITY.items() if a <= total]
    gate = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(kinds)
        gate.append(GateOp(kind, tuple(rng.sample(range(total), _GATE_ARITY[kind]))))
    inputs = [f"P{i + 1}" for i in range(len(widths))]
    places = [Place(pid, PlaceKind.INPUT) for pid in inputs] + [Place("P_O", PlaceKind.OUTPUT)]
    t1 = Transition(
        id="T1",
        input_arcs=tuple(Arc(pid, "T1", "in", f"x{i}") for i, pid in enumerate(inputs)),
        output_arcs=(Arc("P_O", "T1", "out", "f"),),
        routing={f"x{i}": "P_O" for i in range(len(inputs))},
        gate=tuple(gate),
    )
    tokens = [QToken(f"d{i + 1}", TokenKind.DATA, _reversal_payload(rng, w))
              for i, w in enumerate(widths)]
    net = QPNet(places, [t1], tokens)
    return net, net.initial_marking({pid: [tok.id] for pid, tok in zip(inputs, tokens)})


def gated_reversal_suite(cases: int = 1000, seed: int = 407) -> int:
    """unfire(fire(m)) == m for gated firings on superposed payloads.

    Random permutation gates act across 2-3 data tokens of 1-3 qubits each.
    A draw whose gate entangles the tokens cannot fire and is replaced;
    ``cases`` counts the firings actually reversed.
    """
    rng = random.Random(seed)
    done = skipped = 0
    while done < cases:
        net, marking = _gated_reversal_case(rng)
        try:
            after, event = fire(net, marking, "T1")
        except ModelError:
            skipped += 1
            assert skipped < 4 * cases, "too few product-state draws"
            continue
        back = unfire(net, after, event)
        assert back == marking and hash(back) == hash(marking), done
        for move in event.consumed:
            assert back.payload(move.token).amplitude_bytes() == move.payload.amplitude_bytes()
        done += 1
    return done


# Reference emission: the documents the package built before its fixed-layout writers,
# each payload a [real, imaginary] list, serialized by ``json.dumps``.


def _reference_payload(payload: StateVector) -> list[list[float]]:
    return [[a.real, a.imag] for a in payload.amplitudes.tolist()]


def _reference_marking(marking: Marking) -> dict:
    return {
        "time": marking.time,
        "queues": {pid: [list(e) for e in entries] for pid, entries in marking.queues.items()},
        "payloads": {tok: _reference_payload(p) for tok, p in marking.payloads.items()},
        "addresses": dict(marking.addresses),
    }


def _reference_move(move: TokenMove) -> dict:
    return {
        "token": move.token,
        "place": move.place,
        "payload": _reference_payload(move.payload),
        "address": move.address,
    }


def _reference_event(event) -> dict:
    if isinstance(event, SkippedSelection):
        return {"type": "skipped", "time": event.time, "transition": event.transition,
                "reason": event.reason}
    return {
        "type": "firing",
        "time": event.time,
        "transition": event.transition,
        "consumed": [_reference_move(m) for m in event.consumed],
        "produced": [_reference_move(m) for m in event.produced],
        "consumed_entry_sizes": list(event.consumed_entry_sizes),
        "produced_entry_sizes": list(event.produced_entry_sizes),
    }


def reference_trace_text(trace: Trace) -> str:
    out = {
        "schema": TRACE_SCHEMA,
        "places": list(trace.places),
        "initial": _reference_marking(trace.initial),
        "events": [_reference_event(e) for e in trace.events],
        "final": _reference_marking(trace.final),
        "table": [{"time": t, "counts": list(row)} for t, row in trace.table],
    }
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


def reference_scenario_text(doc: ScenarioDoc) -> str:
    out: dict = {"schema": SCENARIO_SCHEMA}
    for f in fields(BufferSpec):
        value = getattr(doc, f.name)
        if f.name == "payloads":
            if value:
                out["payloads"] = {tok: _reference_payload(p) for tok, p in value.items()}
        elif value is not None:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    out["scheduler"] = doc.scheduler
    if doc.script is not None:
        out["script"] = list(doc.script)
    out["seed"] = doc.seed
    out["enumerate"] = doc.enumerate_outcomes
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


def reference_signature_text(signatures: dict, places) -> str:
    doc = [
        {"signature": {pid: count for pid, count in sig if pid in places}, "witness": list(wit)}
        for sig, wit in sorted(signatures.items())
    ]
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# Names that exercise string escaping: quotes, backslashes, controls, non-ASCII.
_NAME_PARTS = ("P", "d", "T", "é", "\u2603", '"', "\\", "\n", "\t", "/", "\x7f", "\U0001f600",
               "_", "1", " ")


def _random_name(rng: random.Random) -> str:
    return "".join(rng.choice(_NAME_PARTS) for _ in range(rng.randint(1, 4)))


def _distinct_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = _random_name(rng)
        if name not in names:
            names.append(name)
    return names


def _awkward_payload(rng: random.Random) -> StateVector:
    """A 1-3 qubit state, often superposed, with signed zeros and tiny amplitudes."""
    n = rng.randint(1, 3)
    if rng.random() < 0.3:
        return basis_state_from_index(n, rng.randrange(1 << n))
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    amps = [a / norm for a in amps]
    for i in rng.sample(range(len(amps)), rng.randint(0, len(amps) - 1)):
        amps[i] = complex(rng.choice((-0.0, 0.0, 1e-17, -1e-17, 5e-324, 2.2e-308)),
                          rng.choice((-0.0, 0.0, 1e-17, 5e-324, -5e-324)))
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return StateVector(n, [complex(a.real / norm, a.imag / norm) for a in amps])


def _random_marking(rng: random.Random, places, tokens, payloads) -> Marking:
    queues = {pid: [] for pid in places}
    rest = list(tokens)
    rng.shuffle(rest)
    while rest and places:
        size = min(len(rest), rng.choice((1, 1, 2)))
        queues[rng.choice(places)].append(tuple(rest[:size]))
        rest = rest[size:]
    placed = [tok for entries in queues.values() for entry in entries for tok in entry]
    return Marking(
        queues,
        {tok: rng.choice(payloads) for tok in placed},
        {tok: rng.choice((None, 0, 1, 7, 2**40)) for tok in placed},
        time=rng.randrange(50),
    )


def _random_trace(rng: random.Random) -> Trace:
    """A trace of random parts: nothing in it need be a run of any net."""
    places = _distinct_names(rng, rng.randint(0, 4))
    tokens = _distinct_names(rng, rng.randint(0, 6))
    payloads = [_awkward_payload(rng) for _ in range(rng.randint(1, 4))]
    events = []
    for time in range(rng.choice((0, 0, 1, 3, 6))):
        if not places or not tokens or rng.random() < 0.3:
            tid = rng.choice((None, _random_name(rng)))
            events.append(SkippedSelection(time, tid, _random_name(rng)))
            continue
        sides = []
        for _ in range(2):
            moves = tuple(
                TokenMove(rng.choice(tokens), rng.choice(places), rng.choice(payloads),
                          rng.choice((None, 0, 3)))
                for _ in range(rng.randint(0, 3))
            )
            sides.append(moves)
        events.append(FiringEvent(time, _random_name(rng), *sides,
                                  tuple(1 for _ in sides[0]), tuple(1 for _ in sides[1])))
    return Trace(
        _random_marking(rng, places, tokens, payloads),
        tuple(events),
        _random_marking(rng, places, tokens, payloads),
    )


def emitter_suite(cases: int = 1000, seed: int = 408) -> int:
    """The document writers write what ``json.dumps(doc, sort_keys=True, indent=1)`` writes.

    Each case checks a random trace (payloads of 1-3 qubits with signed
    zeros, subnormal and 1e-17 amplitudes, skipped events with null
    transitions, empty queues and event lists, escaped names), a random
    scenario and a random signature document against the reference built
    from plain lists and dicts.
    """
    rng = random.Random(seed)
    for case in range(cases):
        trace = _random_trace(rng)
        assert emit_trace(trace) == reference_trace_text(trace), case

        spec = random_spec(rng)
        payloads = {tok: _awkward_payload(rng) for tok in rng.sample(
            [f"d{i}" for i in range(1, 6)], rng.randint(0, 3))}
        scheduler = rng.choice(("address-driven", "scripted", "eager-output-then-script"))
        script = None if rng.random() < 0.5 else tuple(
            _random_name(rng) for _ in range(rng.randint(0, 3)))
        doc = ScenarioDoc(**{f.name: getattr(spec, f.name) for f in fields(BufferSpec)
                             if f.name != "payloads"},
                          payloads=payloads, scheduler=scheduler, script=script,
                          seed=rng.randrange(1 << 20), enumerate_outcomes=rng.random() < 0.5)
        assert emit_scenario(doc) == reference_scenario_text(doc), case

        places = tuple(_distinct_names(rng, rng.randint(1, 4)))
        signatures = {
            tuple((pid, rng.randrange(5)) for pid in places):
                tuple(_random_name(rng) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 4))
        }
        shown = tuple(rng.sample(places, rng.randint(0, len(places))))
        assert (emit_signatures(signatures, shown)
                == reference_signature_text(signatures, shown)), case
    return cases


# Reference reading: the trace parser before the one-pass reader, in three
# passes (read every event, replay them all, rebuild and compare the table),
# with the per-pair payload check.  ``trace_mutation_suite`` holds the
# package's reader to its results and errors.


def _reference_payload_value(value, name) -> StateVector:
    if isinstance(value, str):
        if not value or set(value) - {"0", "1"}:
            raise ScenarioError(f"basis label must be nonempty 0/1, got {value!r}", field=name)
        try:
            return basis_state(len(value), value)
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
    if isinstance(value, list):
        if len(value) < 2 or len(value) & (len(value) - 1):
            raise ScenarioError(
                f"amplitude list length must be a power of two >= 2, got {len(value)}",
                field=name,
            )
        amps = []
        for i, pair in enumerate(value):
            if not isinstance(pair, list) or len(pair) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
            ):
                raise ScenarioError(
                    f"amplitude {i} must be a [real, imaginary] pair", field=name
                )
            try:
                amps.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise ScenarioError(f"amplitude {i} is out of range", field=name) from None
        try:
            return StateVector(len(value).bit_length() - 1, amps)
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
    raise ScenarioError(
        f"payload must be a basis label or amplitude pair list, got {type(value).__name__}",
        field=name,
    )


def _reference_cached_payload(value, seen: dict, where: str, tok=None) -> StateVector:
    key = value if type(value) is str else marshal.dumps(value, 2)
    state = seen.get(key)
    if state is None:
        state = seen[key] = _reference_payload_value(
            value, where if tok is None else f"{where}.{tok}")
    return state


def _reference_marking_from_json(raw, name: str, places, seen: dict) -> Marking:
    raw = _expect(raw, dict, name)
    try:
        where = f"{name}.queues"
        raw_queues = _expect(raw["queues"], dict, where)
        if sorted(raw_queues) != sorted(places):
            raise ScenarioError("queue places differ from the trace's places", field=where)
        queues = {}
        for pid in places:
            field = f"{where}.{pid}"
            queues[pid] = tuple(
                _strings(entry, field) for entry in _expect(raw_queues[pid], list, field)
            )
        where = f"{name}.payloads"
        payloads = {
            tok: _reference_cached_payload(v, seen, where, tok)
            for tok, v in _expect(raw["payloads"], dict, where).items()
        }
        addresses = _expect(raw["addresses"], dict, f"{name}.addresses")
        if not all(map(_is_address, addresses.values())):
            raise ScenarioError(
                "addresses must be integers >= 0 or null", field=f"{name}.addresses"
            )
        tokens = {tok for entries in queues.values() for entry in entries for tok in entry}
        if payloads.keys() != tokens or addresses.keys() != tokens:
            raise ScenarioError("payloads and addresses must cover the queued tokens", field=name)
        return Marking(queues, payloads, addresses, _int_field(raw["time"], f"{name}.time"))
    except KeyError as exc:
        raise ScenarioError(f"marking misses key {exc.args[0]!r}", field=name) from exc
    except ModelError as exc:
        raise ScenarioError(str(exc), field=name) from exc


def _reference_event_from_json(ev, name: str, seen: dict):
    ev = _expect(ev, dict, name)
    try:
        time = _int_field(ev["time"], f"{name}.time")
        if ev.get("type") == "skipped":
            tid = ev["transition"]
            return SkippedSelection(
                time, None if tid is None else _expect(tid, str, f"{name}.transition"),
                _expect(ev["reason"], str, f"{name}.reason"),
            )
        if ev.get("type") != "firing":
            raise ScenarioError(f"unknown event type {ev.get('type')!r}", field=name)
        moves = []
        for side in ("consumed", "produced"):
            where, side_moves = f"{name}.{side}", []
            for m in _expect(ev[side], list, where):
                m = _expect(m, dict, where)
                token, place, address = m["token"], m["place"], m["address"]
                if type(token) is not str or type(place) is not str or not _is_address(address):
                    raise ScenarioError(
                        "a move needs a token id, a place id and an address", field=where
                    )
                payload = _reference_cached_payload(m["payload"], seen, where)
                side_moves.append(TokenMove(token, place, payload, address))
            moves.append(tuple(side_moves))
        sizes = [_ints(ev[key], f"{name}.{key}", 1)
                 for key in ("consumed_entry_sizes", "produced_entry_sizes")]
        return FiringEvent(
            time, _expect(ev["transition"], str, f"{name}.transition"), *moves, *sizes
        )
    except KeyError as exc:
        raise ScenarioError(f"event misses key {exc.args[0]!r}", field=name) from exc


def _reference_replay(trace: Trace):
    queues = {pid: deque(entries) for pid, entries in trace.initial.queues.items()}
    for i, event in enumerate(trace.events):
        if isinstance(event, SkippedSelection):
            continue
        name = f"events[{i}]"
        for side, moves, sizes in (("consumed", event.consumed, event.consumed_entry_sizes),
                                   ("produced", event.produced, event.produced_entry_sizes)):
            if sum(sizes) != len(moves):
                raise ScenarioError(
                    f"entry sizes add up to {sum(sizes)}, not {len(moves)} moves",
                    field=f"{name}.{side}_entry_sizes",
                )
        if sorted(m.token for m in event.consumed) != sorted(m.token for m in event.produced):
            raise ScenarioError("a firing must produce the tokens it consumes", field=name)
        for side, groups in (("consumed", consumed_entries(event)),
                             ("produced", produced_entries(event))):
            for group in groups:
                place, entry = group[0].place, tuple([m.token for m in group])
                queue = queues.get(place)
                if queue is None or len(group) > 1 and any(m.place != place for m in group):
                    raise ScenarioError(
                        f"entry {entry} is not in one of the trace's places",
                        field=f"{name}.{side}",
                    )
                if side == "produced":
                    queue.append(entry)
                elif queue and queue[0] == entry:
                    queue.popleft()
                else:
                    raise ScenarioError(
                        f"entry {entry} is not at the head of {place}", field=f"{name}.consumed"
                    )
    final = trace.final.queues
    if any(tuple(queue) != final[pid] for pid, queue in queues.items()):
        raise ScenarioError("final queues are not the ones the events leave", field="final")


def reference_parse_trace(text: str) -> Trace:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict) or raw.get("schema") != TRACE_SCHEMA:
        raise ScenarioError(f"expected schema {TRACE_SCHEMA!r}", field="schema")
    for name in ("places", "initial", "final", "table"):
        if name not in raw:
            raise ScenarioError(f"trace misses key {name!r}", field=name)
    places = _strings(raw["places"], "places")
    seen: dict = {}
    initial = _reference_marking_from_json(raw["initial"], "initial", places, seen)
    events = tuple(
        _reference_event_from_json(ev, f"events[{i}]", seen)
        for i, ev in enumerate(_expect(raw.get("events", []), list, "events"))
    )
    trace = Trace(initial, events,
                  _reference_marking_from_json(raw["final"], "final", places, seen))
    _reference_replay(trace)
    table = []
    for i, row in enumerate(_expect(raw["table"], list, "table")):
        row = _expect(row, dict, f"table[{i}]")
        if "time" not in row or "counts" not in row:
            raise ScenarioError("table row needs time and counts", field=f"table[{i}]")
        table.append((_int_field(row["time"], f"table[{i}].time"),
                      _ints(row["counts"], f"table[{i}].counts")))
    if tuple(table) != trace.table:
        raise ScenarioError("table disagrees with the places and events", field="table")
    return trace


# Values a mutation writes into a trace: every JSON type, near misses of the
# document's own values, and payloads valid and not.
_MUTANTS = (
    None, True, False, 0, 1, -1, 2, 3, 7, 1.0, -0.0, 0.5, 1e308 * 10, 10**400, "", "x",
    "d1", "d2", "z1", "P_I", "P_O", "P_A", "P_DA", "T1", "T2", "firing", "skipped",
    [], {}, [1], [0], ["d1"], [["d1"]], [1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0]], [[1, 0], [0, 0]], [[True, 0.0], [0.0, 0.0]],
    [[0.6, 0.0], [0.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0]], "01", "1",
    [[0.7071067811865476, 0.0], [0.0, -0.7071067811865476]], {"extra": 1},
)


def _slots(value, inside=False, holds_payloads=False):
    """Every (container, key, inside a payload) slot of a JSON tree, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield value, key, inside
        yield from _slots(item, inside or holds_payloads or key == "payload", key == "payloads")


def _mutate(rng: random.Random, doc) -> str:
    """The text of ``doc`` with one fault: a value, key or list item changed, or the text cut."""
    slots = list(_slots(doc))
    outside = [slot for slot in slots if not slot[2]]
    container, key, _ = rng.choice(outside if outside and rng.random() < 0.85 else slots)
    op = rng.choice(("replace", "replace", "nudge", "delete", "duplicate", "swap", "swap",
                     "add_key", "text"))
    item = container[key]
    if op == "nudge" and type(item) in (int, float):
        container[key] = item + rng.choice((-1, 1))
    elif op == "nudge" and isinstance(item, str):
        strings = [v for c, k, _ in slots if isinstance(v := c[k], str) and v != item]
        container[key] = rng.choice(strings) if strings else item + "x"
    elif op == "nudge" and isinstance(item, list) and len(item) > 1:
        container[key] = item[::-1]
    elif op == "delete":
        del container[key]
    elif op == "duplicate" and isinstance(container, list):
        container.insert(rng.randint(0, len(container)), item)
    elif op == "swap" and len(container) > 1:
        other = rng.choice([k for k in (container if isinstance(container, dict)
                                        else range(len(container))) if k != key])
        container[key], container[other] = container[other], container[key]
    elif op == "add_key" and isinstance(item, dict):
        item[rng.choice(("extra", "type", "time", "token", "places"))] = rng.choice(_MUTANTS)
    elif op == "text":
        text = json.dumps(doc, indent=1)
        cut = rng.randrange(len(text))
        return text[:cut] + rng.choice(("", "}", "]", ",", '"', "x", "0", " ")) + text[cut + 1:]
    else:
        container[key] = rng.choice(_MUTANTS)
    return json.dumps(doc, indent=1)


def _mutation_source(rng: random.Random) -> str:
    """A valid trace: fig2-example, or a run of a random buffer of any kind.

    Some runs follow a random address program, whose selections of missing
    or blocked transitions are recorded as skipped.
    """
    if rng.random() < 0.08:
        net, marking = build_cnot_example()
        return emit_trace(run(net, marking, Scripted(("T1",))))
    while True:
        spec = _quotient_spec(rng)
        program = spec.addresses
        if rng.random() < 0.3:
            program = tuple(rng.randrange(4) for _ in range(rng.randint(1, 6)))
        try:
            return emit_trace(run(*spec.build(), AddressDriven(program)))
        except QpnError:
            continue


def _reading(parse, text: str):
    """What ``parse`` makes of ``text``: the trace, its table and its text, or the error."""
    try:
        trace = parse(text)
    except QpnError as exc:
        return (type(exc), str(exc), getattr(exc, "field", None), getattr(exc, "line", None))
    return (trace, trace.table, emit_trace(trace))


# Faults that only the replay, the table comparison or the JSON reader find.
TRACE_CHECKS = (
    "invalid JSON", "is not at the head of", "is not in one of the trace's places",
    "must produce the tokens it consumes", "entry sizes add up",
    "final queues are not the ones", "table disagrees",
)


def trace_mutation_suite(cases: int = 1000, seed: int = 410) -> Counter:
    """``parse_trace`` reads mutated traces as ``reference_parse_trace`` does.

    Each case takes a valid trace (fig2-example, or a run of a random buffer
    of any kind, with skipped selections, pair entries and superposed
    payloads), makes one fault in it and requires the same ``Trace`` (table
    and emitted text included) or the same error: type, message, field and
    line.  An error other than a ``QpnError`` escapes.  Returns how many cases were
    read as a trace (``"accepted"``), met each of ``TRACE_CHECKS``, or met
    another error.
    """
    rng = random.Random(seed)
    outcomes: Counter = Counter()
    for case in range(cases):
        mutated = _mutate(rng, json.loads(_mutation_source(rng)))
        want = _reading(reference_parse_trace, mutated)
        assert _reading(parse_trace, mutated) == want, (case, mutated, want)
        if isinstance(want[0], Trace):
            outcomes["accepted"] += 1
        else:
            outcomes[next((check for check in TRACE_CHECKS if check in want[1]),
                          "other error")] += 1
    return outcomes


# Scenario documents through the CLI: one-fault mutations of the demos and
# of small random scenarios, run by ``main`` as ``buffer run`` or
# ``buffer enumerate``.

# Values a mutation writes into a scenario.  Integers stay small, so that
# no mutated instance is large enough to take long or allocate much.
_SCENARIO_MUTANTS = (
    None, True, False, 0.5, 1.0, "", "x", "d1", "T1", "siso", "scripted", "01",
    [], {}, [1], [0, 1], [[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.0]],
)
_SCENARIO_KEYS = ("n", "m", "k", "r", "outputs", "addresses", "script", "scheduler",
                  "enumerate", "payloads", "extra")


def _scenario_source(rng: random.Random) -> dict:
    """A scenario document: a CLI demo, or a small random buffer with random run settings."""
    if rng.random() < 0.25:
        return json.loads(rng.choice(list(cli._DEMO_SCENARIOS.values()))[0])
    spec = _quotient_spec(rng)
    doc = json.loads(emit_scenario(ScenarioDoc(**{f.name: getattr(spec, f.name)
                                                  for f in fields(BufferSpec)})))
    for name in KIND_TABLE[spec.kind].programs:
        if doc.get(name) == []:
            del doc[name]
    doc["scheduler"] = rng.choice(SCHEDULERS)
    if doc["scheduler"] != "address-driven" and rng.random() < 0.8:
        doc["script"] = [f"T{rng.randint(1, 5)}" for _ in range(rng.randint(0, 6))]
    doc["enumerate"] = rng.random() < 0.2
    return doc


def _mutate_scenario(rng: random.Random, doc) -> str:
    """The text of ``doc`` with one fault: a value, key or list item changed, or the text cut."""
    slots = list(_slots(doc))
    numbers = [slot for slot in slots if type(slot[0][slot[1]]) is int and not slot[2]]
    outside = [slot for slot in slots if not slot[2]]
    op = rng.choice(("int", "int", "int", "mutant", "delete", "duplicate", "add_key", "text"))
    if op == "int" and numbers:
        container, key, _ = rng.choice(numbers)
    else:
        container, key, _ = rng.choice(outside if rng.random() < 0.85 else slots)
    if op == "int":
        container[key] = rng.randint(-2, 12)
    elif op == "delete":
        del container[key]
    elif op == "duplicate" and isinstance(container, list):
        container.insert(rng.randint(0, len(container)), container[key])
    elif op == "add_key" and isinstance(container, dict):
        container[rng.choice(_SCENARIO_KEYS)] = rng.choice(_SCENARIO_MUTANTS)
    elif op == "text":
        text = json.dumps(doc, indent=1)
        cut = rng.randrange(len(text))
        return text[:cut] + rng.choice(("", "}", "]", ",", '"', "x", "0", " ")) + text[cut + 1:]
    else:
        container[key] = rng.choice(_SCENARIO_MUTANTS)
    return json.dumps(doc, indent=1)


def scenario_mutation_suite(directory, cases: int = 1000, seed: int = 416) -> tuple[Counter, str]:
    """Mutated scenario documents through ``main``: an exit code of 0, 1 or 2, never a traceback.

    Each case makes one fault in a scenario document (a demo, or a small
    random buffer of any kind), writes it to a file in ``directory`` and
    runs it as ``buffer run`` or ``buffer enumerate``, in JSON or table
    format.  An error other than a ``QpnError`` escapes ``main`` and so
    this suite.  Returns how many cases gave each exit code, and a sha256
    over every case's exit code, output and error output.
    """
    rng = random.Random(seed)
    path = Path(directory) / "scenario.json"
    codes: Counter = Counter()
    digest = hashlib.sha256()
    for case in range(cases):
        path.write_text(_mutate_scenario(rng, _scenario_source(rng)))
        argv = ["buffer", rng.choice(("run", "enumerate")), "--scenario", str(path),
                "--format", rng.choice(("json", "table"))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (case, code, err.getvalue())
        codes[code] += 1
        digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    return codes, digest.hexdigest()


# QASM reading: the reader before it took gate statements first, and
# one-fault mutations of exported register and flip-flop listings.

_REFERENCE_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")
_REFERENCE_CREG_RE = re.compile(r"^creg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")
_REFERENCE_REF_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*([0-9]+)\s*\]$")
_REFERENCE_INCLUDE_RE = re.compile(r'^include\s+"[^"]+"$')
_REFERENCE_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")


def _reference_ref(token: str, register: str, size: int, lineno: int) -> int:
    m = _REFERENCE_REF_RE.match(token.strip())
    if not m:
        raise QasmError(f"malformed register reference {token.strip()!r}", lineno)
    name, idx = m.group(1), int(m.group(2))
    if name != register:
        raise QasmError(f"unknown register {name!r} (expected {register!r})", lineno)
    if idx >= size:
        raise QasmError(f"index {idx} out of range for {register}[{size}]", lineno)
    return idx


def reference_parse_qasm(text: str) -> Circuit:
    """Each statement tried as a header, register and measure before a gate."""
    saw_version = False
    qreg = creg = None
    ops, measured = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise QasmError(f"statement does not end with ';': {line!r}", lineno)
        stmt = line[:-1].strip()
        if stmt.startswith("OPENQASM"):
            if stmt.split() != ["OPENQASM", "2.0"]:
                raise QasmError(f"unsupported version statement {stmt!r}", lineno)
            saw_version = True
            continue
        if not saw_version:
            raise QasmError("missing OPENQASM 2.0 header", lineno)
        if _REFERENCE_INCLUDE_RE.match(stmt):
            continue
        m = _REFERENCE_QREG_RE.match(stmt)
        if m:
            if qreg is not None:
                raise QasmError("multiple qreg declarations", lineno)
            qreg = (m.group(1), int(m.group(2)))
            continue
        m = _REFERENCE_CREG_RE.match(stmt)
        if m:
            if creg is not None:
                raise QasmError("multiple creg declarations", lineno)
            creg = (m.group(1), int(m.group(2)))
            continue
        head = (stmt.split(None, 1) or [""])[0]
        if head in ("qreg", "creg"):
            raise QasmError(f"malformed {head} declaration {stmt!r}", lineno)
        if qreg is None:
            raise QasmError("statement before qreg declaration", lineno)
        m = _REFERENCE_MEASURE_RE.match(stmt)
        if m:
            if creg is None:
                raise QasmError("measure before creg declaration", lineno)
            q = _reference_ref(m.group(1), qreg[0], qreg[1], lineno)
            c = _reference_ref(m.group(2), creg[0], creg[1], lineno)
            measured.append((q, c))
            continue
        parts = stmt.split(None, 1)
        if len(parts) != 2 or parts[0] not in _GATE_ARITY:
            raise QasmError(f"unsupported statement {stmt!r}", lineno)
        kind, args = parts
        qubits = tuple(_reference_ref(tok, qreg[0], qreg[1], lineno) for tok in args.split(","))
        try:
            ops.append(GateOp(kind, qubits))
        except Exception as exc:
            raise QasmError(str(exc), lineno) from exc
    if qreg is None:
        raise QasmError("no qreg declaration found")
    try:
        return Circuit(num_qubits=qreg[1], ops=tuple(ops), measured_qubits=tuple(measured))
    except Exception as exc:
        raise QasmError(str(exc)) from exc


def _qasm_source(rng: random.Random) -> str:
    """An exported flip-flop or register listing, some with X initialization or no measures."""
    variant = rng.choice(list(CircuitVariant))
    if rng.random() < 0.2:
        circuit = build_qsr_circuit(variant)
    else:
        circuit = build_register(rng.randint(1, 3), variant)
    if rng.random() < 0.15:
        circuit = Circuit(circuit.num_qubits, circuit.ops)
    raised = tuple(sorted(rng.sample(range(circuit.num_qubits), rng.randint(0, 3))))
    return export_qasm(circuit, raised)


_QASM_MUTATIONS = (
    "semicolon_only", "gate_early", "register", "index", "arity", "repeat", "semicolon",
    "comment", "second_register", "kind", "delete", "duplicate", "swap", "space", "text",
)


def _mutate_qasm(rng: random.Random, text: str) -> str:
    """``text`` with one fault or one harmless change in one line."""
    lines = text.split("\n")
    statements = [i for i, line in enumerate(lines) if line.strip()]
    gates = [i for i in statements if lines[i].split(None, 1)[0] in _GATE_ARITY]
    refs = [i for i in statements if "[" in lines[i]]
    at = rng.choice(statements)
    op = rng.choice(_QASM_MUTATIONS)
    if op in ("gate_early", "arity", "repeat", "kind") and gates:
        at = rng.choice(gates)
    elif op in ("register", "index") and refs:
        at = rng.choice(refs)
    line = lines[at]
    if op == "semicolon_only":
        lines.insert(rng.randint(0, len(lines)), rng.choice((";", " ;", ";  // empty")))
    elif op == "gate_early":
        qreg = next(i for i, line in enumerate(lines) if line.startswith("qreg"))
        lines.insert(rng.choice((0, 1, qreg)), line if rng.random() < 0.5 else lines.pop(at))
    elif op == "register":
        name = re.findall(r"[A-Za-z_]\w*(?=\[)", line)
        lines[at] = line.replace(f"{rng.choice(name)}[", rng.choice(("r[", "c[", "q[", "qq[")), 1)
    elif op == "index":
        spots = list(re.finditer(r"\[(\d+)\]", line))
        spot = rng.choice(spots)
        value = int(spot.group(1)) + rng.choice((-1, 1, 5, 20, 70))
        lines[at] = f"{line[:spot.start()]}[{max(value, 0)}]{line[spot.end():]}"
    elif op == "arity":
        args = line[:-1].split(None, 1)[1].split(", ")
        roll = rng.random()
        if roll < 0.15:
            args = []
        elif roll < 0.55 or len(args) == 1:
            args.append(f"q[{rng.randint(0, 40)}]")
        else:
            args.pop(rng.randrange(len(args)))
        lines[at] = f"{line.split(None, 1)[0]} {', '.join(args)};"
    elif op == "repeat":
        kind, args = line[:-1].split(None, 1)
        args = args.split(", ")
        args[rng.randrange(len(args))] = rng.choice(args)
        lines[at] = f"{kind} {', '.join(args)};"
    elif op == "semicolon":
        lines[at] = line.rstrip(";")
    elif op == "comment":
        cut = rng.randint(0, len(line))
        lines[at] = line[:cut] + rng.choice(("//", " // note", "//;", "/ /")) + line[cut:]
    elif op == "second_register":
        size = rng.choice((1, 7, 17))
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice((f"qreg q[{size}];", f"creg c[{size}];", f"qreg r[{size}];",
                                 f"creg d[{size}];", f"qreg  q [ {size} ] ;")))
    elif op == "kind":
        parts = line.split(None, 1)
        lines[at] = f"{rng.choice(('x', 'cx', 'ccx', 'swap', 'cswap', 'id', 'h', 'CX', 'measure'))} {parts[1]}"
    elif op == "delete":
        del lines[at]
    elif op == "duplicate":
        lines.insert(rng.randint(0, len(lines)), line)
    elif op == "swap":
        other = rng.choice(statements)
        lines[at], lines[other] = lines[other], line
    elif op == "space":
        cut = rng.randint(0, len(line))
        lines[at] = line[:cut] + rng.choice((" ", "\t", "  ")) + line[cut:]
    else:
        cut = rng.randrange(len(line))
        lines[at] = line[:cut] + rng.choice(" ;[],q0x/>-c\t") + line[cut + 1:]
    return "\n".join(lines)


def _qasm_reading(parse, text: str):
    """What ``parse`` makes of ``text``: the circuit and its export, or the error."""
    try:
        circuit = parse(text)
    except QpnError as exc:
        return (type(exc), str(exc), exc.line)
    return (circuit, export_qasm(circuit))


# Errors a gate statement can meet, from its references or its gate.
QASM_GATE_CHECKS = (
    "malformed register reference", "unknown register", "out of range for", "expects",
    "must be distinct",
)


def qasm_mutation_suite(cases: int = 1000, seed: int = 413) -> Counter:
    """``parse_qasm`` reads mutated listings as ``reference_parse_qasm`` does.

    Each case exports a flip-flop or register circuit (some with X
    initialization, some without measures), changes one line of it and
    requires the same ``Circuit`` (its export included) or the same error:
    type, message and line.  An error other than a ``QpnError`` escapes.
    Returns how many cases were read as a circuit (``"accepted"``), met each
    of ``QASM_GATE_CHECKS`` on a gate statement, or met another error.
    """
    rng = random.Random(seed)
    outcomes: Counter = Counter()
    for case in range(cases):
        mutated = _mutate_qasm(rng, _qasm_source(rng))
        want = _qasm_reading(reference_parse_qasm, mutated)
        assert _qasm_reading(parse_qasm, mutated) == want, (case, mutated, want)
        if isinstance(want[0], Circuit):
            outcomes["accepted"] += 1
            continue
        stmt = mutated.splitlines()[want[2] - 1].split() if want[2] else []
        check = next((c for c in QASM_GATE_CHECKS if c in want[1]), None)
        if check and stmt and stmt[0] in _GATE_ARITY:
            outcomes[check] += 1
        else:
            outcomes["other error"] += 1
    return outcomes


# Whitespace that a statement may carry around its tokens, and the places it
# may go: after the statement's first word and around ``[``, ``]``, ``,``,
# ``->`` and ``;``.
_QASM_BLANKS = (" ", "\t", "  ", " \t ")
_QASM_PUNCTUATION = re.compile(r"(\[|\]|,|->|;)")
QASM_RESPELLINGS = ("after_word", "around_punctuation", "leading", "comment", "crlf")


def _respell_statement(rng: random.Random, line: str, used: Counter) -> str:
    """``line`` spelled another legal way, with at least one change."""
    ways = rng.sample(QASM_RESPELLINGS[:-1], rng.randint(1, 4))
    if "after_word" in ways:
        word, rest = line.split(" ", 1)
        line = f"{word}{rng.choice(_QASM_BLANKS)}{rest}"
    if "around_punctuation" in ways:
        pieces = _QASM_PUNCTUATION.split(line)
        line = pieces[0]
        for piece in pieces[1:]:
            line += rng.choice(("",) + _QASM_BLANKS) + piece
    if "leading" in ways:
        line = rng.choice(_QASM_BLANKS) + line
    if "comment" in ways:
        line += rng.choice(("// note", " // x q[0];", "\t//"))
    used.update(ways)
    return line


def qasm_respelling_suite(cases: int = 1000, seed: int = 907) -> Counter:
    """``parse_qasm`` reads respelled listings as ``reference_parse_qasm`` does.

    Each case exports a flip-flop or register listing, as
    ``qasm_mutation_suite`` does, and spells one to five of its statements
    another legal way: blanks after the first word, around brackets,
    commas, ``->`` and ``;`` and before the statement, and a trailing
    comment; some cases end their lines with CRLF.  It requires the same
    ``Circuit`` (its export included) or the same error as the reference.
    Returns how many cases were read as the exported circuit
    (``"accepted"``) and how often each of ``QASM_RESPELLINGS`` was used.
    """
    rng = random.Random(seed)
    outcomes: Counter = Counter()
    for case in range(cases):
        text = _qasm_source(rng)
        lines = text.split("\n")
        statements = [i for i, line in enumerate(lines) if line and not line.startswith("//")]
        for at in rng.sample(statements, rng.randint(1, min(5, len(statements)))):
            lines[at] = _respell_statement(rng, lines[at], outcomes)
        respelled = "\n".join(lines)
        if rng.random() < 0.2:
            respelled = respelled.replace("\n", "\r\n")
            outcomes["crlf"] += 1
        want = _qasm_reading(reference_parse_qasm, respelled)
        assert _qasm_reading(parse_qasm, respelled) == want, (case, respelled, want)
        if isinstance(want[0], Circuit) and want == _qasm_reading(parse_qasm, text):
            outcomes["accepted"] += 1
    return outcomes


# Enumeration: the count-space quotient against a memo on full marking identity.


def reference_enumerate(net: QPNet, marking: Marking) -> dict:
    """Outcome enumeration memoized on ``Marking.key()`` (queues, addresses, payloads).

    The engine's loop before it keyed ungated nets on the count-space
    quotient: same depth-first order and first-witness rule, so its result
    must equal the engine's as an ordered dict.
    """
    memo: dict[tuple, dict] = {}
    stack: list[list] = []

    def visit(m: Marking) -> dict | None:
        key = m.key()
        if key in memo:
            return memo[key]
        enabled = enabled_transitions(net, m)
        if not enabled:
            memo[key] = {distribution_signature(m): ()}
            return memo[key]
        stack.append([key, m, enabled, 0, {}])
        return None

    outcome = visit(marking)
    while stack:
        frame = stack[-1]
        key, m, enabled, index, result = frame
        if outcome is not None:
            tid = enabled[index - 1]
            for sig, suffix in outcome.items():
                result.setdefault(sig, (tid,) + suffix)
        if index == len(enabled):
            stack.pop()
            memo[key] = outcome = result
            continue
        frame[3] = index + 1
        nxt, _ = fire(net, m, enabled[index])
        outcome = visit(nxt)
    return dict(sorted(outcome.items()))


def _program(rng: random.Random, count: int, choices: int):
    """No address program, a full one, or one covering only the first selectors."""
    shape = rng.choice(("free", "full", "partial"))
    if shape == "free":
        return None
    length = count if shape == "full" else rng.randint(0, max(0, count - 1))
    return tuple(rng.randrange(choices) for _ in range(length))


def _quotient_spec(rng: random.Random) -> BufferSpec:
    """A small buffer of any kind with wide or superposed data payloads."""
    kind = rng.choice(("siso", "simo", "miso", "mimo", "priority"))
    if kind in ("siso", "simo"):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        tokens = n
    elif kind == "priority":
        counts = [rng.randint(0, 3) for _ in range(4)]
        tokens = counts[0] + counts[1]
    else:
        r = tuple(rng.randint(0, 2 if kind == "mimo" else 3) for _ in range(rng.randint(2, 3)))
        m = rng.randint(1, 3)
        tokens = sum(r)
    payloads = {f"d{i + 1}": random_payload(rng, 3) for i in range(tokens)
                if rng.random() < 0.6}
    if kind == "siso":
        return BufferSpec(kind=kind, n=n, m=m, payloads=payloads)
    if kind == "simo":
        k = rng.randint(2, 4)
        return BufferSpec(kind=kind, n=n, m=m, k=k, payloads=payloads,
                          addresses=_program(rng, m, k))
    if kind == "miso":
        return BufferSpec(kind=kind, r=r, m=m, payloads=payloads,
                          addresses=_program(rng, m, len(r)))
    if kind == "mimo":
        outputs = rng.randint(2, 3)
        return BufferSpec(kind=kind, r=r, outputs=outputs, m=m, payloads=payloads,
                          input_addresses=_program(rng, m, len(r)),
                          output_addresses=_program(rng, m, outputs))
    return BufferSpec(kind=kind, r_low=counts[0], r_high=counts[1], m_low=counts[2],
                      m_high=counts[3], payloads=payloads)


def relay_net(x_addresses=(0,), y_addresses=(1,), data: int = 1):
    """An ungated net whose addressed selectors reach their supply through a relay.

    TX and TY move the selectors of P_X and P_Y into the plain place P_Q; TQ,
    inhibited until both are empty, moves P_Q's head into the selector
    supply P_A, where guard 0 (T1) or 1 (T2) routes a data token to P_O1 or
    P_O2.  Firing TX before TY or after it leaves P_Q with equal counts but
    its addresses in another order, and the order decides the outcome: a
    memo key that kept addresses only inside selector places would merge
    the two states and lose the signatures of the one explored second.
    """
    places = [Place(pid, PlaceKind.INPUT) for pid in ("P_X", "P_Y", "P_Q", "P_I")] + [
        Place("P_A", PlaceKind.ANCILLARY),
        Place("P_A1", PlaceKind.ANCILLARY),
        Place("P_O1", PlaceKind.OUTPUT),
        Place("P_O2", PlaceKind.OUTPUT),
    ]
    transitions = [
        _transition("TX", [("P_X", "P_Q")]),
        _transition("TY", [("P_Y", "P_Q")]),
        _transition("TQ", [("P_Q", "P_A")], inhibitors=["P_X", "P_Y"]),
    ] + [
        _transition(f"T{g + 1}", [("P_I", f"P_O{g + 1}"), ("P_A", "P_A1")], guard=g)
        for g in (0, 1)
    ]
    selectors = {}
    for pid, addresses in (("P_X", x_addresses), ("P_Y", y_addresses)):
        selectors[pid] = [
            QToken(f"{pid[-1].lower()}{i + 1}", TokenKind.ANCILLARY,
                   basis_state_from_index(1, a if a is not None else 0), address=a)
            for i, a in enumerate(addresses)
        ]
    data_tokens = [QToken(f"d{i + 1}", TokenKind.DATA, basis_state_from_index(1, 0))
                   for i in range(data)]
    net = QPNet(places, transitions, data_tokens + selectors["P_X"] + selectors["P_Y"])
    return net, net.initial_marking({
        "P_I": [tok.id for tok in data_tokens],
        **{pid: [tok.id for tok in toks] for pid, toks in selectors.items()},
    })


def gated_relay_net(rng: random.Random):
    """A gated net whose interleavings reorder the payloads that reach its gate.

    T1 and T2 relay the data tokens of P1 and P2 into P3, in any
    interleaving.  T3, inhibited until P1 and P2 are empty, takes the heads
    of P3 and P5 through random 1-2-qubit permutation gates into P_O.  The
    payloads are drawn from a pool of two or three states, basis and
    superposed, so queues often repeat a payload; which ones meet at the
    gate, and so whether it entangles them (a ``ModelError``), depends on
    the order P3 received them in.  A memo key without data payloads would
    merge those orders.
    """
    relayed, other = rng.randint(1, 2), rng.randint(1, 2)
    pools = [[_reversal_payload(rng, width) for _ in range(rng.randint(2, 3))]
             for width in (relayed, other)]
    total = relayed + other
    gate = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice([k for k, a in _GATE_ARITY.items() if a <= min(2, total)])
        gate.append(GateOp(kind, tuple(rng.sample(range(total), _GATE_ARITY[kind]))))
    places = [Place(pid, PlaceKind.INPUT) for pid in ("P1", "P2", "P3", "P5")]
    transitions = [
        _transition("T1", [("P1", "P3")]),
        _transition("T2", [("P2", "P3")]),
        _transition("T3", [("P3", "P_O"), ("P5", "P_O")], inhibitors=["P1", "P2"], gate=gate),
    ]
    counts = {"P1": rng.randint(1, 3), "P2": rng.randint(1, 3), "P5": rng.randint(1, 4)}
    tokens, assignment = [], {}
    for pid, count in counts.items():
        pool = pools[1] if pid == "P5" else pools[0]
        assignment[pid] = [f"{pid.lower()}_{i + 1}" for i in range(count)]
        tokens += [QToken(tok, TokenKind.DATA, rng.choice(pool)) for tok in assignment[pid]]
    net = QPNet(places + [Place("P_O", PlaceKind.OUTPUT)], transitions, tokens)
    return net, net.initial_marking(assignment)


def _enumeration(enumerate_, net: QPNet, marking: Marking):
    """The ordered outcomes of ``enumerate_``, or the message of its ``ModelError``."""
    try:
        return list(enumerate_(net, marking).items())
    except ModelError as exc:
        return str(exc)


def quotient_enumeration_suite(cases: int = 300, seed: int = 409) -> int:
    """Count-space enumeration equals the full-identity reference, witnesses and order.

    Random buffers of all five kinds (free selectors, full and partial
    address programs, data payloads of 1-3 qubits, often superposed), relay
    nets with random selector addresses and gated relay nets must give the
    ordered dict ``reference_enumerate`` gives, or raise the ``ModelError``
    it raises.  The canonical relay net must reach both outputs, which it
    does only if relayed addresses stay in the key; the gated nets must
    raise as well as succeed.
    """
    rng = random.Random(seed)
    net, marking = relay_net()
    got = enumerate_final_markings(net, marking)
    assert list(got.items()) == list(reference_enumerate(net, marking).items())
    assert {dict(sig)["P_O1"] for sig in got} == {0, 1}
    gated = Counter()
    for case in range(cases):
        net, marking = _random_net(rng, case)
        got = _enumeration(enumerate_final_markings, net, marking)
        assert got == _enumeration(reference_enumerate, net, marking), case
        if case % 5 == 2:
            gated[isinstance(got, str)] += 1
    assert cases < 50 or min(gated[True], gated[False]) >= cases // 50, gated
    return cases


def _random_net(rng: random.Random, case: int):
    """A relay net with random selector addresses, a gated relay net or a small buffer."""
    if case % 10 == 0:
        return relay_net(
            *(tuple(rng.choice((0, 1, None)) for _ in range(rng.randint(0, 2))) for _ in range(2)),
            data=rng.randint(1, 3),
        )
    if case % 5 == 2:
        return gated_relay_net(rng)
    return _quotient_spec(rng).build()


def step_agreement_suite(cases: int = 1000, seed: int = 415) -> Counter:
    """Stepping a state's quotient key through a plan agrees with ``fire``, firing by firing.

    Each case walks a random net a few firings from its initial marking.  At
    every state on the walk, the transitions ``_key_enables`` reads off the
    quotient key must be the enabled ones, and for each, ``_step`` on the
    key must give the key of ``fire``'s successor; where ``fire`` raises a
    ``ModelError``, ``_step`` must return None or raise the same message.
    The walk goes on from a random successor.  Returns the count of
    agreeing firings and of raising ones.
    """
    rng = random.Random(seed)
    outcomes = Counter()
    for case in range(cases):
        net, marking = _random_net(rng, case)
        for _ in range(rng.randint(1, 6)):
            key = _quotient_keys(net, marking)
            plans = [plan for plan in net._ordered if _key_enables(plan, key, net._classes)]
            assert [plan.tid for plan in plans] == enabled_transitions(net, marking), case
            children = []
            for plan in plans:
                try:
                    child, _ = fire(net, marking, plan.tid)
                except ModelError as exc:
                    try:
                        stepped = _step(net, key, plan)
                    except ModelError as step_exc:
                        assert str(step_exc) == str(exc), case
                    else:
                        assert stepped is None, case
                    outcomes["raised"] += 1
                    continue
                assert _step(net, key, plan) == _quotient_keys(net, child), case
                outcomes["agreed"] += 1
                children.append(child)
            if not children:
                break
            marking = rng.choice(children)
    return outcomes


def _producing(marking: Marking, event, entries):
    """``marking`` and ``event`` changed to produce ``entries``, lists of moves.

    The event's produced entries come off the queue tails, and ``entries``
    go on in their order, each in the place of its first move, with the
    moves' states.
    """
    queues = {pid: list(marking.entries(pid)) for pid in marking.place_ids}
    for entry in reversed(produced_entries(event)):
        queues[entry[0].place].pop()
    payloads, addresses = dict(marking.payloads), dict(marking.addresses)
    for entry in entries:
        queues[entry[0].place].append(tuple(m.token for m in entry))
        for m in entry:
            payloads[m.token], addresses[m.token] = m.payload, m.address
    return (Marking(queues, payloads, addresses, time=marking.time),
            event._replace(produced=tuple(m for entry in entries for m in entry),
                           produced_entry_sizes=tuple(map(len, entries))))


def _regrouped(rng: random.Random, net, marking, event):
    """Produced moves in their order, consecutive moves to one place joined or split at random."""
    entries = []
    for m in event.produced:
        if entries and entries[-1][-1].place == m.place and rng.random() < 0.5:
            entries[-1].append(m)
        else:
            entries.append([m])
    return _producing(marking, event, entries)


def _reordered(rng: random.Random, net, marking, event):
    """Produced entries in a random order."""
    entries = [list(entry) for entry in produced_entries(event)]
    rng.shuffle(entries)
    return _producing(marking, event, entries)


def _walk(rng: random.Random, net, marking, steps: int) -> Marking:
    """``marking`` after up to ``steps`` random firings; a dead end or a raising one stops it."""
    for _ in range(steps):
        enabled = enabled_transitions(net, marking)
        if not enabled:
            break
        try:
            marking, _ = fire(net, marking, rng.choice(enabled))
        except ModelError:
            break
    return marking


def _shifted(rng: random.Random, net, marking, event):
    """The event stamped as the last firing of a marking a few firings later."""
    later = _walk(rng, net, marking, rng.randint(1, 3))
    return later, event._replace(time=later.time - 1)


def _relabelled(rng: random.Random, net, marking, event):
    """The event as another transition's firing, each token produced where that one routes it.

    A transition with the same input places is preferred; the routes are
    read off its ``routing``.
    """
    fired = next(t for t in net.transitions if t.id == event.transition)
    others = [t for t in net.transitions if t.id != fired.id]
    if not others:
        return marking, event
    same = [t for t in others
            if [a.place for a in t.input_arcs] == [a.place for a in fired.input_arcs]]
    other = rng.choice(same or others)
    dest = {}
    for arc, entry in zip(other.input_arcs, consumed_entries(event)):
        route = other.routing[arc.label]
        for m in entry:
            if isinstance(route, PairRoute):
                data = net.tokens[m.token].kind is TokenKind.DATA
                dest[m.token] = route.data_to if data else route.ancillary_to
            else:
                dest[m.token] = route
    entries = [[m._replace(place=dest.get(m.token, m.place)) for m in entry]
               for entry in produced_entries(event)]
    forged, forged_event = _producing(marking, event, entries)
    return forged, forged_event._replace(transition=other.id)


def _restated(rng: random.Random, net, marking, event):
    """One moved data token given another basis state of its width, in the event and the marking.

    An ungated firing carries the payload through, so ``fire`` still makes
    the forged event; a gate acts on the new payload.
    """
    data = [m for m in event.produced if net.tokens[m.token].kind is TokenKind.DATA]
    if not data:
        return marking, event
    tok, _, payload, _ = rng.choice(data)
    held = payload.basis_index() if payload.is_basis_state() else None
    state = basis_state_from_index(
        payload.num_qubits, rng.choice([i for i in range(1 << payload.num_qubits) if i != held])
    )

    def restate(moves):
        return tuple(m._replace(payload=state) if m.token == tok else m for m in moves)

    forged = Marking(marking.queues, {**marking.payloads, tok: state}, marking.addresses,
                     time=marking.time)
    return forged, event._replace(consumed=restate(event.consumed),
                                  produced=restate(event.produced))


FORGERIES = {"regroup": _regrouped, "reorder": _reordered, "shift": _shifted,
             "relabel": _relabelled, "restate": _restated}


def forged_event_suite(cases: int = 1000, seed: int = 417) -> Counter:
    """``unfire`` either refuses a forged event or returns a marking it really follows.

    Each case fires a random enabled transition of a random net up to five
    firings in (a gated relay net reaches its gate only after two to six
    relays), then forges the event and, where the forgery needs it, the
    marking to agree: produced entries regrouped or reordered, the event
    stamped as the last firing of a later marking, relabelled as another
    transition's firing, or one moved data token given another basis
    state.  ``unfire`` must raise ``ReversalError``, or return a marking
    from which ``fire`` gives back the forged marking and the forged event
    exactly.  Returns the count of each forgery's outcomes.
    """
    rng = random.Random(seed)
    outcomes = Counter()
    for case in range(cases):
        net, marking = _random_net(rng, case)
        marking = _walk(rng, net, marking, rng.randint(0, 5))
        enabled = enabled_transitions(net, marking)
        if not enabled:
            continue
        try:
            after, event = fire(net, marking, rng.choice(enabled))
        except ModelError:
            continue
        kind = rng.choice(sorted(FORGERIES))
        forged, forged_event = FORGERIES[kind](rng, net, after, event)
        try:
            back = unfire(net, forged, forged_event)
        except ReversalError:
            outcomes[kind, "refused"] += 1
            continue
        again, again_event = fire(net, back, forged_event.transition)
        assert again == forged and again_event == forged_event, (case, kind)
        outcomes[kind, "unfired"] += 1
    return outcomes


# Count-space capacity oracle: buffer dynamics as pure count vectors.


def _oracle_reachable(initial, moves):
    """DFS over count states; returns (all states, final states)."""
    seen = {initial}
    finals = set()
    stack = [initial]
    while stack:
        state = stack.pop()
        successors = moves(state)
        if not successors:
            finals.add(state)
            continue
        for nxt in successors:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen, finals


def oracle_siso(n, m):
    def moves(state):
        pi, pa, pa1, po = state
        if pi > 0 and pa > 0:
            return [(pi - 1, pa - 1, pa1 + 1, po + 1)]
        return []

    return _oracle_reachable((n, m, 0, 0), moves)


def oracle_simo(n, m, k):
    def moves(state):
        pi, pa, pa1, outs = state
        if pi == 0 or pa == 0:
            return []
        out = []
        for j in range(k):
            bumped = tuple(c + (1 if i == j else 0) for i, c in enumerate(outs))
            out.append((pi - 1, pa - 1, pa1 + 1, bumped))
        return out

    return _oracle_reachable((n, m, 0, (0,) * k), moves)


def oracle_miso(r, m):
    k = len(r)

    def moves(state):
        ins, pda, pa, pa1, po = state
        out = []
        if pa > 0:
            for j in range(k):
                if ins[j] > 0:
                    dec = tuple(c - (1 if i == j else 0) for i, c in enumerate(ins))
                    out.append((dec, pda + 1, pa - 1, pa1, po))
        if pda > 0:
            out.append((ins, pda - 1, pa, pa1 + 1, po + 1))
        return out

    return _oracle_reachable((tuple(r), 0, m, 0, 0), moves)


def oracle_signature(kind, state):
    """Map an oracle count state onto engine place counts (pairs = 2 tokens)."""
    if kind == "siso":
        pi, pa, pa1, po = state
        return {"P_I": pi, "P_A": pa, "P_A1": pa1, "P_O": po}
    if kind == "simo":
        pi, pa, pa1, outs = state
        sig = {"P_I": pi, "P_A": pa, "P_A1": pa1}
        sig.update({f"P_O{j + 1}": c for j, c in enumerate(outs)})
        return sig
    ins, pda, pa, pa1, po = state
    sig = {f"P_I{j + 1}": c for j, c in enumerate(ins)}
    sig.update({"P_DA": 2 * pda, "P_A": pa, "P_A1": pa1, "P_O": po})
    return sig


def capacity_instance(rng: random.Random):
    kind = rng.choice(("siso", "simo", "miso"))
    if kind == "siso":
        n = rng.randint(1, 8)
        m = rng.randint(1, n)
        return kind, {"n": n, "m": m}
    if kind == "simo":
        n = rng.randint(1, 8)
        m = rng.randint(1, n)
        k = rng.randint(2, 4)
        return kind, {"n": n, "m": m, "k": k}
    k = rng.randint(2, 4)
    r = tuple(rng.randint(0, 3) for _ in range(k))
    m = rng.randint(1, min(8, max(1, sum(r) + 2)))
    return kind, {"r": r, "m": m}


def _build_capacity(kind, params):
    if kind == "siso":
        return build_siso(params["n"], params["m"])
    if kind == "simo":
        return build_simo(params["n"], params["m"], params["k"])
    return build_miso(params["r"], params["m"])


def _oracle_for(kind, params):
    if kind == "siso":
        return oracle_siso(params["n"], params["m"])
    if kind == "simo":
        return oracle_simo(params["n"], params["m"], params["k"])
    return oracle_miso(params["r"], params["m"])


def capacity_suite(instances: int = 36, seed: int = 0xCAFE, walks: int = 5):
    """Ancilla consumption on all maximal runs equals min(m, available data).

    The count oracle enumerates every reachable count state; the engine is
    checked against it by random maximal walks and by full signature-set
    enumeration, with witness replay, on every instance.  Returns (instances
    checked, full enumeration comparisons performed).
    """
    rng = random.Random(seed)
    full_comparisons = 0
    for _ in range(instances):
        kind, params = capacity_instance(rng)
        m = params["m"]
        total_data = params.get("n", sum(params.get("r", ())))
        expected = min(m, total_data)

        states, finals = _oracle_for(kind, params)
        assert finals, "every instance must quiesce"
        for final in finals:
            sig = oracle_signature(kind, final)
            assert m - sig["P_A"] == expected, (kind, params, final)

        oracle_sigs = {
            tuple(sorted(oracle_signature(kind, f).items())) for f in finals
        }

        # Engine consistency: random maximal walks land in oracle finals
        # with the right consumption.
        for _ in range(walks):
            net, marking = _build_capacity(kind, params)
            events = []
            while True:
                enabled = enabled_transitions(net, marking)
                if not enabled:
                    break
                marking, ev = fire(net, marking, rng.choice(enabled))
                events.append(ev)
            consumed = sum(
                1 for e in events for mv in e.consumed if mv.place == "P_A"
            )
            assert consumed == expected, (kind, params)
            engine_sig = tuple(
                sorted((p, marking.token_count(p)) for p in marking.place_ids)
            )
            assert engine_sig in oracle_sigs, (kind, params)

        # Full engine enumeration on every instance: these buffers have no
        # gates, so the engine memoizes on per-place entry classes and its
        # state count follows the count-space oracle's.  Every witness must
        # replay to its signature.
        net, marking = _build_capacity(kind, params)
        enumerated = enumerate_final_markings(net, marking)
        engine_sigs = {tuple(sorted(sig)) for sig in enumerated}
        assert engine_sigs == oracle_sigs, (kind, params)
        full_comparisons += 1
        for sig, witness in enumerated.items():
            net2, m2 = _build_capacity(kind, params)
            replay = run(net2, m2, Scripted(witness))
            assert (
                tuple(
                    sorted(
                        (p, replay.final.token_count(p))
                        for p in replay.final.place_ids
                    )
                )
                == tuple(sorted(sig))
            )
    return instances, full_comparisons
