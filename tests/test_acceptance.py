"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances and runtime budgets are asserted where stated.
"""

import time
from contextlib import contextmanager

import numpy as np

import prop_util
from qsr_oracle import (
    LISTING_QASM,
    VERBATIM_EXPECTED,
    oracle_reference,
    oracle_verbatim_outcome,
)

from qpnbuf.buffers import (
    BufferSpec,
    build_cnot_example,
    build_mimo,
    build_priority,
    build_simo,
    run_scenario,
)
from qpnbuf.engine import (
    Scripted,
    enabled_transitions,
    enumerate_final_markings,
    fire,
    run,
)
from qpnbuf.flipflop import (
    ALL_INPUT_ROWS,
    DEFINED_INPUT_ROWS,
    CircuitVariant,
    build_qsr_circuit,
    conformance_report,
    initial_label,
    reference_next_state,
)
from qpnbuf.qasm import export_qasm, parse_qasm, significant_lines
from qpnbuf.statevector import apply_all, basis_state, probabilities


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS - {description} ({elapsed:.3f}s)")


def test_criterion_01_reference_truth_table():
    with criterion(1, "reference model matches all 8 truth-table rows"):
        expected = {
            (0, 0, 0): 0, (0, 0, 1): 1,
            (1, 0, 0): 1, (1, 0, 1): 1,
            (0, 1, 0): 0, (0, 1, 1): 0,
            (1, 1, 0): None, (1, 1, 1): None,
        }
        assert len(ALL_INPUT_ROWS) == 8
        for inputs in ALL_INPUT_ROWS:
            out = reference_next_state(inputs)
            want = expected[(inputs.s, inputs.r, inputs.q)]
            assert out.q_next == want
            assert out.q_next == oracle_reference(inputs.s, inputs.r, inputs.q)
            if want is None:
                assert out.q_prime_next is None
            else:
                assert out.q_prime_next == 1 - want


def test_criterion_02_normalized_circuit_conformance():
    with criterion(2, "normalized circuit reproduces the truth table on both lines"):
        start = time.perf_counter()
        circuit = build_qsr_circuit(CircuitVariant.NORMALIZED)
        for inputs in DEFINED_INPUT_ROWS:
            final = apply_all(basis_state(7, initial_label(inputs)), circuit.ops)
            support = probabilities(final)
            assert len(support) == 1
            label, prob = support[0]
            assert abs(prob - 1.0) < 1e-9
            index = int(label, 2)
            ref = reference_next_state(inputs)
            assert (index >> 4) & 1 == ref.q_next
            assert (index >> 3) & 1 == ref.q_prime_next
        assert time.perf_counter() - start < 1.0


def test_criterion_03_verbatim_determinism_and_documented_behavior():
    with criterion(3, "verbatim circuit is deterministic and matches the trace oracle"):
        start = time.perf_counter()
        circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
        for inputs in DEFINED_INPUT_ROWS:
            final = apply_all(basis_state(7, initial_label(inputs)), circuit.ops)
            support = probabilities(final)
            assert len(support) == 1 and abs(support[0][1] - 1.0) < 1e-9
            index = int(support[0][0], 2)
            oracle = oracle_verbatim_outcome(inputs.s, inputs.r, inputs.q)
            assert {q: (index >> q) & 1 for q in range(7)} == oracle
        report = conformance_report()
        assert len(report) == 6
        for row in report:
            key = (row.inputs.s, row.inputs.r, row.inputs.q)
            oracle = oracle_verbatim_outcome(*key)
            assert row.verbatim.q_next == oracle[4] == VERBATIM_EXPECTED[key][0]
            assert row.verbatim.q_prime_next == oracle[3] == VERBATIM_EXPECTED[key][1]
            ref = reference_next_state(row.inputs)
            assert row.verbatim_q_match == (oracle[4] == ref.q_next)
            assert row.verbatim_q_prime_match == (oracle[3] == ref.q_prime_next)
        # The input combination hard-coded in the listing (S=0, R=1, Q=0):
        hard = next(r for r in report if (r.inputs.s, r.inputs.r, r.inputs.q) == (0, 1, 0))
        assert hard.verbatim.q_next == 0
        assert time.perf_counter() - start < 1.0


def test_criterion_04_qasm_export_fidelity():
    with criterion(4, "exported verbatim circuit equals the listing token for token"):
        circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
        text = export_qasm(circuit, initial_x_gates=(1, 3))
        emitted = " ".join(significant_lines(text)).split()
        expected = " ".join(significant_lines(LISTING_QASM)).split()
        assert emitted == expected
        parsed = parse_qasm(LISTING_QASM)
        assert significant_lines(export_qasm(parsed)) == significant_lines(LISTING_QASM)
        assert parse_qasm(export_qasm(parsed)) == parsed


def test_criterion_05_cnot_worked_example():
    with criterion(5, "CNOT net example: T1 deposits a and d, both |1>, exactly"):
        net, m0 = build_cnot_example()
        m1, _ = fire(net, m0, "T1")
        assert m1.tokens_in("P3") == ("a", "d")
        assert np.array_equal(m1.payload("a").amplitudes, [0, 1])
        assert np.array_equal(m1.payload("d").amplitudes, [0, 1])
        assert m1.tokens_in("P1") == ("b", "c")
        assert m1.tokens_in("P2") == ("e",)
        assert m1.payload("b") == basis_state(1, "1")
        assert np.array_equal(
            m1.payload("c").amplitudes, m0.payload("c").amplitudes
        )
        assert m1.payload("e") == basis_state(1, "1")


def test_criterion_06_siso_reference_run():
    with criterion(6, "single-lane run: 2 firings, ordered delivery, payload intact"):
        wide = basis_state(2, "10")
        spec = BufferSpec(
            kind="siso", n=3, m=2,
            payloads={"d1": wide, "d2": basis_state(1, "1"), "d3": basis_state(1, "1")},
        )
        trace = run_scenario(spec)
        assert len(trace.firings()) == 2
        assert enabled_transitions(*spec.build()) == ["T1"]  # sanity: fresh net is live
        final = trace.final
        assert final.tokens_in("P_O") == ("d1", "d2")
        assert final.tokens_in("P_A1") == ("z1", "z2")
        assert final.tokens_in("P_I") == ("d3",)
        deviation = np.max(np.abs(final.payload("d1").amplitudes - wide.amplitudes))
        assert deviation < 1e-12


def test_criterion_07_simo_reference_run():
    with criterion(7, "fan-out run: order T2,T1,T2 and expected final places"):
        spec = BufferSpec(
            kind="simo", n=4, m=3, k=2,
            payloads={"d1": basis_state(1, "1"), "d2": basis_state(1, "0"),
                      "d3": basis_state(1, "1"), "d4": basis_state(1, "1")},
            addresses=(1, 0, 1),
        )
        trace = run_scenario(spec)
        assert [e.transition for e in trace.firings()] == ["T2", "T1", "T2"]
        assert trace.final.tokens_in("P_O2") == ("d1", "d3")
        assert trace.final.tokens_in("P_O1") == ("d2",)
        assert trace.final.tokens_in("P_I") == ("d4",)


def test_criterion_08_simo_enumeration():
    with criterion(8, "fan-out enumeration yields exactly 4 output patterns"):
        start = time.perf_counter()
        net, m0 = build_simo(4, 3, 2)
        sigs = enumerate_final_markings(net, m0)
        patterns = {
            tuple(c for p, c in sig if p in ("P_O1", "P_O2")) for sig in sigs
        }
        assert patterns == {(3, 0), (2, 1), (1, 2), (0, 3)}
        assert len(sigs) == 4
        assert time.perf_counter() - start < 1.0


def test_criterion_09_mimo_enumeration():
    with criterion(9, "two-by-two enumeration yields 6 deduplicated patterns of 4 firings"):
        start = time.perf_counter()
        net, m0 = build_mimo((2, 1), 2, 2)
        sigs = enumerate_final_markings(net, m0)
        patterns = {
            tuple(c for p, c in sig if p in ("P_I1", "P_I2", "P_O1", "P_O2")): wit
            for sig, wit in sigs.items()
        }
        assert set(patterns) == {
            (0, 1, 2, 0), (0, 1, 1, 1), (0, 1, 0, 2),
            (1, 0, 2, 0), (1, 0, 1, 1), (1, 0, 0, 2),
        }
        assert all(len(wit) == 4 for wit in patterns.values())

        # Order-distinct sequences fold into one signature.
        finals = set()
        for order in (("T1", "T3", "T1", "T4"), ("T1", "T4", "T1", "T3")):
            net2, m2 = build_mimo((2, 1), 2, 2)
            trace = run(net2, m2, Scripted(order))
            finals.add(
                tuple(trace.final.token_count(p) for p in ("P_I1", "P_I2", "P_O1", "P_O2"))
            )
        assert finals == {(0, 1, 1, 1)}

        # Every maximal interleaving fires exactly 2m = 4 transitions.
        lengths = set()

        def walk(marking, depth):
            enabled = enabled_transitions(net, marking)
            if not enabled:
                lengths.add(depth)
                return
            for tid in enabled:
                nxt, _ = fire(net, marking, tid)
                walk(nxt, depth + 1)

        walk(m0, 0)
        assert lengths == {4}
        assert time.perf_counter() - start < 1.0


def test_criterion_10_priority_run_and_inhibitor_soundness():
    with criterion(10, "priority run order and inhibitor soundness on every state"):
        start = time.perf_counter()
        spec = BufferSpec(
            kind="priority", r_low=1, r_high=2, m_low=2, m_high=2,
            payloads={"d1": basis_state(1, "0"), "d2": basis_state(1, "1"),
                      "d3": basis_state(1, "1")},
        )
        trace = run_scenario(spec, Scripted(("T2", "T4", "T2", "T4", "T1", "T3")))
        assert trace.final.tokens_in("P_O") == ("d2", "d3", "d1")
        assert trace.final.tokens_in("P_A") == ("w2",)

        net, m0 = build_priority(1, 2, 2, 2)
        explored = set()

        def walk(marking):
            key = marking.key()
            if key in explored:
                return
            explored.add(key)
            enabled = enabled_transitions(net, marking)
            if marking.token_count("P_DA2") > 0:
                assert "T3" not in enabled
            for tid in enabled:
                if tid == "T3":
                    assert marking.token_count("P_DA2") == 0
                nxt, _ = fire(net, marking, tid)
                walk(nxt)

        walk(m0)
        assert len(explored) > 10
        assert time.perf_counter() - start < 1.0


def test_criterion_11_property_suites():
    with criterion(11, "five randomized property suites, 1000 fixed-seed cases each"):
        assert prop_util.conservation_suite(1000) == 1000
        assert prop_util.norm_suite(1000) == 1000
        assert prop_util.unfire_identity_suite(1000) == 1000
        assert prop_util.determinism_suite(1000) == 1000
        assert prop_util.roundtrip_suite(1000) == 1000


def test_criterion_12_capacity_property():
    with criterion(12, "capacity property against the count-space oracle"):
        start = time.perf_counter()
        instances, full = prop_util.capacity_suite(instances=36, seed=0xCAFE)
        assert instances == 36
        assert full == 36
        assert time.perf_counter() - start < 10.0
