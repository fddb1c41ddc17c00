import time

import pytest

from qpnbuf.errors import ConstructionError
from qpnbuf.flipflop import (
    ALL_INPUT_ROWS,
    DEFINED_INPUT_ROWS,
    CircuitVariant,
    QsrInputs,
    build_qsr_circuit,
    build_register,
    conformance_report,
    initial_label,
    reference_next_state,
    register_lane_qubits,
    simulate_qsr,
)
from qpnbuf import statevector
from qpnbuf.qasm import export_qasm, parse_qasm
from qpnbuf.statevector import (
    Circuit,
    apply_all,
    basis_state,
    basis_state_from_index,
    run_circuit,
    x,
)

from qsr_oracle import (
    VERBATIM_EXPECTED,
    listing_gate_lines,
    oracle_reference,
    oracle_verbatim_outcome,
)

# Reference truth table, row for row: (S, R, Q) -> (Q_next, Q'_next).
TRUTH_TABLE = {
    (0, 0, 0): (0, 1),
    (0, 0, 1): (1, 0),
    (1, 0, 0): (1, 0),
    (1, 0, 1): (1, 0),
    (0, 1, 0): (0, 1),
    (0, 1, 1): (0, 1),
    (1, 1, 0): (None, None),
    (1, 1, 1): (None, None),
}


def test_reference_matches_truth_table_row_for_row():
    for (s, r, q), (qn, qpn) in TRUTH_TABLE.items():
        out = reference_next_state(QsrInputs(s, r, q))
        assert out.q_next == qn
        assert out.q_prime_next == qpn


def test_reference_set_row():
    assert reference_next_state(QsrInputs(1, 0, 0)).q_next == 1


def test_reference_reset_row():
    assert reference_next_state(QsrInputs(0, 1, 1)).q_next == 0


def test_reference_undefined_rows():
    for q in (0, 1):
        out = reference_next_state(QsrInputs(1, 1, q))
        assert out.q_next is None and out.q_prime_next is None


def test_reference_agrees_with_independent_oracle():
    for inputs in ALL_INPUT_ROWS:
        assert reference_next_state(inputs).q_next == oracle_reference(
            inputs.s, inputs.r, inputs.q
        )


def test_inputs_validated():
    with pytest.raises(ConstructionError):
        QsrInputs(2, 0, 0)


def test_verbatim_body_is_14_gates():
    circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
    assert len(circuit.ops) == 14


def test_verbatim_body_matches_listing_gate_for_gate():
    circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
    listing = listing_gate_lines()
    assert len(circuit.ops) == len(listing)
    for op, line in zip(circuit.ops, listing):
        name, rest = line.rstrip(";").split(None, 1)
        qubits = tuple(int(tok.split("[")[1].rstrip("]")) for tok in rest.split(","))
        assert (op.kind, op.qubits) == (name, qubits)


def test_verbatim_fourth_gate_is_cx_q0_q3():
    circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
    assert circuit.ops[3].kind == "cx"
    assert circuit.ops[3].qubits == (0, 3)


def test_normalized_gate_census():
    circuit = build_qsr_circuit(CircuitVariant.NORMALIZED)
    kinds = [op.kind for op in circuit.ops]
    assert kinds.count("cx") == 0
    assert kinds.count("cswap") == 4


def test_both_variants_measure_q3_and_q4():
    for variant in CircuitVariant:
        circuit = build_qsr_circuit(variant)
        assert circuit.num_qubits == 7
        assert circuit.measured_qubits == ((3, 0), (4, 1))


def test_verbatim_simulation_equals_classical_oracle():
    for inputs in ALL_INPUT_ROWS:
        outcome = simulate_qsr(CircuitVariant.VERBATIM, inputs)
        oracle = oracle_verbatim_outcome(inputs.s, inputs.r, inputs.q)
        assert outcome.readout == oracle


def test_verbatim_frozen_expectations():
    for (s, r, q), (q4, q3) in VERBATIM_EXPECTED.items():
        outcome = simulate_qsr(CircuitVariant.VERBATIM, QsrInputs(s, r, q))
        assert (outcome.q_next, outcome.q_prime_next) == (q4, q3)


def test_verbatim_hardcoded_listing_case():
    # The initialization hard-coded in the listing: S=0, R=1, Q'=1, Q=0.
    outcome = simulate_qsr(CircuitVariant.VERBATIM, QsrInputs(0, 1, 0))
    assert outcome.q_next == 0  # Q line agrees with the truth table


def test_verbatim_set_case_q_line():
    outcome = simulate_qsr(CircuitVariant.VERBATIM, QsrInputs(1, 0, 0))
    assert outcome.q_next == 1


def test_normalized_matches_reference_on_both_lines():
    for inputs in DEFINED_INPUT_ROWS:
        ref = reference_next_state(inputs)
        out = simulate_qsr(CircuitVariant.NORMALIZED, inputs)
        assert out.q_next == ref.q_next
        assert out.q_prime_next == ref.q_prime_next


def test_normalized_examples():
    assert simulate_qsr(CircuitVariant.NORMALIZED, QsrInputs(1, 0, 0)).readout[4] == 1
    assert simulate_qsr(CircuitVariant.NORMALIZED, QsrInputs(0, 0, 1)).readout[4] == 1
    out = simulate_qsr(CircuitVariant.NORMALIZED, QsrInputs(0, 1, 1))
    assert out.readout[4] == 0 and out.readout[3] == 1


def test_simulation_reads_the_shared_circuit_s_compiled_runs(monkeypatch):
    for variant in CircuitVariant:
        simulate_qsr(variant, QsrInputs(0, 0, 0))
    compiled = []
    real = statevector._compile
    monkeypatch.setattr(statevector, "_compile", lambda ops: compiled.append(ops) or real(ops))
    outcomes = [simulate_qsr(variant, inputs)
                for variant in CircuitVariant for inputs in DEFINED_INPUT_ROWS]
    assert len(outcomes) == 2 * len(DEFINED_INPUT_ROWS) and compiled == []


def test_basis_inputs_yield_single_basis_outcome():
    for variant in CircuitVariant:
        for inputs in ALL_INPUT_ROWS:
            circuit = build_qsr_circuit(variant)
            final = apply_all(basis_state(7, initial_label(inputs)), circuit.ops)
            assert final.is_basis_state(atol=1e-12)


def test_conformance_report_shape_and_flags():
    rows = conformance_report()
    assert len(rows) == 6
    assert all(row.normalized_q_match and row.normalized_q_prime_match for row in rows)
    by_inputs = {(r.inputs.s, r.inputs.r, r.inputs.q): r for r in rows}
    set_row = by_inputs[(1, 0, 0)]
    assert set_row.verbatim.readout[4] == 1
    for key, row in by_inputs.items():
        expected_q4, expected_q3 = VERBATIM_EXPECTED[key]
        assert row.verbatim.q_next == expected_q4
        assert row.verbatim.q_prime_next == expected_q3


def test_register_single_lane_equals_flipflop():
    for variant in CircuitVariant:
        assert build_register(1, variant) == build_qsr_circuit(variant)


def test_register_size_scaling():
    one = build_register(1)
    three = build_register(3)
    assert three.num_qubits == 17
    assert len(three.ops) == 3 * len(one.ops)
    assert len(three.measured_qubits) == 6


def test_register_rejects_zero():
    with pytest.raises(ConstructionError):
        build_register(0)


def _register_lane_readout(u, variant, s, r, lane_qs):
    """Simulate a register and return each lane's Q bit."""
    circuit = build_register(u, variant)
    bits = [0] * circuit.num_qubits
    bits[0], bits[1] = s, r
    for lane, q in enumerate(lane_qs):
        remap = register_lane_qubits(lane)
        bits[remap[3]] = 1 - q  # Q'
        bits[remap[4]] = q
    label = "".join(str(b) for b in reversed(bits))
    final = apply_all(basis_state(circuit.num_qubits, label), circuit.ops)
    index = final.basis_index()
    return [(index >> register_lane_qubits(lane)[4]) & 1 for lane in range(u)]


def test_register_set_drives_both_lanes_high():
    assert _register_lane_readout(2, CircuitVariant.NORMALIZED, 1, 0, [0, 1]) == [1, 1]


def test_register_lanes_match_single_flipflop_oracle():
    # Each lane must behave exactly like an independent flip-flop.
    for s, r in ((0, 0), (1, 0), (0, 1)):
        for qs in ((0, 0), (0, 1), (1, 0), (1, 1)):
            got = _register_lane_readout(2, CircuitVariant.NORMALIZED, s, r, list(qs))
            want = [
                simulate_qsr(CircuitVariant.NORMALIZED, QsrInputs(s, r, q)).readout[4]
                for q in qs
            ]
            assert got == want


def test_register_lane_independence():
    # Lane 0's outcome must not depend on the other lanes' initial Q values.
    for u in (2, 3):
        for s, r in ((0, 0), (1, 0), (0, 1)):
            outcomes = set()
            for pattern in range(1 << (u - 1)):
                others = [(pattern >> i) & 1 for i in range(u - 1)]
                lanes = [1] + others
                outcomes.add(
                    _register_lane_readout(u, CircuitVariant.NORMALIZED, s, r, lanes)[0]
                )
            assert len(outcomes) == 1


def test_wide_register_runs_on_basis_indices():
    # 12 lanes make 62 qubits, the widest register whose basis indices fit
    # in int64.  A dense view would need 2^62 amplitudes and fail to
    # allocate, so this also checks that nothing builds one.
    circuit = build_register(12)
    assert circuit.num_qubits == 62
    for s, r in ((0, 0), (1, 0), (0, 1)):
        for first_q in (0, 1):
            qs = [(lane + first_q) % 2 for lane in range(12)]
            index = s | (r << 1)
            for lane, q in enumerate(qs):
                index |= 1 << register_lane_qubits(lane)[4 if q else 3]
            start = time.perf_counter()
            final, hist = run_circuit(
                circuit, basis_state_from_index(62, index), shots=100, seed=5
            )
            # The drive's listing round-trips as register-sim checks it: the
            # built circuit behind one X gate per raised qubit.
            raised = tuple(q for q in range(62) if (index >> q) & 1)
            parsed = parse_qasm(export_qasm(circuit, raised))
            assert time.perf_counter() - start < 1.0
            assert parsed == Circuit(
                62, tuple(x(q) for q in raised) + circuit.ops, circuit.measured_qubits
            )
            got = final.basis_index()
            key = ["0"] * 24
            for lane, q in enumerate(qs):
                want = reference_next_state(QsrInputs(s, r, q))
                roles = register_lane_qubits(lane)
                lane_out = ((got >> roles[4]) & 1, (got >> roles[3]) & 1)
                assert lane_out == (want.q_next, want.q_prime_next)
                key[23 - 2 * lane] = str(lane_out[1])
                key[22 - 2 * lane] = str(lane_out[0])
            assert hist == {"".join(key): 100}
