import hashlib
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from qpnbuf import statevector
from qpnbuf.errors import CircuitError, ConstructionError, GateError, QasmError
from qpnbuf.flipflop import LANE_QUBITS, CircuitVariant, build_register
from qpnbuf.qasm import export_qasm
from qpnbuf.statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply,
    apply_all,
    basis_state,
    basis_state_from_index,
    ccx,
    cswap,
    cx,
    identity,
    probabilities,
    run_circuit,
    shared_gate,
    tensor,
    x,
)

import prop_util

PLUS = StateVector(1, [2**-0.5, 2**-0.5])


def test_basis_state_zero():
    s = basis_state(1, "0")
    assert np.array_equal(s.amplitudes, [1, 0])


def test_basis_state_encoding_qubit0_is_lsb():
    assert basis_state(2, "10").basis_index() == 2
    assert basis_state(3, "101").basis_index() == 5


def test_basis_state_length_mismatch():
    with pytest.raises(ConstructionError):
        basis_state(2, "101")
    with pytest.raises(ConstructionError):
        basis_state(2, "1x")


def test_state_norm_enforced():
    with pytest.raises(ConstructionError):
        StateVector(1, [1.0, 1.0])


def test_cx_flips_target_when_control_set():
    out = apply(basis_state(2, "10"), cx(1, 0))
    assert out.basis_label() == "11"


def test_cswap_control_off_is_identity():
    s = basis_state(3, "011")  # qubit2 (control) = 0
    out = apply(s, cswap(2, 1, 0))
    assert out == s


def test_x_on_plus_state_keeps_amplitudes():
    out = apply(PLUS, x(0))
    assert np.allclose(out.amplitudes, PLUS.amplitudes, atol=1e-15)


def test_identity_gate_is_noop():
    s = basis_state(3, "101")
    assert apply(s, identity(1)) == s


def test_apply_rejects_out_of_range_index():
    with pytest.raises(GateError):
        apply(basis_state(1, "0"), cx(0, 1))


def test_gateop_arity_and_distinctness():
    with pytest.raises(GateError):
        GateOp("cx", (0,))
    with pytest.raises(GateError):
        GateOp("swap", (1, 1))
    with pytest.raises(GateError):
        GateOp("h", (0,))


def test_tensor_basis_composition():
    assert tensor(basis_state(1, "1"), basis_state(1, "0")).basis_label() == "10"
    assert tensor(basis_state(2, "10"), basis_state(1, "0")).basis_label() == "100"


def test_tensor_distributes_over_superposition():
    out = tensor(basis_state(1, "0"), PLUS)
    assert np.allclose(out.amplitudes, [2**-0.5, 2**-0.5, 0, 0], atol=1e-15)


def _signed_zero_state(rng, n):
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    for i in rng.sample(range(len(amps)), len(amps) // 2):
        amps[i] = complex(rng.choice((-0.0, 0.0)), rng.choice((-0.0, 0.0)))
    norm = sum(abs(a) ** 2 for a in amps) ** 0.5
    return StateVector(n, [complex(a.real / norm, a.imag / norm) for a in amps])


def test_tensor_matches_kron_bytes_with_signed_zeros():
    rng = random.Random(77)
    for _ in range(500):
        a = _signed_zero_state(rng, rng.randint(1, 3))
        b = _signed_zero_state(rng, rng.randint(1, 3))
        want = np.kron(a.amplitudes, b.amplitudes)
        assert tensor(a, b).amplitude_bytes() == want.tobytes()


def test_probabilities_basis_states():
    assert probabilities(basis_state(2, "11")) == [("11", 1.0)]
    assert probabilities(basis_state(3, "101")) == [("101", 1.0)]


def test_probabilities_equal_superposition():
    probs = probabilities(PLUS)
    assert [b for b, _ in probs] == ["0", "1"]
    assert all(abs(p - 0.5) < 1e-12 for _, p in probs)
    assert abs(sum(p for _, p in probs) - 1.0) < 1e-9


def test_run_circuit_empty_circuit():
    circuit = Circuit(num_qubits=1, ops=(), measured_qubits=((0, 0),))
    final, hist = run_circuit(circuit, basis_state(1, "0"), shots=10, seed=0)
    assert hist == {"0": 10}
    assert final == basis_state(1, "0")


def test_run_circuit_deterministic_flip():
    circuit = Circuit(num_qubits=1, ops=(x(0),), measured_qubits=((0, 0),))
    _, hist = run_circuit(circuit, basis_state(1, "0"), shots=100, seed=3)
    assert hist == {"1": 100}


def test_run_circuit_qubit_count_mismatch():
    circuit = Circuit(num_qubits=2, ops=(), measured_qubits=())
    with pytest.raises(CircuitError):
        run_circuit(circuit, basis_state(1, "0"), shots=1, seed=0)


def test_sampling_determinism_on_superposition():
    circuit = Circuit(num_qubits=1, ops=(), measured_qubits=((0, 0),))
    hists = [run_circuit(circuit, PLUS, shots=200, seed=42)[1] for _ in range(2)]
    assert hists[0] == hists[1]
    different = run_circuit(circuit, PLUS, shots=200, seed=43)[1]
    assert sum(hists[0].values()) == sum(different.values()) == 200


@pytest.mark.parametrize("start", ["basis", "superposed"])
@pytest.mark.parametrize("name, value", [
    ("shots", 2.5), ("shots", "3"), ("shots", -1), ("shots", True), ("shots", None),
    ("seed", -1), ("seed", None), ("seed", 1.0), ("seed", False), ("seed", np.float64(3)),
])
def test_run_circuit_rejects_bad_shots_and_seed(start, name, value):
    # The draw-free basis path rejects exactly what the drawing path does.
    circuit = Circuit(num_qubits=1, ops=(x(0),), measured_qubits=((0, 0),))
    initial = basis_state(1, "0") if start == "basis" else PLUS
    args = {"shots": 5, "seed": 7, name: value}
    with pytest.raises(CircuitError) as err:
        run_circuit(circuit, initial, **args)
    assert str(err.value) == f"{name} must be a nonnegative int, got {value!r}"


def test_run_circuit_takes_numpy_ints():
    circuit = Circuit(num_qubits=1, ops=(), measured_qubits=((0, 0),))
    hist = run_circuit(circuit, PLUS, shots=np.int64(50), seed=np.uint32(9))[1]
    assert hist == run_circuit(circuit, PLUS, shots=50, seed=9)[1]


def _histogram_case(name):
    """(circuit, start) for one histogram edge case."""
    rng = random.Random(name)
    dense = prop_util._random_start(rng, 4, "dense")
    swaps = (cx(0, 2), cswap(3, 1, 0), x(1))
    return {
        # Classical bits 1-4 are never written and read 0.
        "gaps": (Circuit(4, swaps, ((0, 0), (2, 5))), dense),
        # Only qubit 1 is measured: indices that differ elsewhere share a key.
        "merged": (Circuit(4, swaps, ((1, 0),)), dense),
        "unmeasured": (Circuit(4, swaps), dense),
        "basis": (Circuit(4, swaps, ((3, 0), (0, 1), (2, 2))), basis_state(4, "1010")),
        "wide": (Circuit(4, swaps, ((0, 70), (3, 2))), dense),
        "wide_basis": (Circuit(4, swaps, ((0, 70), (3, 64))), basis_state(4, "0111")),
        # Qubit 2 is read into two classical bits.
        "twice": (Circuit(4, swaps, ((2, 0), (1, 1), (2, 3))), dense),
        "twice_basis": (Circuit(4, swaps, ((2, 0), (1, 1), (2, 3))), basis_state(4, "0100")),
    }[name]


@pytest.mark.parametrize("name", [
    "gaps", "merged", "unmeasured", "basis", "wide", "wide_basis", "twice", "twice_basis",
])
@pytest.mark.parametrize("shots", [0, 1, 300])
def test_run_circuit_histogram_matches_dense_sampler(name, shots):
    circuit, start = _histogram_case(name)
    final, hist = run_circuit(circuit, start, shots, seed=17)
    out = apply_all(start, circuit.ops).amplitudes
    assert final.amplitude_bytes() == out.tobytes()
    want = prop_util._dense_sampler(out, circuit.measured_qubits, circuit.num_clbits, shots, 17)
    assert hist == want
    assert list(hist) == sorted(hist)
    assert sum(hist.values()) == shots
    assert all(len(key) == circuit.num_clbits for key in hist)


def test_shared_gate_equals_and_hashes_like_a_direct_gate():
    shared = shared_gate("cx", (0, 1))
    assert shared is shared_gate("cx", (0, 1)) is cx(0, 1)
    direct = GateOp("cx", (0, 1))
    assert direct is not shared
    assert direct == shared and shared == direct
    assert hash(direct) == hash(shared)


@pytest.mark.parametrize("kind, qubits, message", [
    ("cx", (2, 2), "cx qubit indices must be distinct: (2, 2)"),
    ("ccx", (0, 1), "ccx expects 3 qubits, got 2"),
    ("h", (0,), "unsupported gate kind 'h'"),
    ("x", (-1,), "negative qubit index in (-1,)"),
])
def test_shared_gate_does_not_cache_errors(kind, qubits, message):
    for _ in range(3):
        with pytest.raises(GateError) as err:
            shared_gate(kind, qubits)
        assert str(err.value) == message


def _cached_then(call):
    """Fill the shared-gate cache with the int gate a bad call hashes like, then call."""
    def run():
        shared_gate("x", (1,))
        shared_gate("cx", (1, 0))
        return call()
    return run


_DENSE_2 = [0.5, 0.5, 0.5, 0.5]


_BAD_INDEX_CASES = [
    (lambda: GateOp("x", (1.7,)), GateError, "x qubit index must be an int, got 1.7"),
    (lambda: GateOp("cx", (True, False)), GateError, "cx qubit index must be an int, got True"),
    (lambda: GateOp("x", ("a",)), GateError, "x qubit index must be an int, got 'a'"),
    (lambda: GateOp("x", 5), GateError, "x qubits must be a sequence of ints, got 5"),
    (lambda: shared_gate("x", 5), GateError, "x qubits must be a sequence of ints, got 5"),
    (_cached_then(lambda: shared_gate("x", (1.0,))), GateError,
     "x qubit index must be an int, got 1.0"),
    (_cached_then(lambda: shared_gate("cx", (True, False))), GateError,
     "cx qubit index must be an int, got True"),
    (_cached_then(lambda: x(True)), GateError, "x qubit index must be an int, got True"),
    (lambda: Circuit(2, (), ((0.5, 1),)), ConstructionError,
     "measurement (0.5, 1) must pair two ints"),
    (lambda: Circuit(2, (), ((0, False),)), ConstructionError,
     "measurement (0, False) must pair two ints"),
    (lambda: Circuit(2.0), ConstructionError, "num_qubits must be an int, got 2.0"),
    (lambda: export_qasm(Circuit(2), (1.5,)), QasmError,
     "initialization qubit must be an int, got 1.5"),
    (lambda: StateVector(True, [1, 0]), ConstructionError, "num_qubits must be an int, got True"),
    (lambda: StateVector(1.5, [1, 0]), ConstructionError, "num_qubits must be an int, got 1.5"),
    (lambda: StateVector("2", _DENSE_2), ConstructionError, "num_qubits must be an int, got '2'"),
    (lambda: basis_state_from_index(2, 1.0), ConstructionError,
     "basis index must be an int, got 1.0"),
    (lambda: basis_state_from_index(True, 0), ConstructionError,
     "num_qubits must be an int, got True"),
]


@pytest.mark.parametrize("call, error, message", _BAD_INDEX_CASES,
                         ids=[message for _, _, message in _BAD_INDEX_CASES])
def test_index_arguments_must_be_ints(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


_MALFORMED_SHAPE_CASES = [
    (lambda: Circuit(2, (), ((0,),)), "measurement (0,) must pair two ints"),
    (lambda: Circuit(2, (), (5,)), "measurement 5 must pair two ints"),
    (lambda: Circuit(2, ((0, 1),)), "circuit op must be a GateOp, got (0, 1)"),
    (lambda: Circuit(2, (x(0),), 5), "measured_qubits must be a sequence, got 5"),
    (lambda: Circuit(2, 5), "ops must be a sequence, got 5"),
    (lambda: Circuit(num_qubits=-1), "num_qubits must be nonnegative, got -1"),
    (lambda: GateOp(["x"], (0,)), "gate kind must be a str, got ['x']"),
    (lambda: build_register(1.5), "u must be an int, got 1.5"),
    (lambda: build_register(True), "u must be an int, got True"),
    (lambda: build_register(0), "register needs at least one flip-flop, got u=0"),
]


@pytest.mark.parametrize("call, message", _MALFORMED_SHAPE_CASES,
                         ids=[message for _, message in _MALFORMED_SHAPE_CASES])
def test_malformed_circuits_and_registers_raise_construction_errors(call, message):
    with pytest.raises(ConstructionError) as err:
        call()
    assert type(err.value) is ConstructionError
    assert str(err.value) == message


def test_numpy_integer_indices_are_accepted():
    gate = shared_gate("cx", (np.int64(1), np.uint8(0)))
    assert gate == cx(1, 0) and type(gate.qubits[0]) is int
    circuit = Circuit(np.int64(2), (gate,), ((np.int32(1), np.int16(0)),))
    assert circuit.measured_qubits == ((1, 0),) and type(circuit.num_qubits) is int
    assert export_qasm(circuit, (np.int64(1),)) == export_qasm(circuit, (1,))
    assert StateVector(np.int64(2), _DENSE_2) == StateVector(2, _DENSE_2)
    assert basis_state_from_index(np.int64(3), np.int64(5)).basis_label() == "101"


def test_register_is_shared_per_width_and_variant_whatever_their_spelling():
    circuit = build_register(np.int64(2), "verbatim")
    assert circuit is build_register(2, CircuitVariant.VERBATIM)
    assert type(circuit.num_qubits) is int
    assert build_register(2) is not circuit


def test_a_circuit_run_again_is_not_compiled_again(monkeypatch):
    compiled = []
    real = statevector._compile
    monkeypatch.setattr(statevector, "_compile",
                        lambda ops: compiled.append(ops) or real(ops))
    circuit = Circuit(3, (x(0), cx(0, 1), ccx(0, 1, 2)), ((2, 0),))
    for _ in range(2):
        final, hist = run_circuit(circuit, basis_state(3, "000"), shots=5, seed=1)
        assert final.basis_label() == "111" and hist == {"1": 5}
    assert compiled == [circuit.ops]


def test_circuit_rejects_duplicate_clbits():
    with pytest.raises(ConstructionError):
        Circuit(num_qubits=2, ops=(), measured_qubits=((0, 0), (1, 0)))


def _random_gate(rng: random.Random, num_qubits: int) -> GateOp:
    kind = rng.choice(["x", "cx", "ccx", "swap", "cswap", "id"])
    arity = {"x": 1, "cx": 2, "ccx": 3, "swap": 2, "cswap": 3, "id": 1}[kind]
    return GateOp(kind, tuple(rng.sample(range(num_qubits), arity)))


def _random_state(rng: random.Random, num_qubits: int) -> StateVector:
    amps = np.array(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << num_qubits)]
    )
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(num_qubits, amps)


def test_norm_preserved_under_random_gates():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(3, 5)
        state = _random_state(rng, n)
        out = apply(state, _random_gate(rng, n))
        assert abs(out.norm() - 1.0) < 1e-12


def test_gates_are_involutions():
    rng = random.Random(202)
    for _ in range(300):
        n = rng.randint(3, 5)
        state = _random_state(rng, n)
        op = _random_gate(rng, n)
        assert apply(apply(state, op), op) == state  # permutations are exact


def test_basis_closure():
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(3, 5)
        state = basis_state_from_index(n, rng.randrange(1 << n))
        out = apply(state, _random_gate(rng, n))
        mags = np.abs(out.amplitudes) ** 2
        assert abs(mags.max() - 1.0) < 1e-12
        assert np.count_nonzero(mags > 1e-12) == 1


@pytest.mark.parametrize("position", [0, 2, 5])
def test_apply_all_names_the_first_gate_too_wide(position):
    state = basis_state(3, "101")
    ops = [x(0), cx(0, 1), ccx(0, 1, 2), cswap(2, 0, 1), identity(1)]
    ops.insert(position, cx(1, 3))
    message = "gate cx(1, 3) exceeds the state's 3 qubits"
    with pytest.raises(GateError, match=re.escape(message)):
        apply_all(state, ops)
    with pytest.raises(GateError, match=re.escape(message)):
        apply_all(state, ops + [ccx(4, 0, 1)])  # a later wide gate is not the one named
    with pytest.raises(GateError, match=re.escape(message)):
        apply(state, cx(1, 3))


def test_apply_all_peak_memory_is_a_few_index_arrays():
    rng = random.Random(505)
    ops = [_random_gate(rng, 17) for _ in range(46)]
    state = StateVector(17, np.full(1 << 17, 2 ** -8.5, dtype=np.complex128))
    apply_all(state, ops)  # compile the gate list outside the measurement
    tracemalloc.start()
    try:
        apply_all(state, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The new support's index array and two scratch arrays of the same size.
    assert peak < 3.5 * (8 << 17), peak


def test_apply_all_composes_in_order():
    state = basis_state(2, "00")
    out = apply_all(state, (x(1), cx(1, 0)))
    assert out.basis_label() == "11"


@pytest.mark.parametrize("amps", [[float("nan"), 0.0], [float("inf"), 0.0], [1.0, float("nan")]])
def test_state_rejects_nan_and_inf(amps):
    with pytest.raises(ConstructionError):
        StateVector(1, amps)


def test_basis_states_hold_up_to_63_qubits():
    top = basis_state_from_index(63, (1 << 63) - 1)
    assert apply(top, x(62)).basis_index() == (1 << 62) - 1
    with pytest.raises(ConstructionError):
        basis_state_from_index(64, 0)
    with pytest.raises(ConstructionError):
        basis_state_from_index(0, 0)


def test_amplitudes_are_cached_and_read_only():
    out = apply(basis_state(2, "01"), x(1))
    assert out.amplitudes is out.amplitudes
    assert not out.amplitudes.flags.writeable
    assert np.array_equal(out.amplitudes, [0, 0, 0, 1])


def _dense_register_histograms():
    """Sorted histograms of seeded dense u=1..3 registers, both variants."""
    out = []
    for u in (1, 2, 3):
        for k, variant in enumerate((CircuitVariant.NORMALIZED, CircuitVariant.VERBATIM)):
            gen = np.random.default_rng([u, k])
            dim = 1 << (2 + LANE_QUBITS * u)
            amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            start = StateVector(2 + LANE_QUBITS * u, amps / np.sqrt(np.sum(np.abs(amps) ** 2)))
            hist = run_circuit(build_register(u, variant), start, 700 + 97 * u, seed=31 * u + k)[1]
            out.append(sorted(hist.items()))
    return out


def test_dense_register_histograms_are_pinned():
    # The hash was computed with `Generator.choice` drawing the shots, so
    # any other way of drawing them must reproduce its bytes.
    text = json.dumps(_dense_register_histograms())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ab7f0afc3b55a2c1a1b5b07a003101fb2ca35e7751cd3e2104de29b86702d6f3"
    )


def test_draw_matches_choice_at_cdf_boundaries():
    # The first probability of a two-amplitude state steps ulp by ulp
    # across the seed's first uniform, on states normalized and off by
    # less than the norm tolerance: the draw must pick what
    # `Generator.choice` picks at every step.
    circuit = Circuit(1, (), ((0, 0),))
    for seed in range(40):
        first = np.sqrt(np.random.default_rng(seed).random())
        for step in range(-30, 31):
            a0 = first + step * np.spacing(first)
            for scale in (1.0, 1 + 4e-13, 1 - 4e-13):
                start = StateVector(1, np.array([a0, np.sqrt(1 - a0 * a0)]) * np.sqrt(scale))
                want = prop_util._dense_sampler(start.amplitudes, circuit.measured_qubits, 1, 1, seed)
                assert run_circuit(circuit, start, 1, seed)[1] == want, (seed, step, scale)


# Every construction and comparison check, by type and exact message.


def _assign_qubits():
    PLUS.num_qubits = 2


@pytest.mark.parametrize("make, error, message", [
    (lambda: StateVector(0, [1]), ConstructionError, "a state needs at least one qubit"),
    (lambda: StateVector(1, [1, 0, 0]), ConstructionError,
     "expected 2 amplitudes for 1 qubits, got shape (3,)"),
    (_assign_qubits, AttributeError, "StateVector is immutable"),
    (lambda: PLUS.basis_index(), GateError, "state is not a computational basis state"),
    (lambda: basis_state_from_index(1, 2), ConstructionError,
     "basis index 2 out of range for 1 qubits"),
    (lambda: Circuit(1, (x(1),)), ConstructionError, "op x(1,) exceeds circuit width 1"),
    (lambda: Circuit(2, (), ((2, 0),)), ConstructionError, "measured qubit 2 out of range"),
    (lambda: Circuit(2, (), ((0, -1),)), ConstructionError, "classical bit -1 out of range"),
], ids=["no-qubits", "shape", "immutable", "superposed-index", "index-range", "op-width",
        "measured-qubit", "classical-bit"])
def test_state_and_circuit_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_state_compares_only_with_states_and_reprs_by_label_or_width():
    assert PLUS.__eq__(0.5) is NotImplemented
    assert PLUS != 0.5 and basis_state(1, "0") != "0"
    assert repr(basis_state(2, "10")) == "StateVector(|10>)"
    assert repr(PLUS) == "StateVector(1 qubits)"
