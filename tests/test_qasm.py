import re

import pytest

from qpnbuf.errors import QasmError
from qpnbuf.flipflop import CircuitVariant, build_qsr_circuit, build_register
from qpnbuf.qasm import export_qasm, parse_qasm, significant_lines
from qpnbuf.statevector import Circuit, ccx, cswap, cx, x

from qsr_oracle import LISTING_QASM


def test_verbatim_export_matches_listing_lines():
    circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
    text = export_qasm(circuit, initial_x_gates=(1, 3))
    assert significant_lines(text) == significant_lines(LISTING_QASM)


def test_verbatim_export_matches_listing_tokens():
    circuit = build_qsr_circuit(CircuitVariant.VERBATIM)
    text = export_qasm(circuit, initial_x_gates=(1, 3))
    tokens = " ".join(significant_lines(text)).split()
    expected = " ".join(significant_lines(LISTING_QASM)).split()
    assert tokens == expected


def test_parse_listing_structure():
    circuit = parse_qasm(LISTING_QASM)
    assert circuit.num_qubits == 7
    assert len(circuit.ops) == 16  # 2 init X gates + 14 body gates
    assert circuit.ops[0] == x(1)
    assert circuit.ops[1] == x(3)
    assert circuit.ops[5] == cx(0, 3)
    assert circuit.measured_qubits == ((3, 0), (4, 1))


def test_parsed_listing_runs_to_single_outcome():
    # The listing carries its own initialization, so executing it from the
    # all-zero state is deterministic: one histogram key with every shot.
    from qpnbuf.statevector import basis_state, run_circuit

    circuit = parse_qasm(LISTING_QASM)
    _, hist = run_circuit(circuit, basis_state(7, "0" * 7), shots=100, seed=11)
    assert hist == {"00": 100}
    _, hist2 = run_circuit(circuit, basis_state(7, "0" * 7), shots=100, seed=999)
    assert hist2 == hist  # deterministic outcome regardless of seed


def test_listing_reexport_round_trip():
    parsed = parse_qasm(LISTING_QASM)
    again = export_qasm(parsed)
    assert significant_lines(again) == significant_lines(LISTING_QASM)
    assert parse_qasm(again) == parsed


def test_empty_circuit_export():
    text = export_qasm(Circuit(num_qubits=1))
    lines = significant_lines(text)
    assert lines == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[1];"]


def test_zero_qubit_circuit_round_trips():
    text = export_qasm(Circuit(num_qubits=0))
    assert significant_lines(text)[-1] == "qreg q[0];"
    assert parse_qasm(text) == Circuit(num_qubits=0)


def test_normalized_round_trip_identical_circuit():
    circuit = build_qsr_circuit(CircuitVariant.NORMALIZED)
    assert parse_qasm(export_qasm(circuit)) == circuit


def test_round_trip_with_initialization_gates():
    circuit = build_qsr_circuit(CircuitVariant.NORMALIZED)
    parsed = parse_qasm(export_qasm(circuit, initial_x_gates=(0, 4)))
    assert parsed.ops == (x(0), x(4)) + circuit.ops
    assert parsed.measured_qubits == circuit.measured_qubits


def test_round_trip_all_gate_kinds():
    circuit = Circuit(
        num_qubits=4,
        ops=(x(0), cx(0, 1), ccx(0, 1, 2), cswap(0, 1, 2)),
        measured_qubits=((2, 0),),
    )
    assert parse_qasm(export_qasm(circuit)) == circuit


@pytest.mark.parametrize("variant", list(CircuitVariant), ids=lambda v: v.value)
def test_parsed_register_shares_the_built_gates(variant):
    circuit = build_register(3, variant)
    parsed = parse_qasm(export_qasm(circuit))
    assert parsed == circuit
    assert all(got is op for got, op in zip(parsed.ops, circuit.ops, strict=True))


def test_parsed_circuit_is_not_checked_again(monkeypatch):
    circuit = build_register(2, CircuitVariant.VERBATIM)
    text = export_qasm(circuit)
    checked = []
    real = Circuit.__post_init__
    monkeypatch.setattr(Circuit, "__post_init__", lambda self: checked.append(self) or real(self))
    parsed = parse_qasm(text)
    assert checked == []
    assert parsed == circuit and type(parsed.ops) is tuple
    assert type(parsed.measured_qubits) is tuple and type(parsed.num_qubits) is int


def test_respelled_gate_lines_share_one_gate():
    text = ("OPENQASM 2.0;\nqreg q[3];\n"
            "cx q[0], q[2];\ncx q[0], q[2]; // again\ncx q [ 0 ] ,q[2 ];\n")
    ops = parse_qasm(text).ops
    assert len(ops) == 3
    assert ops[0] is ops[1] is ops[2] is cx(0, 2)


def test_parse_error_reports_line_number():
    bad = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nfoo q[0];\n'
    with pytest.raises(QasmError) as err:
        parse_qasm(bad)
    assert "line 4" in str(err.value)
    assert err.value.line == 4


def test_parse_rejects_missing_semicolon():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1]\n")


def test_parse_rejects_out_of_range_reference():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[4];\n")


def test_parse_rejects_unknown_register():
    with pytest.raises(QasmError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nx r[0];\n")


def test_parse_requires_header():
    with pytest.raises(QasmError):
        parse_qasm("qreg q[1];\nx q[0];\n")


@pytest.mark.parametrize("text, message, line", [
    ('OPENQASM 2.0;\ninclude "qelib1.inc";\n', "no qreg declaration found", None),
    ("OPENQASM 2.0;\nqreg q[2];\n;\n", "line 3: unsupported statement ''", 3),
    ("OPENQASM 2.0;\nx q[0];\nqreg q[2];\n", "line 2: statement before qreg declaration", 2),
    ("x q[0];\nOPENQASM 2.0;\n", "line 1: missing OPENQASM 2.0 header", 1),
    ("OPENQASM 2.0;\nqreg q[2];\ncx;\n", "line 3: unsupported statement 'cx'", 3),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[1];\n",
     "line 3: cx qubit indices must be distinct: (1, 1)", 3),
    ("OPENQASM 2.0;\nqreg q[4];\nx q[0];\nccx q[0], q[1], q[2], q[3];\n",
     "line 4: ccx expects 3 qubits, got 4", 4),
    # Gates and measures with a faulty register reference, or no arrow.
    ("OPENQASM 2.0;\nqreg q[2];\nx q[0],;\n", "line 3: malformed register reference ''", 3),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[1];\n",
     "line 3: unknown register 'r' (expected 'q')", 3),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[2];\n", "line 3: index 2 out of range for q[2]", 3),
    # A fault on a new line after lines and references already read.
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\ncx q[1], q[2];\n",
     "line 4: index 2 out of range for q[2]", 4),
    ("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\ncx q[0], q[1];\ncx q[1], q[1];\n",
     "line 5: cx qubit indices must be distinct: (1, 1)", 5),
    ("OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -> c[0];\n",
     "line 3: measure before creg declaration", 3),
    ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure r[0] -> c[0];\n",
     "line 4: unknown register 'r' (expected 'q')", 4),
    ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[1];\n",
     "line 4: index 1 out of range for c[1]", 4),
    ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] c[0];\n",
     "line 4: unsupported statement 'measure q[0] c[0]'", 4),
    # Only ``include "<file>"``, and only after the version line.
    ("OPENQASM 2.0;\nqreg q[1];\nincludeX q[0];\n",
     "line 3: unsupported statement 'includeX q[0]'", 3),
    ('include "a";\nOPENQASM 2.0;\nqreg q[1];\n', "line 1: missing OPENQASM 2.0 header", 1),
    # Two measures into one classical bit: checked once the text is read.
    ("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[0];\n",
     "classical bit indices must be distinct: [0, 0]", None),
])
def test_parse_error_texts_and_lines(text, message, line):
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert str(err.value) == message
    assert err.value.line == line


def test_export_rejects_bad_init_qubit():
    with pytest.raises(QasmError):
        export_qasm(Circuit(num_qubits=2), initial_x_gates=(5,))


def _tab_after_kind(text):
    return re.sub(r"^(x|cx|ccx|swap|cswap|id) ", "\\1\t", text, flags=re.M)


def _spaced_references(text):
    return re.sub(r"\[(\d+)\]", r" [ \1 ] ", text).replace(", ", " ,  ")


def _trailing_comments(text):
    return re.sub(r";$", "; // note", text, flags=re.M)


@pytest.mark.parametrize("respell", [
    _tab_after_kind, _spaced_references, _trailing_comments,
    lambda text: text.replace("\n", "\r\n"),
], ids=["tab-after-kind", "spaced-references", "trailing-comment", "crlf"])
def test_noncanonical_spellings_parse_to_the_canonical_circuit(respell):
    circuit = build_register(2, CircuitVariant.VERBATIM)
    text = export_qasm(circuit, initial_x_gates=(0, 5))
    respelled = respell(text)
    assert respelled != text
    assert parse_qasm(respelled) == parse_qasm(text)
    assert parse_qasm(respelled).ops == (x(0), x(5)) + circuit.ops
