"""OpenQASM 2.0 emitter and parser for the supported gate subset.

Handles exactly the statements this project emits: OPENQASM/include
headers, one ``qreg``/``creg`` pair, the gates x/cx/ccx/swap/cswap/id, and
``measure``.  The emitter writes one statement per line in the same textual
shape as the source listings, so a parse/emit round trip is token-exact.
"""

from __future__ import annotations

import re

from .errors import GateError, QasmError
from .statevector import _ARITY, Circuit, GateOp, _is_index, shared_gate

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_REF_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_INCLUDE_RE = re.compile(r'^include\s+"[^"]+"$')
_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")


_GATE_LINE = {kind: f"{kind} {', '.join(['q[%d]'] * n)};" for kind, n in _ARITY.items()}


def export_qasm(circuit: Circuit, initial_x_gates: tuple[int, ...] = ()) -> str:
    """Emit QASM 2.0 text: header, registers, initialization X gates, body, measures."""
    lines = [HEADER, ""]
    lines.append(f"qreg q[{circuit.num_qubits}];")
    if circuit.num_clbits > 0:
        lines.append(f"creg c[{circuit.num_clbits}];")
    if initial_x_gates:
        lines.append("")
        lines.append("// Initialization")
        for q in initial_x_gates:
            if not _is_index(q):
                raise QasmError(f"initialization qubit must be an int, got {q!r}")
            if not 0 <= q < circuit.num_qubits:
                raise QasmError(f"initialization qubit {q} out of range")
            lines.append(f"x q[{q}];")
    if circuit.ops:
        lines.append("")
        lines.append("//Logic Circuit")
        lines.extend(_GATE_LINE[op.kind] % op.qubits for op in circuit.ops)
    if circuit.measured_qubits:
        lines.append("")
        for q, c in circuit.measured_qubits:
            lines.append(f"measure q[{q}] -> c[{c}];")
    return "\n".join(lines) + "\n"


def significant_lines(text: str) -> list[str]:
    """Statement lines with comments and blank lines stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_ref(token: str, register: str, size: int, lineno: int) -> int:
    m = _REF_RE.match(token.strip())
    if not m:
        raise QasmError(f"malformed register reference {token.strip()!r}", lineno)
    name, idx = m.group(1), int(m.group(2))
    if name != register:
        raise QasmError(f"unknown register {name!r} (expected {register!r})", lineno)
    if idx >= size:
        raise QasmError(f"index {idx} out of range for {register}[{size}]", lineno)
    return idx


def parse_qasm(text: str) -> Circuit:
    """Parse QASM 2.0 text (gate subset) into a Circuit.

    Initialization X gates are ordinary leading ops in the result; QASM has
    no marker distinguishing them from the body.  Gates come from
    ``shared_gate``, so the result shares them with other circuits (a
    register's with ``build_register``'s).  Each distinct gate line and each
    distinct register reference is read once per call: the ``qreg``, which
    cannot change once declared, fixes what they read as for the rest of the
    text.  Nothing outlives the call and no error is kept, so every error
    names its own line.  The result skips the ``Circuit`` constructor's
    checks, which the reader has already made, except that of distinct
    classical bits.
    """
    saw_version = False
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    ops: list[GateOp] = []
    measured: list[tuple[int, int]] = []
    # Filled only once the qreg is declared, and never with an error: gate
    # lines by their raw text, and gate references by their stripped text.
    gate_lines: dict[str, GateOp] = {}
    refs: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = gate_lines.get(raw)
        if gate is not None:
            ops.append(gate)
            continue
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise QasmError(f"statement does not end with ';': {line!r}", lineno)
        stmt = line[:-1].strip()

        # A gate statement first: none of the patterns below can match one.
        # A qreg is declared only after the header.
        parts = stmt.split(None, 1)
        if len(parts) == 2 and parts[0] in _ARITY and qreg is not None:
            kind, args = parts
            qubits = []
            for token in args.split(","):
                token = token.strip()
                index = refs.get(token)
                if index is None:
                    index = refs[token] = _parse_ref(token, qreg[0], qreg[1], lineno)
                qubits.append(index)
            try:
                gate = gate_lines[raw] = shared_gate(kind, tuple(qubits))
            except GateError as exc:
                raise QasmError(str(exc), lineno) from exc
            ops.append(gate)
            continue

        if stmt.startswith("OPENQASM"):
            if stmt.split() != ["OPENQASM", "2.0"]:
                raise QasmError(f"unsupported version statement {stmt!r}", lineno)
            saw_version = True
            continue
        if not saw_version:
            raise QasmError("missing OPENQASM 2.0 header", lineno)
        if _INCLUDE_RE.match(stmt):
            continue

        m = _QREG_RE.match(stmt)
        if m:
            if qreg is not None:
                raise QasmError("multiple qreg declarations", lineno)
            qreg = (m.group(1), int(m.group(2)))
            continue
        m = _CREG_RE.match(stmt)
        if m:
            if creg is not None:
                raise QasmError("multiple creg declarations", lineno)
            creg = (m.group(1), int(m.group(2)))
            continue

        if qreg is None:
            raise QasmError("statement before qreg declaration", lineno)

        m = _MEASURE_RE.match(stmt)
        if m:
            if creg is None:
                raise QasmError("measure before creg declaration", lineno)
            q = _parse_ref(m.group(1), qreg[0], qreg[1], lineno)
            c = _parse_ref(m.group(2), creg[0], creg[1], lineno)
            measured.append((q, c))
            continue

        raise QasmError(f"unsupported statement {stmt!r}", lineno)

    if qreg is None:
        raise QasmError("no qreg declaration found")
    # Every gate and reference was checked as it was read; only distinct
    # classical bits are left for the ``Circuit`` constructor's checks.
    clbits = [c for _, c in measured]
    if len(set(clbits)) != len(clbits):
        raise QasmError(f"classical bit indices must be distinct: {clbits}")
    return Circuit._from_checked(qreg[1], tuple(ops), tuple(measured))
