"""Quantum S-R flip-flop: reference truth model, circuit builders, simulation.

The storage element keeps one qubit on line Q (its complement on Q') and is
driven by set/reset lines S and R.  Two gate-level embodiments are provided:

* ``VERBATIM`` reproduces the published 14-gate listing exactly, including
  its quirks: the condition flag on q2 is never uncomputed between the reset
  and set blocks, which corrupts the Q' line in the reset case and exchanges
  the line roles in the hold case.  We preserve the artifact and report its
  behavior instead of silently repairing it.
* ``NORMALIZED`` is the corrected embodiment of the same swap-based design:
  each condition block computes its flag, performs its two controlled swaps,
  and uncomputes the flag, with no unconditional CX pre-flips.

The qubit layout is fixed for both variants:
q0=S, q1=R, q2=condition flag, q3=Q', q4=Q, q5=|0> source, q6=|1> source
(q6 is raised by the leading X of the circuit body).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConstructionError
from .statevector import (
    Circuit,
    GateOp,
    _apply_compiled,
    _is_index,
    basis_state,
    ccx,
    cswap,
    cx,
    shared_gate,
    x,
)

S_QUBIT, R_QUBIT, FLAG_QUBIT, QPRIME_QUBIT, Q_QUBIT, ZERO_QUBIT, ONE_QUBIT = range(7)

# Lane qubits replicated per flip-flop in a register (S and R are shared).
LANE_QUBITS = 5


class CircuitVariant(str, enum.Enum):
    VERBATIM = "verbatim"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class QsrInputs:
    """One row of drive: set line, reset line, present state Q (Q' = NOT Q)."""

    s: int
    r: int
    q: int

    def __post_init__(self):
        for name, bit in (("s", self.s), ("r", self.r), ("q", self.q)):
            if bit not in (0, 1):
                raise ConstructionError(f"{name} must be 0 or 1, got {bit!r}")


@dataclass(frozen=True)
class QsrOutcome:
    """Next-state readout.  ``None`` marks the undefined S=R=1 rows.

    ``readout`` maps qubit index to measured bit; the reference model fills
    only the Q/Q' lines, circuit simulation fills all seven qubits.
    """

    q_next: int | None
    q_prime_next: int | None
    readout: dict[int, int]


def reference_next_state(inputs: QsrInputs) -> QsrOutcome:
    """Truth-table next state: hold on 00, set on 10, reset on 01, else undefined."""
    if inputs.s == 1 and inputs.r == 1:
        return QsrOutcome(q_next=None, q_prime_next=None, readout={})
    if inputs.s == 1:
        q_next = 1
    elif inputs.r == 1:
        q_next = 0
    else:
        q_next = inputs.q
    return QsrOutcome(
        q_next=q_next,
        q_prime_next=1 - q_next,
        readout={QPRIME_QUBIT: 1 - q_next, Q_QUBIT: q_next},
    )


# The published 14-gate body, in listing order.
_VERBATIM_BODY: tuple[GateOp, ...] = (
    x(6),
    x(1),
    x(0),
    cx(0, 3),
    cx(1, 4),
    x(1),
    ccx(0, 1, 2),
    cswap(2, 3, 6),
    x(1),
    x(0),
    cswap(2, 4, 5),
    ccx(0, 1, 2),
    cswap(2, 4, 6),
    cswap(2, 3, 5),
)


def _normalized_body() -> tuple[GateOp, ...]:
    ops: list[GateOp] = [x(6)]
    # Reset block: flag = (NOT S) AND R, swap Q' with the |1> source and Q
    # with the |0> source, then clear the flag.
    reset_flag = (x(0), ccx(0, 1, 2), x(0))
    ops += reset_flag
    ops += [cswap(2, 3, 6), cswap(2, 4, 5)]
    ops += reset_flag
    # Set block: flag = S AND (NOT R), swap Q with the |1> source and Q'
    # with the |0> source, then clear the flag.
    set_flag = (x(1), ccx(0, 1, 2), x(1))
    ops += set_flag
    ops += [cswap(2, 4, 6), cswap(2, 3, 5)]
    ops += set_flag
    return tuple(ops)


_NORMALIZED_BODY = _normalized_body()

_BODIES = {
    CircuitVariant.VERBATIM: _VERBATIM_BODY,
    CircuitVariant.NORMALIZED: _NORMALIZED_BODY,
}


def build_qsr_circuit(variant: CircuitVariant) -> Circuit:
    """7-qubit flip-flop circuit measuring Q' into c0 and Q into c1: a one-lane register."""
    return build_register(1, variant)


def initial_x_gates(inputs: QsrInputs) -> tuple[int, ...]:
    """The qubits, ascending, that X gates raise to prepare q = (S, R, 0, NOT Q, Q, 0, 0)."""
    raised = {S_QUBIT: inputs.s, R_QUBIT: inputs.r, QPRIME_QUBIT: 1 - inputs.q, Q_QUBIT: inputs.q}
    return tuple(q for q, bit in raised.items() if bit)


def initial_label(inputs: QsrInputs) -> str:
    """Basis label (qubit 6 first) for q = (S, R, 0, NOT Q, Q, 0, 0)."""
    return format(sum(1 << q for q in initial_x_gates(inputs)), "07b")


def simulate_qsr(variant: CircuitVariant, inputs: QsrInputs) -> QsrOutcome:
    """Run one update through the statevector core and read every qubit.

    Basis inputs stay basis states under this gate set, so the readout is
    deterministic; results are reported per qubit index to avoid any
    bit-order ambiguity in concatenated strings.
    """
    circuit = build_qsr_circuit(variant)
    final = _apply_compiled(basis_state(7, initial_label(inputs)), circuit.ops, circuit._compiled)
    index = final.basis_index()
    readout = {q: (index >> q) & 1 for q in range(7)}
    return QsrOutcome(
        q_next=readout[Q_QUBIT], q_prime_next=readout[QPRIME_QUBIT], readout=readout
    )


@dataclass(frozen=True)
class ConformanceRow:
    inputs: QsrInputs
    reference: QsrOutcome
    verbatim: QsrOutcome
    normalized: QsrOutcome
    verbatim_q_match: bool
    verbatim_q_prime_match: bool
    normalized_q_match: bool
    normalized_q_prime_match: bool


# All defined input rows, in truth-table order (S=R=1 rows are excluded:
# the reference model flags them undefined, so there is nothing to match).
DEFINED_INPUT_ROWS: tuple[QsrInputs, ...] = (
    QsrInputs(0, 0, 0),
    QsrInputs(0, 0, 1),
    QsrInputs(1, 0, 0),
    QsrInputs(1, 0, 1),
    QsrInputs(0, 1, 0),
    QsrInputs(0, 1, 1),
)

ALL_INPUT_ROWS: tuple[QsrInputs, ...] = DEFINED_INPUT_ROWS + (
    QsrInputs(1, 1, 0),
    QsrInputs(1, 1, 1),
)


def conformance_report() -> list[ConformanceRow]:
    """Compare both circuit variants against the reference on all defined rows."""
    rows = []
    for inputs in DEFINED_INPUT_ROWS:
        ref = reference_next_state(inputs)
        verb = simulate_qsr(CircuitVariant.VERBATIM, inputs)
        norm = simulate_qsr(CircuitVariant.NORMALIZED, inputs)
        rows.append(
            ConformanceRow(
                inputs=inputs,
                reference=ref,
                verbatim=verb,
                normalized=norm,
                verbatim_q_match=verb.q_next == ref.q_next,
                verbatim_q_prime_match=verb.q_prime_next == ref.q_prime_next,
                normalized_q_match=norm.q_next == ref.q_next,
                normalized_q_prime_match=norm.q_prime_next == ref.q_prime_next,
            )
        )
    return rows


def register_lane_qubits(lane: int) -> dict[int, int]:
    """Map of the 7 single-flip-flop qubit roles onto a register lane."""
    base = 2 + LANE_QUBITS * lane
    return {
        S_QUBIT: S_QUBIT,
        R_QUBIT: R_QUBIT,
        FLAG_QUBIT: base,
        QPRIME_QUBIT: base + 1,
        Q_QUBIT: base + 2,
        ZERO_QUBIT: base + 3,
        ONE_QUBIT: base + 4,
    }


def build_register(u: int, variant: CircuitVariant = CircuitVariant.NORMALIZED) -> Circuit:
    """Register of ``u`` flip-flops on disjoint 5-qubit lanes sharing S and R.

    Lane ``i`` measures its Q' into classical bit 2i and its Q into 2i+1;
    lane 0 holds the flip-flop's own qubits, so ``u=1`` is the flip-flop.
    ``u`` and ``variant`` are checked on every call, but each register is
    built and validated once: every call with one width and variant returns
    the same frozen ``Circuit``, which also keeps its compiled gate runs.
    """
    if not _is_index(u):
        raise ConstructionError(f"u must be an int, got {u!r}")
    if u < 1:
        raise ConstructionError(f"register needs at least one flip-flop, got u={u}")
    return _register(int(u), CircuitVariant(variant))


@lru_cache(maxsize=64)
def _register(u: int, variant: CircuitVariant) -> Circuit:
    ops: list[GateOp] = []
    measured: list[tuple[int, int]] = []
    for lane in range(u):
        remap = register_lane_qubits(lane)
        ops.extend(shared_gate(op.kind, tuple(remap[q] for q in op.qubits))
                   for op in _BODIES[variant])
        measured.append((remap[QPRIME_QUBIT], 2 * lane))
        measured.append((remap[Q_QUBIT], 2 * lane + 1))
    return Circuit(num_qubits=2 + LANE_QUBITS * u, ops=tuple(ops), measured_qubits=tuple(measured))
