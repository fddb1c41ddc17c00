"""Dense statevector simulator for the gate set used by the buffer circuits.

Supports exactly X, CX (CNOT), CCX (Toffoli), SWAP, CSWAP (Fredkin) and the
identity.  Every one of these gates permutes computational basis states, so
gate application moves amplitudes around without arithmetic on them; norms
are preserved bit-exactly.

Conventions: qubit 0 is the least significant bit of the basis index, and
bitstrings are written most-significant qubit first.  ``tensor(a, b)`` puts
``a`` on the high-order qubits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CircuitError, ConstructionError, GateError

NORM_TOL = 1e-12

_ARITY = {"x": 1, "cx": 2, "ccx": 3, "swap": 2, "cswap": 3, "id": 1}


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind from the supported set plus its qubit indices.

    Index order is controls first, then targets (for swaps: the two swapped
    qubits last).
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise GateError(f"unsupported gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != _ARITY[self.kind]:
            raise GateError(
                f"{self.kind} expects {_ARITY[self.kind]} qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"{self.kind} qubit indices must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise GateError(f"negative qubit index in {self.qubits}")


def x(q: int) -> GateOp:
    return GateOp("x", (q,))


def cx(control: int, target: int) -> GateOp:
    return GateOp("cx", (control, target))


def ccx(control1: int, control2: int, target: int) -> GateOp:
    return GateOp("ccx", (control1, control2, target))


def swap(a: int, b: int) -> GateOp:
    return GateOp("swap", (a, b))


def cswap(control: int, a: int, b: int) -> GateOp:
    return GateOp("cswap", (control, a, b))


def identity(q: int) -> GateOp:
    return GateOp("id", (q,))


class StateVector:
    """Normalized complex amplitude vector over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amplitudes", "_bytes")

    def __init__(self, num_qubits: int, amplitudes):
        if num_qubits < 1:
            raise ConstructionError("a state needs at least one qubit")
        amps = np.asarray(amplitudes, dtype=np.complex128).copy()
        if amps.shape != (1 << num_qubits,):
            raise ConstructionError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails too
            raise ConstructionError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def __hash__(self):
        return hash((self.num_qubits, self.amplitude_bytes()))

    def amplitude_bytes(self) -> bytes:
        """The raw amplitude bytes, computed on first use and kept."""
        try:
            return self._bytes
        except AttributeError:
            object.__setattr__(self, "_bytes", self.amplitudes.tobytes())
            return self._bytes

    def __repr__(self):
        if self.is_basis_state():
            return f"StateVector(|{self.basis_label()}>)"
        return f"StateVector({self.num_qubits} qubits)"

    def isclose(self, other: "StateVector", atol: float = NORM_TOL) -> bool:
        return self.num_qubits == other.num_qubits and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=atol, rtol=0.0)
        )

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def is_basis_state(self, atol: float = NORM_TOL) -> bool:
        mags = np.abs(self.amplitudes) ** 2
        return bool(abs(np.max(mags) - 1.0) <= atol)

    def basis_index(self) -> int:
        if not self.is_basis_state():
            raise GateError("state is not a computational basis state")
        return int(np.argmax(np.abs(self.amplitudes)))

    def basis_label(self) -> str:
        return format(self.basis_index(), f"0{self.num_qubits}b")


def basis_state(num_qubits: int, label: str) -> StateVector:
    """Build |label> with the leftmost character on the highest qubit."""
    if len(label) != num_qubits:
        raise ConstructionError(
            f"label {label!r} has {len(label)} bits but the state has {num_qubits} qubits"
        )
    if set(label) - {"0", "1"}:
        raise ConstructionError(f"label {label!r} must contain only 0/1")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[int(label, 2)] = 1.0
    return StateVector(num_qubits, amps)


def basis_state_from_index(num_qubits: int, index: int) -> StateVector:
    if not 0 <= index < (1 << num_qubits):
        raise ConstructionError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def _basis_permutation(op: GateOp, num_qubits: int) -> np.ndarray:
    """Index map of the gate on basis states: i -> image of |i>."""
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    q = op.qubits
    if op.kind == "id":
        return idx
    if op.kind == "x":
        return idx ^ (1 << q[0])
    if op.kind == "cx":
        ctrl = (idx >> q[0]) & 1
        return idx ^ (ctrl << q[1])
    if op.kind == "ccx":
        ctrl = ((idx >> q[0]) & (idx >> q[1])) & 1
        return idx ^ (ctrl << q[2])
    if op.kind == "swap":
        diff = ((idx >> q[0]) ^ (idx >> q[1])) & 1
        return idx ^ ((diff << q[0]) | (diff << q[1]))
    if op.kind == "cswap":
        diff = ((idx >> q[1]) ^ (idx >> q[2])) & ((idx >> q[0])) & 1
        return idx ^ ((diff << q[1]) | (diff << q[2]))
    raise GateError(f"unsupported gate kind {op.kind!r}")


def apply(state: StateVector, op: GateOp) -> StateVector:
    """Return the state transformed by one gate."""
    if max(op.qubits) >= state.num_qubits:
        raise GateError(
            f"gate {op.kind}{op.qubits} exceeds the state's {state.num_qubits} qubits"
        )
    perm = _basis_permutation(op, state.num_qubits)
    # All supported gates are involutions as index maps, so perm is its own
    # inverse and gathering with it realizes new[perm[i]] = old[i].
    return StateVector(state.num_qubits, state.amplitudes[perm])


def apply_all(state: StateVector, ops) -> StateVector:
    for op in ops:
        state = apply(state, op)
    return state


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with ``a`` occupying the high-order qubits."""
    return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


def probabilities(state: StateVector, cutoff: float = 1e-12) -> list[tuple[str, float]]:
    """Bitstring/probability pairs above ``cutoff``, in basis-index order."""
    probs = np.abs(state.amplitudes) ** 2
    width = state.num_qubits
    return [
        (format(i, f"0{width}b"), float(p)) for i, p in enumerate(probs) if p > cutoff
    ]


@dataclass(frozen=True)
class Circuit:
    """Gate list over a fixed qubit count, plus (qubit, clbit) measurements."""

    num_qubits: int
    ops: tuple[GateOp, ...] = ()
    measured_qubits: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(
            self, "measured_qubits", tuple((int(q), int(c)) for q, c in self.measured_qubits)
        )
        for op in self.ops:
            if max(op.qubits) >= self.num_qubits:
                raise ConstructionError(
                    f"op {op.kind}{op.qubits} exceeds circuit width {self.num_qubits}"
                )
        clbits = [c for _, c in self.measured_qubits]
        if len(set(clbits)) != len(clbits):
            raise ConstructionError(f"classical bit indices must be distinct: {clbits}")
        for q, c in self.measured_qubits:
            if not 0 <= q < self.num_qubits:
                raise ConstructionError(f"measured qubit {q} out of range")
            if c < 0:
                raise ConstructionError(f"classical bit {c} out of range")

    @property
    def num_clbits(self) -> int:
        return 1 + max((c for _, c in self.measured_qubits), default=-1)


def run_circuit(
    circuit: Circuit, initial: StateVector, shots: int, seed: int
) -> tuple[StateVector, dict[str, int]]:
    """Execute a circuit and sample its measured qubits.

    Sampling draws basis indices from the final distribution using NumPy's
    default PCG64 generator seeded with ``seed``; identical inputs and seed
    give an identical histogram.  Histogram keys read the classical register
    most-significant bit first.
    """
    if initial.num_qubits != circuit.num_qubits:
        raise CircuitError(
            f"initial state has {initial.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    if shots < 0:
        raise CircuitError("shots must be nonnegative")
    final = apply_all(initial, circuit.ops)

    probs = np.abs(final.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(probs), size=shots, p=probs)

    width = circuit.num_clbits
    counts: Counter[str] = Counter()
    for basis in draws:
        bits = ["0"] * width
        for q, c in circuit.measured_qubits:
            bits[width - 1 - c] = str((int(basis) >> q) & 1)
        counts["".join(bits)] += 1
    return final, dict(sorted(counts.items()))
