"""Exact simulator for the permutation gate set used by the buffer circuits.

Supports exactly X, CX (CNOT), CCX (Toffoli), SWAP, CSWAP (Fredkin) and the
identity.  Every one of these gates permutes computational basis states, so
a state is stored as its support: the basis indices its amplitudes may be
nonzero on, and those amplitudes.  A gate maps the indices and leaves the
amplitudes untouched, so norms are preserved bit-exactly and a gate costs
time in proportion to the support, not to 2^n.  A state built from a dense
vector has full support; a basis state has a support of one index, which
stays one index under every gate.  Indices are int64, so a basis state may
have up to 63 qubits; the dense views (``amplitudes``, ``amplitude_bytes``,
equality and hashing) still allocate all 2^n amplitudes.

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
    """Normalized amplitude vector over ``num_qubits`` qubits, held as its support.

    ``_indices`` are distinct basis indices (int64, in any order) and
    ``_values`` their amplitudes (read-only complex128); every amplitude off
    the support is +0.0.  ``_indices`` is None for a full support held in
    index order, whose ``_values`` is the dense vector; the public
    constructor, which copies and validates a dense vector, makes one.
    """

    __slots__ = ("num_qubits", "_indices", "_values", "_dense", "_bytes")

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
        object.__setattr__(self, "_indices", None)
        object.__setattr__(self, "_values", amps)
        object.__setattr__(self, "_dense", amps)

    @classmethod
    def _from_support(cls, num_qubits: int, indices: np.ndarray, values: np.ndarray):
        """Wrap a support that is already normalized: no copy and no norm check."""
        state = object.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        object.__setattr__(state, "_indices", indices)
        object.__setattr__(state, "_values", values)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense amplitude vector (read-only), built on first use and kept."""
        try:
            return self._dense
        except AttributeError:
            dense = np.zeros(1 << self.num_qubits, dtype=np.complex128)
            dense[self._indices] = self._values
            dense.flags.writeable = False
            object.__setattr__(self, "_dense", dense)
            if len(self._indices) == len(dense):
                # Hold a full support as its dense view alone: one copy of
                # the amplitudes and no index array.
                object.__setattr__(self, "_indices", None)
                object.__setattr__(self, "_values", dense)
            return dense

    def _support_indices(self) -> np.ndarray:
        """The support's indices, built for a full support held in index order."""
        if self._indices is None:
            return np.arange(len(self._values))
        return self._indices

    def _index_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The support's indices and amplitudes in ascending index order."""
        if len(self._values) == 1 << self.num_qubits:
            # Scattering a full support into its dense view beats sorting it.
            dense = self.amplitudes
            return np.arange(len(dense)), dense
        order = np.argsort(self._indices)
        return self._indices[order], self._values[order]

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

    def norm(self) -> float:
        return float(np.sum(np.abs(self._index_order()[1]) ** 2))

    def is_basis_state(self, atol: float = NORM_TOL) -> bool:
        if len(self._values) == 1:  # a one-index support holds a unit amplitude
            return True
        mags = np.abs(self._values) ** 2
        return bool(abs(np.max(mags) - 1.0) <= atol)

    def basis_index(self) -> int:
        if len(self._values) == 1:
            return int(self._indices[0])
        if not self.is_basis_state():
            raise GateError("state is not a computational basis state")
        mags = np.abs(self._values)
        return int(np.min(self._support_indices()[mags == np.max(mags)]))

    def basis_label(self) -> str:
        return format(self.basis_index(), f"0{self.num_qubits}b")


# Basis indices are int64: bit 63 is the sign.
_MAX_BASIS_QUBITS = 63

_ONE = np.ones(1, dtype=np.complex128)
_ONE.flags.writeable = False


def basis_state(num_qubits: int, label: str) -> StateVector:
    """Build |label> with the leftmost character on the highest qubit."""
    if len(label) != num_qubits:
        raise ConstructionError(
            f"label {label!r} has {len(label)} bits but the state has {num_qubits} qubits"
        )
    if set(label) - {"0", "1"}:
        raise ConstructionError(f"label {label!r} must contain only 0/1")
    return basis_state_from_index(num_qubits, int(label, 2))


def basis_state_from_index(num_qubits: int, index: int) -> StateVector:
    if num_qubits < 1:
        raise ConstructionError("a state needs at least one qubit")
    if num_qubits > _MAX_BASIS_QUBITS:
        raise ConstructionError(
            f"a basis state holds at most {_MAX_BASIS_QUBITS} qubits, got {num_qubits}"
        )
    if not 0 <= index < (1 << num_qubits):
        raise ConstructionError(f"basis index {index} out of range for {num_qubits} qubits")
    return StateVector._from_support(num_qubits, np.array([index], dtype=np.int64), _ONE)


def _basis_permutation(op: GateOp, idx: np.ndarray) -> np.ndarray:
    """Images of the basis indices ``idx`` under the gate."""
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
    # The gate moves each amplitude to its index's image and changes none,
    # so the values array is shared as it is and the norm is unchanged.
    return StateVector._from_support(
        state.num_qubits, _basis_permutation(op, state._support_indices()), state._values
    )


def apply_all(state: StateVector, ops) -> StateVector:
    for op in ops:
        state = apply(state, op)
    return state


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with ``a`` occupying the high-order qubits."""
    return StateVector(a.num_qubits + b.num_qubits,
                       np.outer(a.amplitudes, b.amplitudes).ravel())


def probabilities(state: StateVector, cutoff: float = 1e-12) -> list[tuple[str, float]]:
    """Bitstring/probability pairs above ``cutoff``, in basis-index order."""
    indices, values = state._index_order()
    probs = np.abs(values) ** 2
    keep = probs > cutoff
    width = state.num_qubits
    return [
        (format(i, f"0{width}b"), p)
        for i, p in zip(indices[keep].tolist(), probs[keep].tolist())
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

    # Inverse-CDF sampling never selects a zero probability, so drawing over
    # the index-ordered support gives the draws of the dense distribution: a
    # full support is that distribution, and a smaller one is a permuted
    # basis state whose single probability is 1.0 either way.
    indices, values = final._index_order()
    probs = np.abs(values) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(probs), size=shots, p=probs)

    width = circuit.num_clbits
    counts: Counter[str] = Counter()
    positions, hits = np.unique(draws, return_counts=True)
    for basis, hit in zip(indices[positions].tolist(), hits.tolist()):
        bits = ["0"] * width
        for q, c in circuit.measured_qubits:
            bits[width - 1 - c] = str((basis >> q) & 1)
        counts["".join(bits)] += hit
    return final, dict(sorted(counts.items()))
