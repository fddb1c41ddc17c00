"""Exact simulator for the permutation gate set used by the buffer circuits.

Supports exactly X, CX (CNOT), CCX (Toffoli), SWAP, CSWAP (Fredkin) and the
identity.  Every one of these gates permutes computational basis states, so
a state is stored as its support: the basis indices its amplitudes may be
nonzero on, and those amplitudes.  A gate maps the indices and leaves the
amplitudes untouched, so norms are preserved bit-exactly and a gate costs
time in proportion to the support, not to 2^n.  ``apply_all`` fuses a gate
list into runs that touch few qubits and maps the indices through one
lookup table per run, not one pass per gate.  A state built from a dense
vector has full support; a basis state has a support of one index, which
stays one index under every gate and steps through the runs as a Python
int.  Indices are int64, so a basis state may have up to 63 qubits; the
dense views (``amplitudes``, ``amplitude_bytes``, equality and hashing)
still allocate all 2^n amplitudes.

Conventions: qubit 0 is the least significant bit of the basis index, and
bitstrings are written most-significant qubit first.  ``tensor(a, b)`` puts
``a`` on the high-order qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CircuitError, ConstructionError, GateError

NORM_TOL = 1e-12

_ARITY = {"x": 1, "cx": 2, "ccx": 3, "swap": 2, "cswap": 3, "id": 1}


def _is_index(value) -> bool:
    """Whether ``value`` is an int or a NumPy integer; bools are not indices."""
    return type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    )


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind from the supported set plus its qubit indices.

    Index order is controls first, then targets (for swaps: the two swapped
    qubits last).
    """

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise ConstructionError(f"gate kind must be a str, got {self.kind!r}")
        if self.kind not in _ARITY:
            raise GateError(f"unsupported gate kind {self.kind!r}")
        try:
            qubits = tuple(self.qubits)
        except TypeError:
            raise GateError(
                f"{self.kind} qubits must be a sequence of ints, got {self.qubits!r}"
            ) from None
        for q in qubits:
            if not _is_index(q):
                raise GateError(f"{self.kind} qubit index must be an int, got {q!r}")
        object.__setattr__(self, "qubits", tuple(map(int, qubits)))
        if len(self.qubits) != _ARITY[self.kind]:
            raise GateError(
                f"{self.kind} expects {_ARITY[self.kind]} qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"{self.kind} qubit indices must be distinct: {self.qubits}")
        if min(self.qubits) < 0:
            raise GateError(f"negative qubit index in {self.qubits}")


# Gates are immutable values and circuits repeat them, so each distinct
# (kind, qubits) is validated once and its circuits share one object.
_cached_gate = lru_cache(maxsize=4096)(GateOp)


def shared_gate(kind: str, qubits: tuple[int, ...]) -> GateOp:
    """The shared ``GateOp(kind, qubits)``.

    Only a tuple of plain ints reaches the cache: its keys compare ``1.0``
    and ``True`` equal to ``1``, so any other index is validated by a new,
    unshared ``GateOp``.
    """
    if type(qubits) is tuple:
        for q in qubits:
            if type(q) is not int:
                break
        else:
            return _cached_gate(kind, qubits)
    return GateOp(kind, qubits)


def x(q: int) -> GateOp:
    return shared_gate("x", (q,))


def cx(control: int, target: int) -> GateOp:
    return shared_gate("cx", (control, target))


def ccx(control1: int, control2: int, target: int) -> GateOp:
    return shared_gate("ccx", (control1, control2, target))


def cswap(control: int, a: int, b: int) -> GateOp:
    return shared_gate("cswap", (control, a, b))


def identity(q: int) -> GateOp:
    return shared_gate("id", (q,))


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
        if not _is_index(num_qubits):
            raise ConstructionError(f"num_qubits must be an int, got {num_qubits!r}")
        num_qubits = int(num_qubits)
        if num_qubits < 1:
            raise ConstructionError("a state needs at least one qubit")
        amps = np.array(amplitudes, dtype=np.complex128)  # always a copy
        if amps.shape != (1 << num_qubits,):
            raise ConstructionError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        # np.sum(np.abs(amps) ** 2) without np.sum's Python wrapper: the same
        # reduction, so the same norm bit for bit.
        norm = float(np.add.reduce(np.square(np.abs(amps))))
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

    def _ordered_probabilities(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The support's ``|amplitude|**2`` in ascending index order, and its indices.

        The indices are None for a full support, where a position is its
        index.  Squaring is elementwise, so it runs on the support as held;
        the result is a fresh array that callers may overwrite, and every
        reduction over it sums in index order.
        """
        probs = np.abs(self._values)
        np.square(probs, out=probs)
        if self._indices is None:
            return probs, None
        if len(probs) == 1 << self.num_qubits:
            # Scattering a full support into index order beats sorting it.
            ordered = np.empty_like(probs)
            ordered[self._indices] = probs
            return ordered, None
        order = np.argsort(self._indices)
        return probs[order], self._indices[order]

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
        return float(self._ordered_probabilities()[0].sum())

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
    if not _is_index(num_qubits):
        raise ConstructionError(f"num_qubits must be an int, got {num_qubits!r}")
    if not _is_index(index):
        raise ConstructionError(f"basis index must be an int, got {index!r}")
    if num_qubits < 1:
        raise ConstructionError("a state needs at least one qubit")
    if num_qubits > _MAX_BASIS_QUBITS:
        raise ConstructionError(
            f"a basis state holds at most {_MAX_BASIS_QUBITS} qubits, got {num_qubits}"
        )
    if not 0 <= index < (1 << num_qubits):
        raise ConstructionError(f"basis index {index} out of range for {num_qubits} qubits")
    return StateVector._from_support(num_qubits, np.array([index], dtype=np.int64), _ONE)


def _basis_permutation(kind: str, q: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    """Images of the basis indices ``idx`` under an x, cx, ccx, swap or else cswap on ``q``."""
    if kind == "x":
        return idx ^ (1 << q[0])
    if kind == "cx":
        ctrl = (idx >> q[0]) & 1
        return idx ^ (ctrl << q[1])
    if kind == "ccx":
        ctrl = ((idx >> q[0]) & (idx >> q[1])) & 1
        return idx ^ (ctrl << q[2])
    if kind == "swap":
        diff = ((idx >> q[0]) ^ (idx >> q[1])) & 1
        return idx ^ ((diff << q[0]) | (diff << q[1]))
    diff = ((idx >> q[1]) ^ (idx >> q[2])) & ((idx >> q[0])) & 1
    return idx ^ ((diff << q[1]) | (diff << q[2]))


# The most qubits one fused run may touch, so a run's table has at most
# 2**_RUN_QUBITS entries (32 KiB of int64 at 12).  Chosen by timing the
# register circuits' 17-qubit dense states and their basis states.
_RUN_QUBITS = 12


def _fuse(ops: list[GateOp], qubits: set[int]):
    """One run's ``(chunks, table)``; see ``_compile``."""
    qubits = sorted(qubits)
    local = {q: i for i, q in enumerate(qubits)}
    image = np.arange(1 << len(qubits), dtype=np.int64)
    for op in ops:
        image = _basis_permutation(op.kind, tuple(local[q] for q in op.qubits), image)
    flips = image ^ np.arange(len(image), dtype=np.int64)
    chunks, table = [], np.zeros_like(flips)
    start = 0
    for end in range(1, len(qubits) + 1):
        if end < len(qubits) and qubits[end] == qubits[end - 1] + 1:
            continue
        shift, mask = qubits[start] - start, ((1 << (end - start)) - 1) << start
        chunks.append((shift, mask))
        table |= (flips & mask) << shift
        start = end
    table.flags.writeable = False
    return tuple(chunks), table


@lru_cache(maxsize=64)
def _compile(ops: tuple[GateOp, ...]):
    """``(1 + the highest qubit, runs)`` of a gate list.

    The gates, identities dropped, are cut into maximal consecutive runs
    whose qubits number at most ``_RUN_QUBITS``.  A run is ``(chunks,
    table)``: each chunk ``(shift, mask)`` is a block of consecutive run
    qubits, and ORing ``(index >> shift) & mask`` over the chunks packs an
    index's run bits into a local index.  ``table[local]`` is the XOR the
    run makes to an index with those run bits, in global bit positions.
    Gate lists repeat (one per circuit, one per gated transition), so each
    distinct one is compiled once.
    """
    width = 1 + max((max(op.qubits) for op in ops), default=-1)
    runs = []
    if width <= _MAX_BASIS_QUBITS:  # no state is wider, so wider gates never run
        group, qubits = [], set()
        for op in ops:
            if op.kind == "id":
                continue
            if len(qubits.union(op.qubits)) > _RUN_QUBITS:
                runs.append(_fuse(group, qubits))
                group, qubits = [], set()
            group.append(op)
            qubits.update(op.qubits)
        if group:
            runs.append(_fuse(group, qubits))
    return width, tuple(runs)


def apply_all(state: StateVector, ops) -> StateVector:
    """Return the state transformed by the gates ``ops``, in order."""
    ops = tuple(ops)
    return _apply_compiled(state, ops, _compile(ops))


def _apply_compiled(state: StateVector, ops: tuple[GateOp, ...], compiled) -> StateVector:
    """``apply_all(state, ops)``, given ``compiled``, which is ``_compile(ops)``."""
    width, runs = compiled
    if width > state.num_qubits:
        op = next(op for op in ops if max(op.qubits) >= state.num_qubits)
        raise GateError(
            f"gate {op.kind}{op.qubits} exceeds the state's {state.num_qubits} qubits"
        )
    if not ops:
        return state
    if len(state._values) == 1:  # one index, stepped as a Python int
        index = state._indices.item(0)
        for chunks, table in runs:
            local = 0
            for shift, mask in chunks:
                local |= (index >> shift) & mask
            index ^= table.item(local)
        indices = np.array([index], dtype=np.int64)
    else:
        indices = np.arange(len(state._values)) if state._indices is None else state._indices.copy()
        local, part = np.empty_like(indices), np.empty_like(indices)
        for chunks, table in runs:
            for i, (shift, mask) in enumerate(chunks):
                bits = part if i else local
                np.right_shift(indices, shift, out=bits)
                np.bitwise_and(bits, mask, out=bits)
                if i:
                    np.bitwise_or(local, part, out=local)
            np.take(table, local, out=part, mode="clip")  # local < len(table) by its masks
            np.bitwise_xor(indices, part, out=indices)
    # The gates move each amplitude to its index's image and change none,
    # so the values array is shared as it is and the norm is unchanged.
    return StateVector._from_support(state.num_qubits, indices, state._values)


def apply(state: StateVector, op: GateOp) -> StateVector:
    """Return the state transformed by one gate."""
    return apply_all(state, (op,))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product with ``a`` occupying the high-order qubits."""
    return StateVector(a.num_qubits + b.num_qubits,
                       np.outer(a.amplitudes, b.amplitudes).ravel())


def probabilities(state: StateVector, cutoff: float = 1e-12) -> list[tuple[str, float]]:
    """Bitstring/probability pairs above ``cutoff``, in basis-index order."""
    probs, indices = state._ordered_probabilities()
    keep = probs > cutoff
    kept = np.flatnonzero(keep) if indices is None else indices[keep]
    width = state.num_qubits
    return [
        (format(i, f"0{width}b"), p)
        for i, p in zip(kept.tolist(), probs[keep].tolist())
    ]


@dataclass(frozen=True)
class Circuit:
    """Gate list over a fixed qubit count, plus (qubit, clbit) measurements."""

    num_qubits: int
    ops: tuple[GateOp, ...] = ()
    measured_qubits: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not _is_index(self.num_qubits):
            raise ConstructionError(f"num_qubits must be an int, got {self.num_qubits!r}")
        object.__setattr__(self, "num_qubits", int(self.num_qubits))
        if self.num_qubits < 0:
            raise ConstructionError(f"num_qubits must be nonnegative, got {self.num_qubits}")
        for name in ("ops", "measured_qubits"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise ConstructionError(
                    f"{name} must be a sequence, got {getattr(self, name)!r}"
                ) from None
        for pair in self.measured_qubits:
            try:
                q, c = pair
            except (TypeError, ValueError):
                raise ConstructionError(f"measurement {pair!r} must pair two ints") from None
            if not (_is_index(q) and _is_index(c)):
                raise ConstructionError(f"measurement {(q, c)!r} must pair two ints")
        object.__setattr__(
            self, "measured_qubits", tuple((int(q), int(c)) for q, c in self.measured_qubits)
        )
        for op in self.ops:
            if not isinstance(op, GateOp):
                raise ConstructionError(f"circuit op must be a GateOp, got {op!r}")
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

    @classmethod
    def _from_checked(cls, num_qubits: int, ops: tuple[GateOp, ...],
                      measured_qubits: tuple[tuple[int, int], ...]):
        """Wrap parts already checked as the constructor checks them: no copy and no check."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "num_qubits", num_qubits)
        object.__setattr__(circuit, "ops", ops)
        object.__setattr__(circuit, "measured_qubits", measured_qubits)
        return circuit

    @property
    def num_clbits(self) -> int:
        return 1 + max((c for _, c in self.measured_qubits), default=-1)

    @cached_property
    def _compiled(self):
        """``_compile(self.ops)``, kept: a circuit run again is neither hashed nor compiled."""
        return _compile(self.ops)


def _count_argument(name: str, value) -> int:
    """``value`` as an int if it is a nonnegative integer (bools excluded)."""
    if not _is_index(value) or value < 0:
        raise CircuitError(f"{name} must be a nonnegative int, got {value!r}")
    return int(value)


def run_circuit(
    circuit: Circuit, initial: StateVector, shots: int, seed: int
) -> tuple[StateVector, dict[str, int]]:
    """Execute a circuit and sample its measured qubits.

    Sampling draws basis indices from the final distribution using NumPy's
    default PCG64 generator seeded with ``seed``; identical inputs and seed
    give an identical histogram.  ``shots`` and ``seed`` are nonnegative
    ints.  Histogram keys read the classical register most-significant bit
    first.  The circuit keeps its compiled gate runs, so running one circuit
    again, such as a register that ``build_register`` shares, compiles
    nothing.
    """
    if initial.num_qubits != circuit.num_qubits:
        raise CircuitError(
            f"initial state has {initial.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    shots = _count_argument("shots", shots)
    seed = _count_argument("seed", seed)
    final = _apply_compiled(initial, circuit.ops, circuit._compiled)
    if not shots:
        return final, {}
    if not circuit.measured_qubits:
        return final, {"": shots}
    if len(final._values) == 1:
        # Inverse-CDF sampling over the single probability 1.0 draws its
        # index every time, so no generator is needed.
        return final, {_outcome_key(circuit, final._indices.item(0)): shots}

    # Inverse-CDF sampling never selects a zero probability, so drawing over
    # the index-ordered support gives the draws of the dense distribution.
    # The draw is ``Generator.choice(len(cdf), shots, p=cdf)`` written out
    # in place: one uniform PCG64 double per shot, searched in the CDF.
    # ``choice``'s checks of ``p`` cannot fail here, since the constructor
    # rejects NaN, inf and unnormalized states, so they are skipped.
    cdf, indices = final._ordered_probabilities()
    cdf /= cdf.sum()
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    draws = cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")
    positions, hits = np.unique(draws, return_counts=True)
    if indices is not None:
        positions = indices[positions]
    # Indices that differ only on unmeasured qubits share a key, and indices
    # that differ on a measured qubit do not.
    measured = sum(1 << q for q in {q for q, _ in circuit.measured_qubits})
    patterns, merged = np.unique(positions & measured, return_inverse=True)
    totals = np.zeros(len(patterns), dtype=np.int64)
    np.add.at(totals, merged, hits)
    keys = [_outcome_key(circuit, index) for index in patterns.tolist()]
    return final, dict(sorted(zip(keys, totals.tolist())))


def _outcome_key(circuit: Circuit, index: int) -> str:
    """A basis index's classical register, most significant bit first."""
    bits = ["0"] * circuit.num_clbits
    for q, c in circuit.measured_qubits:
        if index >> q & 1:
            bits[-1 - c] = "1"
    return "".join(bits)
