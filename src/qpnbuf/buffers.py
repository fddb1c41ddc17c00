"""Constructors for the five quantum buffer nets and their scenario runner.

``KIND_TABLE`` declares once what each buffer kind takes: its parameters,
its address programs and its number of data tokens.  ``BufferSpec.build``
checks a spec against it before it calls the kind's builder, and the
scenario parser and emitter read their fields from the same table
(``ScenarioDoc`` is a ``BufferSpec`` with run settings added).

All buffer transitions are identity events: payloads move between places
untouched, so a data token of any qubit width flows exactly like a
single-qubit one.  Capacity is provisioned as ancillary supply: once the
supply place drains, no further data can move.

Selector (address) tokens pick among guarded transitions.  Builders accept
an explicit address program to reproduce a concrete run; without one the
selectors are left free, which makes enumeration explore every routing
choice.

A builder declares each part of its net once, in a ``_<kind>_parts``
function of its shape integers alone (simo's ``k``, the number of miso and
mimo inputs, mimo's ``outputs``).  A transition is a list of routes, each
taking the head of one place to another place (or, split by a
``PairRoute``, to two); ``_transition`` makes the arcs and routing the
engine reads.  ``_shape`` compiles the parts once per shape and keeps the
result in a bounded cache, so nets of one shape share their places,
transitions and firing plans, never their tokens.  Tokens are declared as
queues, one list per place: data tokens d1, d2, ... in place order, then
the ancillary supplies, and ``_instance`` puts them on a net of the shape
and builds its initial marking from those queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .engine import (
    AddressDriven,
    Arc,
    Marking,
    PairRoute,
    Place,
    PlaceKind,
    QPNet,
    QToken,
    Scheduler,
    TokenKind,
    Trace,
    Transition,
    _destinations,
    _Shape,
    run,
    shared_basis_state,
)
from .errors import QpnError, SpecError
from .statevector import StateVector, basis_state, cx


class BufferKind(NamedTuple):
    """What a buffer kind takes, in the order its builder takes it.

    ``params`` are its required parameters.  ``programs`` maps each optional
    address program to the parameter that counts its choices; a program
    seeds up to ``m`` selectors.  ``data`` are the parameters that add up to
    its number of data tokens d1, d2, ...  The input counts ``r`` count
    choices by their length and data tokens by their sum.
    """

    params: tuple[str, ...]
    programs: dict[str, str]
    data: tuple[str, ...]

    @property
    def arguments(self) -> tuple[str, ...]:
        """The ``BufferSpec`` fields the kind's builder takes, in its order."""
        return (*self.params, "payloads", *self.programs)

    def choices(self, program: str, params) -> int:
        value = params[self.programs[program]]
        return value if isinstance(value, int) else len(value)

    def data_count(self, params) -> int:
        counts = (params[name] for name in self.data)
        return sum(c if isinstance(c, int) else sum(c) for c in counts)


KIND_TABLE = {
    "siso": BufferKind(("n", "m"), {}, ("n",)),
    "simo": BufferKind(("n", "m", "k"), {"addresses": "k"}, ("n",)),
    "miso": BufferKind(("r", "m"), {"addresses": "r"}, ("r",)),
    "mimo": BufferKind(("r", "outputs", "m"),
                       {"input_addresses": "r", "output_addresses": "outputs"}, ("r",)),
    "priority": BufferKind(("r_low", "r_high", "m_low", "m_high"), {}, ("r_low", "r_high")),
}
KINDS = tuple(KIND_TABLE)


def address_fault(program, choices: int, count: int) -> tuple[str, str] | None:
    """Why ``program`` cannot seed ``count`` selectors of ``choices`` choices.

    The message and the index suffix (``[i]``, or empty) of the field at
    fault; None for a program that fits.
    """
    if len(program) > count:
        return f"address program has {len(program)} entries for {count} selectors", ""
    for i, a in enumerate(program):
        if not 0 <= a < choices:
            return f"address {a} at position {i} is out of range for {choices} choices", f"[{i}]"
    return None


def _transition(tid, routes, guard=None, inhibitors=(), gate=()) -> Transition:
    """A transition that takes the head of each source place to its destination.

    ``routes`` pairs each input place, in arc order, with a destination: a
    place, or a ``PairRoute`` that splits a fused pair.  The arc labels and
    the routing the engine reads are made here.
    """
    routing = {f"x{i + 1}": dest for i, (_, dest) in enumerate(routes)}
    out_places = dict.fromkeys(p for dest in routing.values() for p in _destinations(dest))
    return Transition(
        id=tid,
        input_arcs=tuple(Arc(src, tid, "in", lbl) for (src, _), lbl in zip(routes, routing)),
        output_arcs=tuple(Arc(p, tid, "out", f"f{i + 1}") for i, p in enumerate(out_places)),
        routing=routing,
        inhibitor_arcs=tuple(Arc(p, tid, "in", f"inh{i + 1}") for i, p in enumerate(inhibitors)),
        gate=tuple(gate),
        address_guard=guard,
    )


def _data_queues(counts: dict[str, int], payloads) -> dict[str, list[QToken]]:
    """Data tokens d1, d2, ... queued in order, ``counts[place]`` of them in each place."""
    payloads = payloads or {}
    ids = [f"d{i + 1}" for i in range(sum(counts.values()))]
    unknown = sorted(payloads.keys() - set(ids))
    if unknown:
        raise SpecError(f"payload for {unknown[0]!r}, which is not a data token of this instance")
    zero = shared_basis_state(1, 0)
    tokens = iter([QToken(tid, TokenKind.DATA, payloads.get(tid, zero)) for tid in ids])
    return {place: list(islice(tokens, count)) for place, count in counts.items()}


def _ancillas(prefix, count, choices=1, addresses=None) -> list[QToken]:
    """Ancillary tokens <prefix>1, <prefix>2, ...: selectors of ``choices`` choices.

    Selectors are seeded with the address program, or left free past its end.
    """
    if addresses is not None:
        fault = address_fault(addresses, choices, count)
        if fault is not None:
            raise SpecError(fault[0])
    width = max(1, (choices - 1).bit_length())
    program = tuple(addresses or ())
    program += (None,) * (count - len(program))
    return [QToken(f"{prefix}{i + 1}", TokenKind.ANCILLARY, shared_basis_state(width, a or 0), a)
            for i, a in enumerate(program)]


@lru_cache(maxsize=64, typed=True)
def _shape(parts, *sizes) -> _Shape:
    """The compiled shape of the net ``parts(*sizes)`` declares, one per builder and sizes.

    The key holds a builder's shape integers alone, never token counts or
    payloads, so nets of one shape share places, transitions and plans.
    Typed, so that a size of another type equal to an int (``3.0``) fails
    as it would uncached, never reading that int's entry.
    """
    places, transitions = parts(*sizes)
    return _Shape(places, transitions)


def _instance(shape: _Shape, queues: dict[str, list[QToken]]) -> tuple[QPNet, Marking]:
    """The net and its initial marking: each place holds its queue's tokens, in order."""
    net = QPNet._of(shape, [tok for toks in queues.values() for tok in toks])
    return net, net.initial_marking({p: [tok.id for tok in toks] for p, toks in queues.items()})


def _check_inputs(kind, r, m) -> int:
    """The number of input places of a miso or mimo instance, checked with its capacity."""
    if len(r) < 2:
        raise SpecError(f"{kind} requires at least 2 input places, got {len(r)}")
    if m < 1:
        raise SpecError(f"{kind} requires m >= 1, got m={m}")
    if any(c < 0 for c in r):
        raise SpecError(f"input counts must be nonnegative, got {r}")
    return len(r)


def _siso_parts():
    places = [
        Place("P_I", PlaceKind.INPUT),
        Place("P_A", PlaceKind.ANCILLARY),
        Place("P_A1", PlaceKind.ANCILLARY),
        Place("P_O", PlaceKind.OUTPUT),
    ]
    return places, [_transition("T1", [("P_I", "P_O"), ("P_A", "P_A1")])]


def build_siso(
    n: int, m: int, payloads: dict[str, StateVector] | None = None
) -> tuple[QPNet, Marking]:
    """Single lane: T1 moves one data token to P_O per ancillary qubit in P_A.

    A zero-capacity instance (m=0) is a valid net in which T1 can never fire.
    """
    if not 0 <= m <= n:
        raise SpecError(f"siso requires 0 <= m <= n, got n={n}, m={m}")
    queues = _data_queues({"P_I": n}, payloads)
    queues["P_A"] = _ancillas("z", m)
    return _instance(_shape(_siso_parts), queues)


def _simo_parts(k):
    places = [
        Place("P_I", PlaceKind.INPUT),
        Place("P_A", PlaceKind.ANCILLARY),
        Place("P_A1", PlaceKind.ANCILLARY),
    ] + [Place(f"P_O{j + 1}", PlaceKind.OUTPUT) for j in range(k)]
    transitions = [
        _transition(f"T{j + 1}", [("P_I", f"P_O{j + 1}"), ("P_A", "P_A1")], guard=j)
        for j in range(k)
    ]
    return places, transitions


def build_simo(
    n: int,
    m: int,
    k: int,
    payloads: dict[str, StateVector] | None = None,
    addresses=None,
) -> tuple[QPNet, Marking]:
    """One input place fanning out to k output places through guarded transitions.

    A zero-capacity instance (m=0) is a valid net in which nothing can fire.
    """
    if not 0 <= m <= n:
        raise SpecError(f"simo requires 0 <= m <= n, got n={n}, m={m}")
    if k < 2:
        raise SpecError(f"simo requires k >= 2 outputs, got k={k}")
    shape = _shape(_simo_parts, k)
    queues = _data_queues({"P_I": n}, payloads)
    queues["P_A"] = _ancillas("z", m, k, addresses)
    return _instance(shape, queues)


def _miso_parts(k):
    places = [Place(f"P_I{j + 1}", PlaceKind.INPUT) for j in range(k)] + [
        Place("P_DA", PlaceKind.DATA_ANCILLARY),
        Place("P_A", PlaceKind.ANCILLARY),
        Place("P_A1", PlaceKind.ANCILLARY),
        Place("P_O", PlaceKind.OUTPUT),
    ]
    transitions = [
        _transition(f"T{j + 1}", [(f"P_I{j + 1}", "P_DA"), ("P_A", "P_DA")], guard=j)
        for j in range(k)
    ]
    transitions.append(
        _transition(f"T{k + 1}", [("P_DA", PairRoute(data_to="P_O", ancillary_to="P_A1"))])
    )
    return places, transitions


def build_miso(
    r: tuple[int, ...],
    m: int,
    payloads: dict[str, StateVector] | None = None,
    addresses=None,
) -> tuple[QPNet, Marking]:
    """k input places feeding one output through a staging place.

    Guarded input transition T_j pairs the head of P_Ij with the head
    selector and stages the pair in P_DA; the unguarded output transition
    forwards the pair's data token to P_O and parks the selector in P_A1.
    """
    k = _check_inputs("miso", r, m)
    queues = _data_queues({f"P_I{j + 1}": count for j, count in enumerate(r)}, payloads)
    queues["P_A"] = _ancillas("z", m, k, addresses)
    return _instance(_shape(_miso_parts, k), queues)


def _mimo_parts(k, outputs):
    places = (
        [Place(f"P_I{j + 1}", PlaceKind.INPUT) for j in range(k)]
        + [
            Place("P_DA", PlaceKind.DATA_ANCILLARY),
            Place("P_A1", PlaceKind.ANCILLARY),
            Place("P_A2", PlaceKind.ANCILLARY),
            Place("P_A3", PlaceKind.ANCILLARY),
        ]
        + [Place(f"P_O{j + 1}", PlaceKind.OUTPUT) for j in range(outputs)]
    )
    transitions = [
        _transition(f"T{j + 1}", [(f"P_I{j + 1}", "P_DA"), ("P_A1", "P_DA")], guard=j)
        for j in range(k)
    ]
    transitions += [
        _transition(
            f"T{k + j + 1}",
            [("P_DA", PairRoute(data_to=f"P_O{j + 1}", ancillary_to="P_A3")), ("P_A2", "P_A3")],
            guard=j,
        )
        for j in range(outputs)
    ]
    return places, transitions


def build_mimo(
    r: tuple[int, ...],
    outputs: int,
    m: int,
    payloads: dict[str, StateVector] | None = None,
    input_addresses=None,
    output_addresses=None,
) -> tuple[QPNet, Marking]:
    """k input places and several output places, with two selector supplies.

    Input selectors (w, in P_A1) choose which input place feeds the staging
    place; output selectors (z, in P_A2) choose which output place receives
    the staged data token.  Both spent selectors collect in P_A3.
    """
    k = _check_inputs("mimo", r, m)
    if outputs < 2:
        raise SpecError(f"mimo requires at least 2 output places, got {outputs}")
    shape = _shape(_mimo_parts, k, outputs)
    queues = _data_queues({f"P_I{j + 1}": count for j, count in enumerate(r)}, payloads)
    queues["P_A1"] = _ancillas("w", m, k, input_addresses)
    queues["P_A2"] = _ancillas("z", m, outputs, output_addresses)
    return _instance(shape, queues)


def _priority_parts():
    places = [
        Place("P_I1", PlaceKind.INPUT),
        Place("P_I2", PlaceKind.INPUT),
        Place("P_DA1", PlaceKind.DATA_ANCILLARY),
        Place("P_A", PlaceKind.ANCILLARY),
        Place("P_DA2", PlaceKind.DATA_ANCILLARY),
        Place("P_A1", PlaceKind.ANCILLARY),
        Place("P_A2", PlaceKind.ANCILLARY),
        Place("P_O", PlaceKind.OUTPUT),
    ]
    deliver = PairRoute(data_to="P_O", ancillary_to="P_A2")
    transitions = [
        _transition("T1", [("P_I1", "P_DA1"), ("P_A", "P_DA1")]),
        _transition("T2", [("P_I2", "P_DA2"), ("P_A1", "P_DA2")]),
        _transition("T3", [("P_DA1", deliver)], inhibitors=["P_DA2"]),
        _transition("T4", [("P_DA2", deliver)]),
    ]
    return places, transitions


def build_priority(
    r_low: int,
    r_high: int,
    m_low: int,
    m_high: int,
    payloads: dict[str, StateVector] | None = None,
) -> tuple[QPNet, Marking]:
    """Two-class buffer where staged high-priority pairs block the low lane.

    T1/T2 stage (data, ancillary) pairs from the low/high input places into
    P_DA1/P_DA2; T3 forwards low-priority pairs to P_O but is inhibited
    while P_DA2 holds anything, so T4 always clears high-priority pairs
    first.  Spent ancillas collect in P_A2 in arrival order.
    """
    for name, value in zip(KIND_TABLE["priority"].params, (r_low, r_high, m_low, m_high)):
        if value < 0:
            raise SpecError(f"{name} must be nonnegative, got {value}")
    queues = _data_queues({"P_I1": r_low, "P_I2": r_high}, payloads)
    queues["P_A"] = _ancillas("w", m_low)
    queues["P_A1"] = _ancillas("z", m_high)
    return _instance(_shape(_priority_parts), queues)


def _cnot_parts():
    places = [
        Place("P1", PlaceKind.INPUT),
        Place("P2", PlaceKind.INPUT),
        Place("P3", PlaceKind.OUTPUT),
    ]
    return places, [_transition("T1", [("P1", "P3"), ("P2", "P3")], gate=[cx(1, 0)])]


def build_cnot_example() -> tuple[QPNet, Marking]:
    """Two-place demo net whose single transition is a CNOT.

    P1 holds a=|1>, b=|1>, c=(|0>+|1>)/sqrt(2); P2 holds d=|0>, e=|1>.
    T1 consumes the heads of P1 and P2, flips the second payload when the
    first is set (control on the high-order qubit), and deposits both in P3.
    """
    plus = StateVector(1, [2**-0.5, 2**-0.5])
    queues = {
        "P1": [
            QToken("a", TokenKind.DATA, basis_state(1, "1")),
            QToken("b", TokenKind.DATA, basis_state(1, "1")),
            QToken("c", TokenKind.DATA, plus),
        ],
        "P2": [
            QToken("d", TokenKind.DATA, basis_state(1, "0")),
            QToken("e", TokenKind.DATA, basis_state(1, "1")),
        ],
    }
    return _instance(_shape(_cnot_parts), queues)


@dataclass(frozen=True)
class BufferSpec:
    """Parameterized buffer instance: topology choice plus token seeding."""

    kind: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    r: tuple[int, ...] | None = None
    outputs: int | None = None
    r_low: int | None = None
    r_high: int | None = None
    m_low: int | None = None
    m_high: int | None = None
    payloads: dict[str, StateVector] = field(default_factory=dict)
    addresses: tuple[int, ...] | None = None
    input_addresses: tuple[int, ...] | None = None
    output_addresses: tuple[int, ...] | None = None

    def build(self) -> tuple[QPNet, Marking]:
        """Check the spec against its kind's table entry and call the kind's builder.

        The builder is looked up by its module-level name ``build_<kind>``
        on each call, so a rebinding of that name takes effect here.
        """
        kind = KIND_TABLE.get(self.kind)
        if kind is None:
            raise SpecError(f"unknown buffer kind {self.kind!r}")
        taken, refused = _KIND_FIELDS[self.kind]
        for name in refused:
            if getattr(self, name) is not None:
                raise SpecError(f"a {self.kind} spec takes no {name}")
        args = [getattr(self, name) for name in taken]
        for name, value in zip(kind.params, args):
            if value is None:
                raise SpecError(f"{self.kind} spec needs {name}")
        return globals()[f"build_{self.kind}"](*args)

    def build_scheduler(self, net: QPNet) -> Scheduler:
        """The scheduler a run of ``net`` takes: its selector addresses, or plain draining."""
        return AddressDriven(program=self.addresses)


# The spec's field names in order; per kind, the fields its builder takes,
# in its order, and the fields after ``kind`` that it does not take.
_SPEC_FIELDS = tuple(f.name for f in fields(BufferSpec))
_KIND_FIELDS = {
    name: (kind.arguments, tuple(f for f in _SPEC_FIELDS[1:] if f not in kind.arguments))
    for name, kind in KIND_TABLE.items()
}


def run_scenario(spec: BufferSpec, scheduler: Scheduler | None = None) -> Trace:
    """Build the net, seed the tokens, and run it to a trace.

    Without a scheduler the run takes the spec's own, ``spec.build_scheduler``
    of the built net.  A domain error during the run is re-raised, the same
    object with the kind named in its message, so its type and attributes
    (``step`` and the like) are kept.
    """
    net, marking = spec.build()
    if scheduler is None:
        scheduler = spec.build_scheduler(net)
    try:
        return run(net, marking, scheduler)
    except QpnError as exc:
        exc.args = (f"in {spec.kind} scenario: {exc}",)
        raise
