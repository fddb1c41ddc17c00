"""Quantum Petri net engine: tokens with quantum payloads moving through places.

Places hold FIFO queues of queue *entries*; an entry is usually a single
token, but a data token and its ancillary companion deposited together into
a data/ancillary staging place travel as one fused pair entry until an
output transition splits them again.

Transitions consume the head entries of their input places, optionally pass
the concatenated data payloads through a gate sequence, and append the
tokens at their routed destinations.  Every supported gate permutes basis
states, so firing and unfiring are bit-exact on amplitudes.

A net is a shape and its tokens.  The shape (``_Shape``) holds the places
and each transition compiled once into a firing plan whose places are
indices into ``QPNet.place_ids``, and nothing of the tokens, so nets of
one structure can share it; firing, unfiring, enabledness and
enumeration's key stepping all read the plans.  Firing and key stepping
apply the guard and the gate through one ``_transform`` and deposit tokens
through the plan's one memoized ``_layout``; unfiring checks itself by
firing forward.  A marking's queues are a list in the order of
its place ids, which must be the net's: a marking of another net is a
``ModelError``.  ``initial_marking`` checks its assignment in bulk and
returns a marking already validated against its net.  Queues are
persistent FIFOs with O(1) head pop and tail append (and their inverses),
shared between markings; firing records are named tuples.

Ancillary tokens may carry an *address*: the basis value of their payload,
used by guarded transitions as a selector.  An address of ``None`` is a
free selector that matches any guard and is materialized (payload set to
the guard's basis state) when consumed; building a net with free selectors
is what makes exhaustive outcome enumeration explore every routing choice.
Enumeration explores states as keys that leave token identity out: a key
holds per place the ids of its tokens' classes, records in a table on the
net, and steps through the firing plans without building markings.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, groupby
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    ExplosionError,
    ModelError,
    NotEnabledError,
    QpnError,
    ReversalError,
)
from .statevector import (
    GateOp,
    StateVector,
    apply_all,
    basis_state_from_index,
    tensor,
)

DEFAULT_STEP_BOUND = 10**6

Entry = tuple[str, ...]


class TokenKind(enum.Enum):
    DATA = "data"
    ANCILLARY = "ancillary"


class PlaceKind(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    ANCILLARY = "ancillary"
    DATA_ANCILLARY = "data_ancillary"


@dataclass(frozen=True)
class QToken:
    """A named token: its kind, a ``TokenKind``, and its initial quantum payload.

    ``address`` pins an ancillary token to a basis selector value; it must
    match the payload's basis index.  Payload evolution lives in markings.
    """

    id: str
    kind: TokenKind
    payload: StateVector
    address: int | None = None

    def __post_init__(self):
        if type(self.kind) is not TokenKind:
            raise ModelError(f"token {self.id}: kind {self.kind!r} is not a TokenKind")
        if type(self.payload) is not StateVector:
            raise ModelError(f"token {self.id}: payload of type {type(self.payload).__name__} "
                             "is not a StateVector")
        if self.address is not None:
            if type(self.address) is not int:
                raise ModelError(f"token {self.id}: address {self.address!r} is not an int")
            if self.kind is not TokenKind.ANCILLARY:
                raise ModelError(f"token {self.id}: only ancillary tokens carry addresses")
            if not self.payload.is_basis_state():
                raise ModelError(
                    f"token {self.id}: address requires a basis-state payload, "
                    "superposed selectors are not supported"
                )
            if self.payload.basis_index() != self.address:
                raise ModelError(
                    f"token {self.id}: address {self.address} disagrees with payload "
                    f"|{self.payload.basis_label()}>"
                )


@dataclass(frozen=True)
class Place:
    id: str
    kind: PlaceKind


@dataclass(frozen=True)
class Arc:
    """Labeled connection between a place and a transition.

    An input arc takes one entry per firing; inhibitor arcs demand an empty
    place.  The engine reads ``place`` and ``label``; ``transition`` and
    ``direction`` ("in" or "out") only describe the arc.
    """

    place: str
    transition: str
    direction: str
    label: str


@dataclass(frozen=True)
class PairRoute:
    """Destination for a consumed pair entry: data one way, ancillary the other."""

    data_to: str
    ancillary_to: str


@dataclass(frozen=True)
class Transition:
    """A quantum event: consume, optionally transform, deposit.

    ``routing`` maps each input-arc label to a destination place (or a
    ``PairRoute`` when the arc consumes fused pair entries).  ``gate`` acts
    on the concatenated data payloads in consumption order, first token on
    the high-order qubits.  ``address_guard`` restricts enabling to markings
    whose selector-supply head token carries a matching (or free) address.
    """

    id: str
    input_arcs: tuple[Arc, ...]
    output_arcs: tuple[Arc, ...]
    routing: dict[str, str | PairRoute]
    inhibitor_arcs: tuple[Arc, ...] = ()
    gate: tuple[GateOp, ...] = ()
    address_guard: int | None = None


def _destinations(dest: str | PairRoute) -> tuple[str, ...]:
    """The places a routing entry sends tokens to."""
    return (dest.data_to, dest.ancillary_to) if isinstance(dest, PairRoute) else (dest,)


def _tid_key(tid: str) -> tuple[str, int]:
    m = re.match(r"^(.*?)(\d*)$", tid)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


class _Plan(NamedTuple):
    """A transition compiled for firing, its places as indices into ``QPNet.place_ids``.

    ``guard`` is (selector supply, guard value, position of the supply among
    the inputs).  ``routes`` give per input the place its entry goes to, or
    the (data place, ancillary place) that split a pair entry; ``staging``
    are the destinations where a pair arriving together fuses.  A ``blind``
    plan has only plain routes and no staging destination, so its deposits
    do not depend on token kinds.  ``layouts`` memoizes ``_layout``, which
    reads nothing of a net's tokens, so nets of one shape share it.
    """

    tid: str
    inputs: tuple[int, ...]
    inhibitors: tuple[int, ...]
    guard: tuple[int, int, int] | None
    routes: tuple[int | tuple[int, int], ...]
    staging: frozenset[int]
    blind: bool
    gate: tuple[GateOp, ...]
    layouts: dict


def _guard_relevant(plans: list[_Plan]) -> frozenset[int]:
    """Places whose tokens' addresses and widths can reach a guard.

    The selector supply places, closed under: some plan routes an input's
    entry from this place into a guard-relevant place.
    """
    relevant = {plan.guard[0] for plan in plans if plan.guard is not None}
    grew = True
    while grew:
        grew = False
        for plan in plans:
            for src, route in zip(plan.inputs, plan.routes):
                targets = (route,) if type(route) is int else route
                if src not in relevant and not relevant.isdisjoint(targets):
                    relevant.add(src)
                    grew = True
    return frozenset(relevant)


class _Shape:
    """A net's structure, checked and compiled: places, transitions, firing plans.

    It holds nothing of a net's tokens, so nets of one structure can share
    one shape (the buffer builders keep one per shape); ``QPNet`` compiles
    its own from its places and transitions.
    """

    def __init__(self, places, transitions):
        self.places: tuple[Place, ...] = tuple(places)
        self.transitions: tuple[Transition, ...] = tuple(transitions)
        # Markings hold their queues in this order; plans index into it.
        self.place_ids: tuple[str, ...] = tuple(p.id for p in self.places)
        self.index = {pid: i for i, pid in enumerate(self.place_ids)}
        if len(self.index) != len(self.places):
            raise ModelError("duplicate place ids")
        if len({t.id for t in self.transitions}) != len(self.transitions):
            raise ModelError("duplicate transition ids")
        plans = [self._compile(t) for t in self.transitions]
        self.relevant = _guard_relevant(plans)
        self.plans = {plan.tid: plan for plan in plans}
        self.gated = any(plan.gate for plan in plans)
        # enabled_transitions and run's drains scan plans in this order.
        self.ordered = tuple(self.plans[tid] for tid in sorted(self.plans, key=_tid_key))

    def _compile(self, t: Transition) -> _Plan:
        """Check a transition's wiring and compile it into its plan."""
        index = self.index
        for arc in t.input_arcs + t.output_arcs + t.inhibitor_arcs:
            if arc.place not in index:
                raise ModelError(f"transition {t.id}: unknown place {arc.place!r}")
        labels = [arc.label for arc in t.input_arcs]
        if len(set(labels)) != len(labels):
            raise ModelError(f"transition {t.id}: duplicate input arc labels")
        inputs = tuple(index[arc.place] for arc in t.input_arcs)
        if len(set(inputs)) != len(inputs):
            raise ModelError(f"transition {t.id}: two input arcs from one place")
        if set(t.routing) != set(labels):
            raise ModelError(f"transition {t.id}: routing must cover exactly the input arc labels")
        out_places = {arc.place for arc in t.output_arcs}
        routes, staging = [], set()
        for label in labels:
            dests = _destinations(t.routing[label])
            for pid in dests:
                if pid not in out_places:
                    raise ModelError(
                        f"transition {t.id}: routing of {label!r} targets {pid!r}, "
                        "which is not an output-arc place"
                    )
            route = tuple(index[pid] for pid in dests)
            routes.append(route if len(route) == 2 else route[0])
            staging.update(i for i in route if self.places[i].kind is PlaceKind.DATA_ANCILLARY)
        position = next((n for n, i in enumerate(inputs)
                         if self.places[i].kind is PlaceKind.ANCILLARY), None)
        if t.address_guard is not None and position is None:
            raise ModelError(f"transition {t.id}: an address guard needs an ancillary input place")
        blind = not staging and all(type(route) is int for route in routes)
        return _Plan(t.id, inputs, tuple(index[arc.place] for arc in t.inhibitor_arcs),
                     None if t.address_guard is None
                     else (inputs[position], t.address_guard, position),
                     tuple(routes), frozenset(staging), blind, t.gate, {})

    @cached_property
    def guard_map(self) -> dict[int, str]:
        out: dict[int, str] = {}
        for t in self.transitions:
            if t.address_guard is None:
                continue
            if t.address_guard in out:
                raise ModelError(
                    f"guard value {t.address_guard} is used by both "
                    f"{out[t.address_guard]} and {t.id}"
                )
            out[t.address_guard] = t.id
        return out


def _token_table(tokens) -> dict[str, QToken]:
    """Token id to token, in the given order; a repeated id is a ``ModelError``."""
    tokens = list(tokens)
    table = {tok.id: tok for tok in tokens}
    if len(table) != len(tokens):
        seen: set[str] = set()
        for tok in tokens:
            if tok.id in seen:
                raise ModelError(f"duplicate token id {tok.id!r}")
            seen.add(tok.id)
    return table


class QPNet:
    """A net: its shape (places, transitions and their plans) and its tokens."""

    def __init__(self, places, transitions, tokens):
        tokens = _token_table(tokens)  # a token fault is reported before a wiring fault
        self._adopt(_Shape(places, transitions), tokens)

    @classmethod
    def _of(cls, shape: _Shape, tokens) -> "QPNet":
        """A net of an already compiled ``shape``, its tokens checked as ``QPNet`` checks them."""
        net = object.__new__(cls)
        net._adopt(shape, _token_table(tokens))
        return net

    def _adopt(self, shape: _Shape, tokens: dict[str, QToken]):
        self._shape = shape
        self.places, self.transitions = shape.places, shape.transitions
        self.place_ids, self._index = shape.place_ids, shape.index
        self._plans, self._ordered = shape.plans, shape.ordered
        self._relevant, self._gated = shape.relevant, shape.gated
        self.tokens = tokens
        # Enumeration's token classes: records by id, ids by tag (see
        # ``_class``); and per transition, ``_step``'s memo of the classes
        # it deposits, keyed on consumed entries as class ids.
        self._classes: list[tuple[bool, int | None, StateVector]] = []
        self._class_ids: dict = {}
        self._steps: dict[str, dict] = {tid: {} for tid in shape.plans}

    def place(self, pid: str) -> Place:
        try:
            return self.places[self._index[pid]]
        except KeyError:
            raise ModelError(f"unknown place {pid!r}") from None

    def _plan(self, tid: str) -> _Plan:
        try:
            return self._plans[tid]
        except KeyError:
            raise ModelError(f"unknown transition {tid!r}") from None

    def _is_output_side(self, plan: _Plan) -> bool:
        """True when every input place is a data/ancillary staging place."""
        return all(self.places[i].kind is PlaceKind.DATA_ANCILLARY for i in plan.inputs)

    @cached_property
    def token_is_data(self) -> dict[str, bool]:
        """Token id to whether it is a data token (read without hashing kinds)."""
        return {tok.id: tok.kind is TokenKind.DATA for tok in self.tokens.values()}

    @property
    def guard_map(self) -> dict[int, str]:
        """Guard value to transition id; requires guard values to be unique.

        Shared by every caller and every net of the shape, which must not
        mutate it.
        """
        return self._shape.guard_map

    def initial_marking(self, assignment: dict[str, list[str]]) -> "Marking":
        """Marking at t=0 with each listed token queued singly, in order.

        The marking comes validated against this net, its tables in
        token-id order.  The assignment is checked in bulk; only a faulty
        one is walked token by token, to name its first fault.
        """
        tokens = self.tokens
        placed = [tok for toks in assignment.values() for tok in toks]
        if not (len(placed) == len(tokens) and tokens.keys() == set(placed)
                and self._index.keys() >= assignment.keys()):
            seen: set[str] = set()
            for pid, toks in assignment.items():
                self.place(pid)
                for tok in toks:
                    if tok not in tokens:
                        raise ModelError(f"unknown token {tok!r}")
                    if tok in seen:
                        raise ModelError(f"token {tok!r} assigned to more than one place")
                    seen.add(tok)
            raise ModelError(f"tokens never placed: {sorted(tokens.keys() - seen)}")
        queues = dict.fromkeys(self.place_ids, ())
        for pid, toks in assignment.items():
            queues[pid] = tuple([(tok,) for tok in toks])
        held = [[list(entries), 0, len(entries), entries] for entries in queues.values()]
        order = [tokens[tok] for tok in sorted(tokens)]
        marking = object.__new__(Marking)
        marking._fill(self.place_ids, held, {tok.id: tok.payload for tok in order},
                      {tok.id: tok.address for tok in order}, 0, self)
        return marking


# A queue is ``[slots, start, end, entries]``: the window [start, end) of a
# slot list shared by the queues derived from one another, and its entries
# once built.  Lists only grow at their end, so a window widens in place when
# its next slot is past the end or already holds the same entry, and is
# copied otherwise: along a line of firings and unfirings, all four end
# operations are O(1).
Queue = list


def _entries(queue: Queue) -> tuple[Entry, ...]:
    entries = queue[3]
    if entries is None:
        slots, start, end, _ = queue
        entries = queue[3] = tuple(slots[start:end])
    return entries


def _push_tail(queue: Queue, entry: Entry) -> Queue:
    slots, start, end, _ = queue
    if end == len(slots):
        slots.append(entry)
    elif slots[end] != entry:
        slots = slots[start:end] + [entry]
        return [slots, 0, len(slots), None]
    return [slots, start, end + 1, None]


def _push_head(queue: Queue, entry: Entry) -> Queue:
    slots, start, end, _ = queue
    if start and slots[start - 1] == entry:
        return [slots, start - 1, end, None]
    slots = [entry] + slots[start:end]
    return [slots, 0, len(slots), None]


def _in_token_order(table) -> dict:
    """A copy of ``table`` with its keys in sorted order; tables often come sorted already."""
    keys = sorted(table)
    return dict(table) if keys == list(table) else {key: table[key] for key in keys}


class Marking:
    """Immutable snapshot: queue contents, payload table, addresses, time.

    Queues are held as a list aligned with the ``place_ids`` tuple, which a
    net's firings accept only in the net's own place order.  A marking
    derived by ``fire`` or ``unfire`` shares with its parent that tuple,
    every queue the firing left alone, and the payload and address tables
    unless the firing changed them.  Tables are held in token-id order, so
    the content key needs no sorting.
    """

    __slots__ = ("_place_ids", "_queues", "_payloads", "_addresses", "_time", "_net")

    def __init__(self, queues, payloads, addresses, time):
        held: list[Queue] = []
        tokens: list[str] = []
        for entries in queues.values():
            entries = tuple(entries)
            tokens.extend(chain.from_iterable(entries))
            held.append([list(entries), 0, len(entries), entries])
        if len(set(tokens)) != len(tokens):
            seen: set[str] = set()
            for tok in tokens:
                if tok in seen:
                    raise ModelError(f"token {tok!r} appears in more than one place")
                seen.add(tok)
        self._fill(tuple(queues), held, _in_token_order(payloads),
                   _in_token_order(addresses), time, None)

    def _fill(self, place_ids, queues, payloads, addresses, time, net):
        self._place_ids, self._queues = place_ids, queues
        self._payloads, self._addresses = payloads, addresses
        self._time = time
        self._net = net  # the net this marking was last validated against

    def _derive(self, queues, payloads, addresses, time) -> "Marking":
        """Successor built by a firing step on this validated marking; it conserves the tokens."""
        child = object.__new__(Marking)
        child._fill(self._place_ids, queues, payloads, addresses, time, self._net)
        return child

    def _queue(self, pid: str) -> Queue:
        try:
            return self._queues[self._place_ids.index(pid)]
        except ValueError:
            raise ModelError(f"unknown place {pid!r}") from None

    @property
    def time(self) -> int:
        return self._time

    @property
    def place_ids(self) -> tuple[str, ...]:
        return self._place_ids

    @property
    def queues(self) -> MappingProxyType:
        """Read-only view: place id to its tuple of entries, in place order."""
        return MappingProxyType(dict(zip(self._place_ids, map(_entries, self._queues))))

    @property
    def payloads(self) -> MappingProxyType:
        """Read-only view: token id to payload, in token-id order."""
        return MappingProxyType(self._payloads)

    @property
    def addresses(self) -> MappingProxyType:
        """Read-only view: token id to address (``None`` when free)."""
        return MappingProxyType(self._addresses)

    def entries(self, pid: str) -> tuple[Entry, ...]:
        return _entries(self._queue(pid))

    def entry_count(self, pid: str) -> int:
        _, start, end, _ = self._queue(pid)
        return end - start

    def token_count(self, pid: str) -> int:
        return sum(map(len, self.entries(pid)))

    def tokens_in(self, pid: str) -> tuple[str, ...]:
        return tuple(tok for entry in self.entries(pid) for tok in entry)

    def payload(self, tok: str) -> StateVector:
        return self._payloads[tok]

    def address(self, tok: str) -> int | None:
        return self._addresses[tok]

    def counts(self) -> dict[str, int]:
        return {pid: sum(map(len, _entries(q))) for pid, q in zip(self._place_ids, self._queues)}

    def key(self) -> tuple:
        """Hashable content key (time excluded): queues, addresses and payloads."""
        payloads = self._payloads
        return (
            tuple(zip(self._place_ids, map(_entries, self._queues))),
            tuple((t, -1 if a is None else a) for t, a in self._addresses.items()),
            tuple(zip(payloads, map(StateVector.amplitude_bytes, payloads.values()))),
        )

    def __eq__(self, other):
        if not isinstance(other, Marking):
            return NotImplemented
        return self.time == other.time and self.key() == other.key()

    def __hash__(self):
        return hash((self.time, self.key()))

    def validate(self, net: QPNet):
        """Check the marking holds the net's places, in its order, and its tokens.

        Its payload and address tables must hold exactly those tokens.
        """
        if self._net is net:
            return
        if self._place_ids != net.place_ids:
            raise ModelError("marking places disagree with the net")
        tokens = {tok for queue in self._queues for entry in _entries(queue) for tok in entry}
        if tokens != net.tokens.keys():
            raise ModelError("marking tokens disagree with the net")
        if self._payloads.keys() != tokens or self._addresses.keys() != tokens:
            raise ModelError("marking payloads and addresses must cover exactly its tokens")
        self._net = net


_new = tuple.__new__  # a record from its field tuple, skipping the constructor's frame


class TokenMove(NamedTuple):
    """One token's role in a firing: where it was/went and its payload there."""

    token: str
    place: str
    payload: StateVector
    address: int | None


class FiringEvent(NamedTuple):
    """One transition firing.

    ``consumed`` lists tokens in consumption order with pre-firing payloads;
    ``produced`` lists them in deposit order with post-firing payloads.  The
    entry-size tuples record how consecutive tokens grouped into queue
    entries, so the firing can be unwound exactly.
    """

    time: int
    transition: str
    consumed: tuple[TokenMove, ...]
    produced: tuple[TokenMove, ...]
    consumed_entry_sizes: tuple[int, ...]
    produced_entry_sizes: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SkippedSelection:
    """A scheduler selection that could not fire and was passed over."""

    time: int
    transition: str | None
    reason: str


@dataclass(frozen=True)
class Trace:
    """Record of one run: what ``run`` returns and ``parse_trace`` rebuilds."""

    initial: Marking
    events: tuple[FiringEvent | SkippedSelection, ...]
    final: Marking

    def firings(self) -> tuple[FiringEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, FiringEvent))

    def firing_transitions(self) -> tuple[str, ...]:
        return tuple(e.transition for e in self.firings())

    @property
    def places(self) -> tuple[str, ...]:
        return self.initial.place_ids

    @cached_property
    def table(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(time, per-place token counts in ``places`` order): t=0, then one row per firing."""
        counts = self.initial.counts()  # in ``places`` order
        rows = [(0, tuple(counts.values()))]
        for event in self.firings():
            for _, place, _, _ in event.consumed:
                counts[place] -= 1
            for _, place, _, _ in event.produced:
                counts[place] += 1
            rows.append((event.time + 1, tuple(counts.values())))
        return tuple(rows)


def _is_enabled(plan: _Plan, queues: list[Queue], addresses: dict) -> bool:
    for i in plan.inputs:
        _, start, end, _ = queues[i]
        if start == end:
            return False
    for i in plan.inhibitors:
        _, start, end, _ = queues[i]
        if start != end:
            return False
    if plan.guard is None:
        return True
    supply, value, _ = plan.guard
    slots, start, _, _ = queues[supply]
    addr = addresses[slots[start][0]]
    return addr is None or addr == value


def enabled_transitions(net: QPNet, marking: Marking) -> list[str]:
    """Ids of all currently enabled transitions, ordered by id."""
    marking.validate(net)
    queues, addresses = marking._queues, marking._addresses
    return [plan.tid for plan in net._ordered if _is_enabled(plan, queues, addresses)]


def _split_product(state: StateVector, widths: list[int]) -> list[StateVector]:
    """Factor a joint state into per-token payloads of the given widths.

    The first width owns the high-order qubits.  Basis states split exactly;
    separable non-basis states split via SVD.  An entangled joint state
    cannot be attributed to individual tokens and is rejected.
    """
    if len(widths) == 1:
        return [state]
    if state.is_basis_state():
        index = state.basis_index()
        amp = state.amplitudes[index]
        parts: list[StateVector] = []
        rem = state.num_qubits
        for w in widths:
            rem -= w
            parts.append(basis_state_from_index(w, (index >> rem) & ((1 << w) - 1)))
        if amp != 1.0:  # carry any global phase on the last factor
            amps = parts[-1].amplitudes * amp
            parts[-1] = StateVector(widths[-1], amps)
        return parts
    head, rest = widths[0], sum(widths[1:])
    matrix = state.amplitudes.reshape(1 << head, 1 << rest)
    u, s, vh = np.linalg.svd(matrix)
    if len(s) > 1 and s[1] > 1e-9:
        raise ModelError("gate entangled the payloads across token boundaries")
    left = u[:, 0]
    right = vh[0] * s[0]
    pivot = left[np.argmax(np.abs(left))]
    phase = pivot / abs(pivot)
    left = left * np.conj(phase)
    right = right * phase
    return [StateVector(head, left)] + _split_product(
        StateVector(rest, right), widths[1:]
    )


# States are immutable, so every basis payload of one width and value can
# share one object (and its cached key bytes): materialized selectors here,
# default |0> payloads and selectors in the buffer builders.
shared_basis_state = lru_cache(maxsize=256)(basis_state_from_index)


def _gate_payloads(gate: tuple[GateOp, ...], payloads: list[StateVector]) -> list[StateVector]:
    """The data payloads, in consumption order, after ``gate`` acts on their product."""
    joint = apply_all(reduce(tensor, payloads), gate)
    return _split_product(joint, [p.num_qubits for p in payloads])


def _transform(plan: _Plan, sizes: tuple[int, ...], kinds: tuple[bool, ...] | None,
               addresses: list, payloads: list) -> int | None:
    """Apply ``plan``'s guard and gate to the consumed tokens' states, in place.

    ``sizes`` are the consumed entries' sizes, and ``kinds``, ``addresses``
    and ``payloads`` the consumed tokens' data flags and states, in
    consumption order; ``kinds`` is read only by a gate.  Consuming a free
    selector through a guard assigns the guard's basis value as its address
    and payload; the gate acts on the data payloads.  Returns the
    selector's input position where the guard does not fit its width.
    """
    if plan.guard is not None:
        _, value, position = plan.guard
        selector = sum(sizes[:position])
        if addresses[selector] is None:
            width = payloads[selector].num_qubits
            if value >= (1 << width):
                return position
            addresses[selector] = value
            payloads[selector] = shared_basis_state(width, value)
    if plan.gate:
        data = [p for p, is_data in enumerate(kinds) if is_data]
        if data:
            for p, state in zip(data, _gate_payloads(plan.gate, [payloads[p] for p in data])):
                payloads[p] = state
    return None


def _updated(table: dict, tokens: list[str], values: list) -> dict:
    """``table`` with ``tokens`` mapped to ``values``, copied only where one changes."""
    if all(table[tok] is value for tok, value in zip(tokens, values)):
        return table
    return {**table, **dict(zip(tokens, values))}


def _layout(plan: _Plan, sizes: tuple[int, ...], kinds: tuple[bool, ...] | None):
    """Where a firing of ``plan`` deposits the tokens it consumes, memoized on the plan.

    ``sizes`` are the consumed entries' sizes and ``kinds`` the consumed
    tokens' data flags, in consumption order; a ``blind`` plan does not
    read ``kinds``, which may then be None.  An entry on a plain route goes
    to its place one token per queue entry; a pair route splits a (data,
    ancillary) entry between its two places; a data token and an ancillary
    token that arrive alone together at a staging place fuse into one pair
    entry, data first.  Returns, per produced entry in deposit order, its
    place and the positions of its tokens among the consumed ones, and the
    produced entry sizes; or, where a pair route is given an entry that is
    not a (data, ancillary) pair, that input's position.
    """
    key = sizes if plan.blind else (sizes, kinds)
    layout = plan.layouts.get(key)
    if layout is not None:
        return layout
    deposits: dict[int, list[int]] = {}  # place to positions, places in first-use order
    start = 0
    for position, (size, route) in enumerate(zip(sizes, plan.routes)):
        held = range(start, start + size)
        start += size
        if type(route) is int:
            deposits.setdefault(route, []).extend(held)
        elif size != 2 or kinds[held[0]] == kinds[held[1]]:
            plan.layouts[key] = position
            return position
        else:
            for i, p in zip(route, held if kinds[held[0]] else held[::-1]):
                deposits.setdefault(i, []).append(p)
    entries = []
    for i, held in deposits.items():
        if i in plan.staging and len(held) == 2 and kinds[held[0]] != kinds[held[1]]:
            entries.append((i, tuple(held if kinds[held[0]] else held[::-1])))
        else:
            entries += [(i, (p,)) for p in held]
    layout = plan.layouts[key] = (tuple(entries), tuple(len(held) for _, held in entries))
    return layout


def fire(net: QPNet, marking: Marking, tid: str) -> tuple[Marking, FiringEvent]:
    """Fire a transition: consume head entries, transform, deposit, advance time."""
    marking.validate(net)
    return _fire(net, marking, net._plan(tid))


def _fire(net: QPNet, marking: Marking, plan: _Plan) -> tuple[Marking, FiringEvent]:
    """``fire`` on a marking already validated against ``net``."""
    queues, payloads, addresses = marking._queues, marking._payloads, marking._addresses
    if not _is_enabled(plan, queues, addresses):
        raise NotEnabledError(f"transition {plan.tid} cannot fire")

    # Successor state shares every queue and table the firing leaves alone.
    queues = list(queues)
    place_ids = net.place_ids
    entries, tokens, consumed = [], [], []
    for i in plan.inputs:
        slots, start, end, _ = queues[i]
        entry = slots[start]
        entries.append(entry)
        tokens += entry
        queues[i] = [slots, start + 1, end, None]
        pid = place_ids[i]
        for tok in entry:
            consumed.append(_new(TokenMove, (tok, pid, payloads[tok], addresses[tok])))

    sizes = tuple(map(len, entries))
    is_data = net.token_is_data
    kinds = None if plan.blind and not plan.gate else tuple([is_data[tok] for tok in tokens])
    if plan.guard is not None or plan.gate:
        states = [payloads[tok] for tok in tokens]
        marks = [addresses[tok] for tok in tokens]
        position = _transform(plan, sizes, kinds, marks, states)
        if position is not None:
            selector = entries[position][0]
            raise ModelError(f"guard {plan.guard[1]} does not fit selector {selector}'s "
                             f"{payloads[selector].num_qubits}-qubit payload")
        payloads, addresses = _updated(payloads, tokens, states), _updated(addresses, tokens, marks)
    layout = _layout(plan, sizes, kinds)
    if type(layout) is int:
        raise ModelError(f"transition {plan.tid}: pair routing needs a (data, ancillary) entry, "
                         f"got {entries[layout]}")
    deposits, produced_sizes = layout
    produced = []
    for i, held in deposits:
        entry = tuple([tokens[p] for p in held])
        queues[i] = _push_tail(queues[i], entry)
        pid = place_ids[i]
        for tok in entry:
            produced.append(_new(TokenMove, (tok, pid, payloads[tok], addresses[tok])))

    event = _new(FiringEvent, (marking.time, plan.tid, tuple(consumed), tuple(produced),
                               sizes, produced_sizes))
    return marking._derive(queues, payloads, addresses, marking.time + 1), event


# What a forward firing's event can differ in from the event it checks:
# its time and transition are the event's by construction.
_COMPARED = ("consumed moves", "produced moves", "consumed entry sizes", "produced entry sizes")


def unfire(net: QPNet, marking: Marking, event: FiringEvent) -> Marking:
    """Undo the most recent firing, restoring the pre-firing marking exactly.

    The rule: firing the event's transition from the restored marking
    makes this event and this marking.  A candidate marking can be built
    only when the event follows the marking's time, names a transition of
    the net, consumes and produces the same tokens, each once, in
    non-empty entries whose sizes add up, one consumed entry per input,
    and each produced entry sits at the tail of its first move's place.
    ``unfire`` then pops the produced entries off those tails, restores
    the consumed states and pushes the consumed entries back on the heads
    of the input places.  Firing forward from that candidate must give
    back the event, and the marking must hold the event's produced
    states; the queues then agree by construction.  Any other event
    raises ``ReversalError``.
    """
    marking.validate(net)
    time, tid, consumed, produced, consumed_sizes, produced_sizes = event
    if marking.time != time + 1:
        raise ReversalError(f"marking time {marking.time} does not follow event time {time}")
    plan = net._plans.get(tid)
    if plan is None:
        raise ReversalError(f"unknown transition {tid!r}")
    tokens = [m.token for m in consumed]
    produced_tokens = [m.token for m in produced]
    moved = set(tokens)
    if len(produced) != len(tokens) or moved.symmetric_difference(produced_tokens):
        raise ReversalError("event consumes and produces different tokens")
    if len(moved) != len(tokens):
        raise ReversalError("event moves a token twice")
    if sum(consumed_sizes) != len(consumed) or sum(produced_sizes) != len(produced):
        raise ReversalError("event entry sizes do not add up to its moves")
    if min(1, *consumed_sizes, *produced_sizes) < 1:
        raise ReversalError("event has an empty entry")
    if len(consumed_sizes) != len(plan.inputs):
        raise ReversalError(f"{tid} consumes one entry per input arc: "
                            f"{len(plan.inputs)}, not {len(consumed_sizes)}")

    # Pop the produced entries off the queue tails, last first.
    queues, payloads, addresses = list(marking._queues), marking._payloads, marking._addresses
    stop = len(produced)
    for size in reversed(produced_sizes):
        pid, entry = produced[stop - size].place, tuple(produced_tokens[stop - size:stop])
        stop -= size
        i = net._index.get(pid)
        slots, start, end, _ = queues[i] if i is not None else ((), 0, 0, None)
        if start == end or slots[end - 1] != entry:
            raise ReversalError(f"queue tail of {pid} does not match event entry {entry}")
        queues[i] = [slots, start, end - 1, None]

    # Restore the consumed states and push the consumed entries back on the heads.
    restored, reassigned = payloads, addresses
    for tok, _, payload, address in consumed:
        if restored[tok] is not payload:
            restored = {**restored, tok: payload}
        if reassigned[tok] != address:
            reassigned = {**reassigned, tok: address}
    start = 0
    for i, size in zip(plan.inputs, consumed_sizes):
        queues[i] = _push_head(queues[i], tuple(tokens[start:start + size]))
        start += size
    candidate = marking._derive(queues, restored, reassigned, time)

    try:
        _, made = _fire(net, candidate, plan)
    except QpnError as exc:
        raise ReversalError(f"{tid} does not make this event from the marking it restores: "
                            f"{exc}") from exc
    if made == event:
        for tok, _, payload, address in produced:
            held = payloads[tok]
            if held is not payload and held != payload or addresses[tok] != address:
                break
        else:
            return candidate
    differ = next((f"its {words} differ" for words, ours, theirs
                   in zip(_COMPARED, made[2:], event[2:]) if ours != theirs),
                  "the marking holds other produced states")
    raise ReversalError(f"{tid} does not make this event from the marking it restores: {differ}")


@dataclass(frozen=True)
class Scripted:
    """Fire a fixed sequence of transitions; a step that cannot fire is an error."""

    steps: tuple[str, ...]


@dataclass(frozen=True)
class AddressDriven:
    """Select guarded transitions by address, then drain unguarded ones.

    With a ``program``, each entry names the guard value to fire next; a
    selection whose transition is not enabled is skipped and recorded.
    Without a program, selections follow the head selector tokens' own
    addresses until none applies.  Afterwards the lowest-id enabled
    unguarded transition fires repeatedly until quiescence.
    """

    program: tuple[int, ...] | None = None


@dataclass(frozen=True)
class EagerOutputThenScript:
    """Like Scripted, but drain enabled output-side transitions between steps.

    ``on_blocked="skip"`` records a step that cannot fire instead of raising.
    """

    steps: tuple[str, ...]
    on_blocked: str = "error"


Scheduler = Scripted | AddressDriven | EagerOutputThenScript


def addresses_to_script(net: QPNet, addresses) -> tuple[str, ...]:
    """Translate an address program into the guarded transitions it selects."""
    guards = net.guard_map
    try:
        return tuple(guards[a] for a in addresses)
    except KeyError as exc:
        raise ModelError(f"no transition is guarded by address {exc.args[0]}") from None


def run(net: QPNet, marking: Marking, scheduler: Scheduler) -> Trace:
    """Drive the net with a scheduler and record the full trace."""
    marking.validate(net)
    events: list[FiringEvent | SkippedSelection] = []
    current = marking

    def enabled(plan: _Plan) -> bool:
        return _is_enabled(plan, current._queues, current._addresses)

    def fire_one(tid: str):
        nonlocal current
        current, event = fire(net, current, tid)
        events.append(event)

    def drain(candidates_filter):
        candidates = [plan for plan in net._ordered if candidates_filter(plan)]
        while (pick := next((plan for plan in candidates if enabled(plan)), None)) is not None:
            fire_one(pick.tid)

    def scripted_step(index: int, tid: str, on_blocked: str):
        if enabled(net._plan(tid)):
            fire_one(tid)
        elif on_blocked == "skip":
            events.append(SkippedSelection(current.time, tid, "not enabled"))
        else:
            raise NotEnabledError(f"scripted transition {tid} is not enabled", step=index)

    if isinstance(scheduler, Scripted):
        for i, tid in enumerate(scheduler.steps):
            scripted_step(i, tid, "error")
    elif isinstance(scheduler, EagerOutputThenScript):
        for i, tid in enumerate(scheduler.steps):
            drain(net._is_output_side)
            scripted_step(i, tid, scheduler.on_blocked)
        drain(net._is_output_side)
    elif isinstance(scheduler, AddressDriven):
        if scheduler.program is not None:
            guards = net.guard_map
            for a in scheduler.program:
                tid = guards.get(a)
                if tid is not None and enabled(net._plans[tid]):
                    fire_one(tid)
                else:
                    events.append(
                        SkippedSelection(current.time, tid, f"selection {a} not firable")
                    )
        else:
            drain(lambda plan: plan.guard is not None)
        drain(lambda plan: plan.guard is None)
    else:
        raise ModelError(f"unknown scheduler {scheduler!r}")

    return Trace(initial=marking, events=tuple(events), final=current)


def distribution_signature(marking: Marking) -> tuple[tuple[str, int], ...]:
    """Per-place token counts, in the marking's place order."""
    return tuple(marking.counts().items())


def _push_run(runs: tuple, cls) -> tuple:
    """``runs`` (a run-length encoded queue) with one entry of ``cls`` appended."""
    if runs and runs[-1][0] == cls:
        return runs[:-1] + ((cls, runs[-1][1] + 1),)
    return runs + ((cls, 1),)


def _class(net: QPNet, place: int, kind: bool, address: int | None, payload: StateVector) -> int:
    """The id of the class of a token of ``kind`` (data or not) held in ``place``.

    A class keeps the token's kind; in a guard-relevant place, its address
    and payload width; and, for a data token in a net with gates, its
    payload amplitude bytes.  That is all that enabledness (queue emptiness,
    head selector addresses), ``fire`` (pair routing and staging fusion
    read kinds, the guard range check reads free-selector widths, gates
    read data payloads in consumption order) and signatures (token counts)
    read.  ``net._classes`` holds each class's record ``(kind, address,
    payload)``, the states of the first token seen in it; key stepping
    reads only what the class pins of them.
    """
    tag = (kind, address, payload.num_qubits) if place in net._relevant else kind
    if kind and net._gated:
        tag = (tag, payload.amplitude_bytes())
    cid = net._class_ids.get(tag)
    if cid is None:
        cid = net._class_ids[tag] = len(net._classes)
        net._classes.append((kind, address, payload))
    return cid


def _quotient_keys(net: QPNet, marking: Marking) -> tuple:
    """The count-space key of a validated ``marking``.

    The key holds, per place, the run-length encoded classes of its entries;
    an entry's class is the tuple of its tokens' class ids (see ``_class``).
    States with equal keys have equal outcomes, and ``_step`` derives a
    child's key from its parent's alone.
    """
    kinds, payloads, addresses = net.token_is_data, marking._payloads, marking._addresses
    return tuple(
        tuple((cls, len(list(group))) for cls, group in groupby(
            tuple([_class(net, i, kinds[tok], addresses[tok], payloads[tok]) for tok in entry])
            for entry in _entries(queue)))
        for i, queue in enumerate(marking._queues)
    )


def _key_enables(plan: _Plan, key: tuple, classes: list) -> bool:
    """``_is_enabled`` read off a key: ``classes`` holds the head selector's address."""
    for i in plan.inputs:
        if not key[i]:
            return False
    for i in plan.inhibitors:
        if key[i]:
            return False
    if plan.guard is None:
        return True
    supply, value, _ = plan.guard
    address = classes[key[supply][0][0][0]][1]
    return address is None or address == value


def _step(net: QPNet, key: tuple, plan: _Plan) -> tuple | None:
    """The key after firing ``plan``, mirroring ``fire`` on token classes.

    None where ``fire`` raises an error that names token ids, which the key
    does not hold: a guard too wide for its free selector, or a pair route
    given an entry that is not a (data, ancillary) pair.
    """
    key = list(key)
    entries = []
    for i in plan.inputs:
        runs = key[i]
        cls, count = runs[0]
        key[i] = ((cls, count - 1),) + runs[1:] if count > 1 else runs[1:]
        entries.append(cls)
    entries = tuple(entries)
    memo = net._steps[plan.tid]
    deposits = memo.get(entries)
    if deposits is None:
        deposits = memo[entries] = _deposited_classes(net, plan, entries)
    if type(deposits) is int:
        return None
    for i, entry in deposits:
        key[i] = _push_run(key[i], entry)
    return tuple(key)


def _deposited_classes(net: QPNet, plan: _Plan, entries: tuple) -> tuple | int:
    """Per produced entry, its place and class ids, as ``plan`` fires on consumed ``entries``.

    The guard and the gate act on the class records as ``fire`` acts on
    tokens, and each deposited token's class is taken again for its
    destination.  Where the guard does not fit or ``_layout`` refuses the
    entries, the input position they return.
    """
    records = [net._classes[cid] for entry in entries for cid in entry]
    sizes = tuple(map(len, entries))
    kinds = tuple([kind for kind, _, _ in records])
    addresses = [address for _, address, _ in records]
    payloads = [payload for _, _, payload in records]
    position = _transform(plan, sizes, kinds, addresses, payloads)
    if position is not None:
        return position
    layout = _layout(plan, sizes, kinds)
    if type(layout) is int:
        return layout
    return tuple((i, tuple([_class(net, i, kinds[p], addresses[p], payloads[p]) for p in held]))
                 for i, held in layout[0])


def enumerate_final_markings(
    net: QPNet, marking: Marking, step_bound: int = DEFAULT_STEP_BOUND
) -> dict[tuple[tuple[str, int], ...], tuple[str, ...]]:
    """All quiescent-state signatures reachable by maximal firing sequences.

    Performs an exhaustive depth-first exploration of every enabled choice,
    in id order, deduplicating outcomes by distribution signature.  The
    exploration runs in count space: a state is its ``_quotient_keys`` key,
    whose enabled transitions and signature are read off the key, and a
    firing is ``_step`` on the key, so no marking is built.  A finished
    state (final, or with every enabled firing explored) is not explored
    again; a state still open on the stack is, so a cycle runs into the
    step bound.  Each signature's witness is the firing sequence to the
    first final state found with it: a path found earlier is smaller in id
    order, so this is the witness a memo on full marking identity gives.
    Where a step meets an error that ``fire`` words with token ids, the
    firing sequence to it is replayed with ``fire`` from ``marking``, which
    raises that error.  The depth-first stack is an explicit list, so long
    firing chains need no interpreter recursion.  Raises ``ExplosionError``
    once more than ``step_bound`` firings have been explored.
    """
    marking.validate(net)
    places, plans, classes = net.place_ids, net._ordered, net._classes
    root = _quotient_keys(net, marking)
    seen: set[tuple] = set()  # keys of finished states
    found: dict[tuple, tuple[str, ...]] = {}  # signature to witness
    # One frame per state being expanded: [key, enabled plans, index of the
    # next plan to fire].
    stack: list[list] = []
    fired = 0

    def visit(key: tuple) -> None:
        """Record ``key``'s signature if it is final, or push a frame to expand it."""
        if key in seen:
            return
        enabled = [plan for plan in plans if _key_enables(plan, key, classes)]
        if enabled:
            stack.append([key, enabled, 0])
            return
        seen.add(key)
        sig = tuple(zip(places, [sum([len(cls) * n for cls, n in runs]) for runs in key]))
        if sig not in found:
            found[sig] = tuple([f[1][f[2] - 1].tid for f in stack])

    visit(root)
    while stack:
        frame = stack[-1]
        key, enabled, index = frame
        if index == len(enabled):
            stack.pop()
            seen.add(key)
            continue
        if fired >= step_bound:
            raise ExplosionError(step_bound, fired, len(seen), len(stack))
        fired += 1
        frame[2] = index + 1
        child = _step(net, key, enabled[index])
        if child is None:
            replayed = marking
            for f in stack:
                replayed, _ = fire(net, replayed, f[1][f[2] - 1].tid)
            raise AssertionError("replaying a failed step raised no error")
        visit(child)
    return dict(sorted(found.items()))
