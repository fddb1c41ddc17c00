"""Scenario and trace documents: strict JSON parsing and canonical emission.

A scenario document describes one buffer instance: its kind, sizing
parameters, data-token payloads (basis labels or explicit amplitude
pairs), an optional selector address program, and a scheduler choice.
A trace document records a run: initial and final markings, every firing
with per-token payloads, and a per-step place-count table.

Both formats are versioned JSON.  Emission is canonical (sorted keys,
fixed layout), so identical runs serialize to identical bytes.
Amplitudes serialize as [real, imaginary] pairs, never decimal strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .buffers import KINDS, BufferSpec
from .engine import (
    AddressDriven,
    EagerOutputThenScript,
    FiringEvent,
    Marking,
    Scheduler,
    Scripted,
    TokenMove,
    Trace,
    addresses_to_script,
)
from .errors import QpnError, ScenarioError
from .statevector import StateVector, basis_state

SCENARIO_SCHEMA = "qpn-scenario/1"
TRACE_SCHEMA = "qpn-trace/1"

SCHEDULERS = ("address-driven", "scripted", "eager-output-then-script")

_COMMON_FIELDS = {"schema", "kind", "payloads", "scheduler", "script", "seed", "enumerate"}
_KIND_FIELDS = {
    "siso": {"n", "m"},
    "simo": {"n", "m", "k", "addresses"},
    "miso": {"r", "m", "addresses"},
    "mimo": {"r", "outputs", "m", "input_addresses", "output_addresses"},
    "priority": {"r_low", "r_high", "m_low", "m_high"},
}
_REQUIRED_FIELDS = {
    "siso": ("n", "m"),
    "simo": ("n", "m", "k"),
    "miso": ("r", "m"),
    "mimo": ("r", "outputs", "m"),
    "priority": ("r_low", "r_high", "m_low", "m_high"),
}


@dataclass(frozen=True)
class ScenarioDoc:
    """Parsed scenario: buffer parameters plus run configuration."""

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
    scheduler: str = "address-driven"
    script: tuple[str, ...] | None = None
    seed: int = 0
    enumerate_outcomes: bool = False

    def to_buffer_spec(self) -> BufferSpec:
        return BufferSpec(
            kind=self.kind,
            n=self.n,
            m=self.m,
            k=self.k,
            r=self.r,
            outputs=self.outputs,
            r_low=self.r_low,
            r_high=self.r_high,
            m_low=self.m_low,
            m_high=self.m_high,
            payloads=dict(self.payloads),
            addresses=self.addresses,
            input_addresses=self.input_addresses,
            output_addresses=self.output_addresses,
        )

    def build_scheduler(self, net) -> Scheduler:
        if self.scheduler == "scripted":
            return Scripted(steps=self.script or ())
        if self.scheduler == "eager-output-then-script":
            if self.script is not None:
                return EagerOutputThenScript(steps=self.script)
            if self.addresses is None:
                raise ScenarioError(
                    "eager-output-then-script needs a script or an address program",
                    field="script",
                )
            return EagerOutputThenScript(
                steps=addresses_to_script(net, self.addresses), on_blocked="skip"
            )
        return AddressDriven(program=self.addresses)


def _int_field(value, name, minimum=0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ScenarioError(f"expected an integer >= {minimum}, got {value!r}", field=name)
    return value


def _int_list(value, name) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"expected a nonempty list of integers, got {value!r}", field=name)
    return tuple(_int_field(v, f"{name}[{i}]") for i, v in enumerate(value))


def _payload_value(value, name) -> StateVector:
    if isinstance(value, str):
        if not value or set(value) - {"0", "1"}:
            raise ScenarioError(f"basis label must be nonempty 0/1, got {value!r}", field=name)
        return basis_state(len(value), value)
    if isinstance(value, list):
        if len(value) < 2 or len(value) & (len(value) - 1):
            raise ScenarioError(
                f"amplitude list length must be a power of two >= 2, got {len(value)}",
                field=name,
            )
        amps = []
        for i, pair in enumerate(value):
            if not isinstance(pair, list) or len(pair) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
            ):
                raise ScenarioError(
                    f"amplitude {i} must be a [real, imaginary] pair", field=name
                )
            try:
                amps.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise ScenarioError(f"amplitude {i} is out of range", field=name) from None
        try:
            return StateVector(len(value).bit_length() - 1, amps)
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
    raise ScenarioError(
        f"payload must be a basis label or amplitude pair list, got {type(value).__name__}",
        field=name,
    )


def _check_addresses(program, choices, count, name):
    if program is None:
        return None
    if len(program) > count:
        raise ScenarioError(
            f"{len(program)} addresses for {count} selector tokens", field=name
        )
    for i, a in enumerate(program):
        if a >= choices:
            raise ScenarioError(
                f"address {a} selects among {choices} choices", field=f"{name}[{i}]"
            )
    return program


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse and validate a scenario document; unknown fields are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")

    schema = raw.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}", field="schema")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}", field="kind")

    allowed = _COMMON_FIELDS | _KIND_FIELDS[kind]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown field(s) for kind {kind!r}: {', '.join(unknown)}", field=unknown[0]
        )
    for name in _REQUIRED_FIELDS[kind]:
        if name not in raw:
            raise ScenarioError(f"kind {kind!r} needs {name!r}", field=name)

    ints = {
        name: _int_field(raw[name], name)
        for name in ("n", "m", "k", "outputs", "r_low", "r_high", "m_low", "m_high")
        if name in raw
    }
    r = _int_list(raw["r"], "r") if "r" in raw else None

    payloads: dict[str, StateVector] = {}
    if "payloads" in raw:
        if not isinstance(raw["payloads"], dict):
            raise ScenarioError("payloads must be an object", field="payloads")
        data_count = {
            "siso": ints.get("n", 0),
            "simo": ints.get("n", 0),
            "miso": sum(r or ()),
            "mimo": sum(r or ()),
            "priority": ints.get("r_low", 0) + ints.get("r_high", 0),
        }[kind]
        valid_ids = {f"d{i + 1}" for i in range(data_count)}
        for tok, value in raw["payloads"].items():
            if tok not in valid_ids:
                raise ScenarioError(
                    f"{tok!r} is not a data token of this instance", field=f"payloads.{tok}"
                )
            payloads[tok] = _payload_value(value, f"payloads.{tok}")

    addresses = _int_list(raw["addresses"], "addresses") if "addresses" in raw else None
    input_addresses = (
        _int_list(raw["input_addresses"], "input_addresses")
        if "input_addresses" in raw
        else None
    )
    output_addresses = (
        _int_list(raw["output_addresses"], "output_addresses")
        if "output_addresses" in raw
        else None
    )
    m = ints.get("m", 0)
    if kind == "simo":
        addresses = _check_addresses(addresses, ints.get("k", 0), m, "addresses")
    elif kind == "miso":
        addresses = _check_addresses(addresses, len(r or ()), m, "addresses")
    elif kind == "mimo":
        input_addresses = _check_addresses(
            input_addresses, len(r or ()), m, "input_addresses"
        )
        output_addresses = _check_addresses(
            output_addresses, ints.get("outputs", 0), m, "output_addresses"
        )

    scheduler = raw.get("scheduler", "address-driven")
    if scheduler not in SCHEDULERS:
        raise ScenarioError(
            f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}", field="scheduler"
        )
    script = None
    if "script" in raw:
        if scheduler == "address-driven":
            raise ScenarioError(
                "a script requires the scripted or eager-output-then-script scheduler",
                field="script",
            )
        if not isinstance(raw["script"], list) or not all(
            isinstance(s, str) for s in raw["script"]
        ):
            raise ScenarioError("script must be a list of transition ids", field="script")
        script = tuple(raw["script"])
    elif scheduler == "scripted":
        raise ScenarioError("the scripted scheduler needs a script", field="script")

    seed = _int_field(raw.get("seed", 0), "seed")
    enumerate_outcomes = raw.get("enumerate", False)
    if not isinstance(enumerate_outcomes, bool):
        raise ScenarioError("enumerate must be a boolean", field="enumerate")

    return ScenarioDoc(
        kind=kind,
        n=ints.get("n"),
        m=ints.get("m"),
        k=ints.get("k"),
        r=r,
        outputs=ints.get("outputs"),
        r_low=ints.get("r_low"),
        r_high=ints.get("r_high"),
        m_low=ints.get("m_low"),
        m_high=ints.get("m_high"),
        payloads=payloads,
        addresses=addresses,
        input_addresses=input_addresses,
        output_addresses=output_addresses,
        scheduler=scheduler,
        script=script,
        seed=seed,
        enumerate_outcomes=enumerate_outcomes,
    )


def _payload_doc(payload: StateVector) -> list[list[float]]:
    return [[a.real, a.imag] for a in payload.amplitudes.tolist()]


def emit_scenario(doc: ScenarioDoc) -> str:
    """Serialize a scenario document canonically; parse(emit(doc)) == doc."""
    out: dict = {"schema": SCENARIO_SCHEMA, "kind": doc.kind}
    for name in ("n", "m", "k", "outputs", "r_low", "r_high", "m_low", "m_high"):
        value = getattr(doc, name)
        if value is not None:
            out[name] = value
    if doc.r is not None:
        out["r"] = list(doc.r)
    if doc.payloads:
        out["payloads"] = {tok: _payload_doc(p) for tok, p in doc.payloads.items()}
    for name in ("addresses", "input_addresses", "output_addresses"):
        value = getattr(doc, name)
        if value is not None:
            out[name] = list(value)
    out["scheduler"] = doc.scheduler
    if doc.script is not None:
        out["script"] = list(doc.script)
    out["seed"] = doc.seed
    out["enumerate"] = doc.enumerate_outcomes
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


@dataclass(frozen=True)
class MarkingDoc:
    """Serializable marking snapshot."""

    time: int
    queues: dict[str, tuple[tuple[str, ...], ...]]
    payloads: dict[str, StateVector]
    addresses: dict[str, int | None]

    def counts(self) -> dict[str, int]:
        return {pid: sum(len(e) for e in entries) for pid, entries in self.queues.items()}


@dataclass(frozen=True)
class MoveDoc:
    token: str
    place: str
    payload: StateVector
    address: int | None


@dataclass(frozen=True)
class FiringDoc:
    time: int
    transition: str
    consumed: tuple[MoveDoc, ...]
    produced: tuple[MoveDoc, ...]
    consumed_entry_sizes: tuple[int, ...]
    produced_entry_sizes: tuple[int, ...]


@dataclass(frozen=True)
class SkipDoc:
    time: int
    transition: str | None
    reason: str


@dataclass(frozen=True)
class TraceDoc:
    """Serializable record of one run."""

    schema: str
    places: tuple[str, ...]
    initial: MarkingDoc
    events: tuple[FiringDoc | SkipDoc, ...]
    final: MarkingDoc
    table: tuple[tuple[int, tuple[int, ...]], ...]

    def firing_transitions(self) -> tuple[str, ...]:
        return tuple(e.transition for e in self.events if isinstance(e, FiringDoc))


def marking_to_doc(marking: Marking) -> MarkingDoc:
    return MarkingDoc(
        time=marking.time,
        queues={pid: marking.entries(pid) for pid in marking.place_ids},
        payloads={tok: marking.payload(tok) for pid in marking.place_ids
                  for tok in marking.tokens_in(pid)},
        addresses={tok: marking.address(tok) for pid in marking.place_ids
                   for tok in marking.tokens_in(pid)},
    )


def _move_to_doc(move: TokenMove) -> MoveDoc:
    return MoveDoc(move.token, move.place, move.payload, move.address)


def trace_to_doc(trace: Trace) -> TraceDoc:
    """Structure a trace for serialization, including the place-count table."""
    places = trace.initial.place_ids
    events: list[FiringDoc | SkipDoc] = []
    counts = dict(trace.initial.counts())
    table = [(0, tuple(counts[p] for p in places))]
    for event in trace.events:
        if not isinstance(event, FiringEvent):
            events.append(SkipDoc(event.time, event.transition, event.reason))
            continue
        events.append(
            FiringDoc(
                time=event.time,
                transition=event.transition,
                consumed=tuple(_move_to_doc(m) for m in event.consumed),
                produced=tuple(_move_to_doc(m) for m in event.produced),
                consumed_entry_sizes=event.consumed_entry_sizes,
                produced_entry_sizes=event.produced_entry_sizes,
            )
        )
        for move in event.consumed:
            counts[move.place] -= 1
        for move in event.produced:
            counts[move.place] += 1
        table.append((event.time + 1, tuple(counts[p] for p in places)))
    return TraceDoc(
        schema=TRACE_SCHEMA,
        places=places,
        initial=marking_to_doc(trace.initial),
        events=tuple(events),
        final=marking_to_doc(trace.final),
        table=tuple(table),
    )


def _marking_json(doc: MarkingDoc) -> dict:
    return {
        "time": doc.time,
        "queues": {pid: [list(e) for e in entries] for pid, entries in doc.queues.items()},
        "payloads": {tok: _payload_doc(p) for tok, p in doc.payloads.items()},
        "addresses": dict(doc.addresses),
    }


def _event_json(event: FiringDoc | SkipDoc) -> dict:
    if isinstance(event, SkipDoc):
        return {
            "type": "skipped",
            "time": event.time,
            "transition": event.transition,
            "reason": event.reason,
        }
    return {
        "type": "firing",
        "time": event.time,
        "transition": event.transition,
        "consumed": [
            {
                "token": m.token,
                "place": m.place,
                "payload": _payload_doc(m.payload),
                "address": m.address,
            }
            for m in event.consumed
        ],
        "produced": [
            {
                "token": m.token,
                "place": m.place,
                "payload": _payload_doc(m.payload),
                "address": m.address,
            }
            for m in event.produced
        ],
        "consumed_entry_sizes": list(event.consumed_entry_sizes),
        "produced_entry_sizes": list(event.produced_entry_sizes),
    }


def emit_trace(trace: Trace) -> str:
    """Serialize a run canonically; identical runs give identical bytes."""
    doc = trace_to_doc(trace)
    out = {
        "schema": doc.schema,
        "places": list(doc.places),
        "initial": _marking_json(doc.initial),
        "events": [_event_json(e) for e in doc.events],
        "final": _marking_json(doc.final),
        "table": [{"time": t, "counts": list(row)} for t, row in doc.table],
    }
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


def _payload_from_doc(value, name, seen: dict) -> StateVector:
    """``_payload_value`` that reuses the states a trace already validated.

    ``seen`` is keyed on the value's type and text: a label as it is, an
    amplitude list by its ``str``, which keeps apart what tuple equality
    would merge (``-0.0`` and ``0.0``, ``true`` and ``1``).  Only valid
    payloads enter, so a bad one raises wherever it occurs first.
    """
    key = (type(value), value if isinstance(value, str) else str(value))
    state = seen.get(key)
    if state is None:
        state = seen[key] = _payload_value(value, name)
    return state


def _object(value, name) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"expected an object, got {type(value).__name__}", field=name)
    return value


def _marking_from_json(raw, name: str, seen: dict) -> MarkingDoc:
    raw = _object(raw, name)
    try:
        queues = {
            pid: tuple(tuple(entry) for entry in entries)
            for pid, entries in _object(raw["queues"], f"{name}.queues").items()
        }
        payloads = {
            tok: _payload_from_doc(v, f"{name}.payloads.{tok}", seen)
            for tok, v in _object(raw["payloads"], f"{name}.payloads").items()
        }
        addresses = dict(_object(raw["addresses"], f"{name}.addresses"))
        return MarkingDoc(raw["time"], queues, payloads, addresses)
    except KeyError as exc:
        raise ScenarioError(f"marking misses key {exc.args[0]!r}", field=name) from exc


def _event_from_json(ev, name: str, seen: dict) -> FiringDoc | SkipDoc:
    ev = _object(ev, name)
    try:
        if ev.get("type") == "skipped":
            return SkipDoc(ev["time"], ev["transition"], ev["reason"])
        if ev.get("type") != "firing":
            raise ScenarioError(f"unknown event type {ev.get('type')!r}", field=name)
        moves = {}
        for side in ("consumed", "produced"):
            where = f"{name}.{side}"
            side_moves = []
            for m in ev[side]:
                m = _object(m, where)
                side_moves.append(MoveDoc(
                    m["token"], m["place"], _payload_from_doc(m["payload"], where, seen),
                    m["address"],
                ))
            moves[side] = tuple(side_moves)
        return FiringDoc(
            time=ev["time"],
            transition=ev["transition"],
            consumed=moves["consumed"],
            produced=moves["produced"],
            consumed_entry_sizes=tuple(ev["consumed_entry_sizes"]),
            produced_entry_sizes=tuple(ev["produced_entry_sizes"]),
        )
    except KeyError as exc:
        raise ScenarioError(f"event misses key {exc.args[0]!r}", field=name) from exc


def parse_trace(text: str) -> TraceDoc:
    """Parse a trace document back into its structured form."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(raw, dict) or raw.get("schema") != TRACE_SCHEMA:
        raise ScenarioError(f"expected schema {TRACE_SCHEMA!r}", field="schema")
    for name in ("places", "initial", "final"):
        if name not in raw:
            raise ScenarioError(f"trace misses key {name!r}", field=name)
    seen: dict[tuple, StateVector] = {}
    events = tuple(
        _event_from_json(ev, f"events[{i}]", seen) for i, ev in enumerate(raw.get("events", []))
    )
    table = []
    for i, row in enumerate(raw.get("table", [])):
        row = _object(row, f"table[{i}]")
        if "time" not in row or "counts" not in row:
            raise ScenarioError("table row needs time and counts", field=f"table[{i}]")
        table.append((row["time"], tuple(row["counts"])))
    return TraceDoc(
        schema=raw["schema"],
        places=tuple(raw["places"]),
        initial=_marking_from_json(raw["initial"], "initial", seen),
        events=events,
        final=_marking_from_json(raw["final"], "final", seen),
        table=tuple(table),
    )


def emit_marking_table(trace: Trace) -> str:
    """Text table: one row per time step, one token-count column per place."""
    doc = trace_to_doc(trace)
    headers = ["t"] + list(doc.places)
    rows = [[str(t)] + [str(c) for c in counts] for t, counts in doc.table]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
