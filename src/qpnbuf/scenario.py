"""Scenario and trace documents: strict JSON parsing and canonical emission.

A scenario document describes one buffer instance: its kind, sizing
parameters, data-token payloads (basis labels or explicit amplitude
pairs), an optional selector address program, and a scheduler choice.
It parses to a ``ScenarioDoc``, which is a ``BufferSpec`` plus those run
settings.

A trace document records a run: initial and final markings, every firing
with per-token payloads, and a per-step place-count table.  It is written
from the engine's ``Trace`` and parses back to one; the parser replays the
events on the initial queues and rejects a document that contradicts
itself.

Both formats are versioned JSON.  Emission is canonical (sorted keys,
fixed layout), so identical runs serialize to identical bytes; ``emit_json``
writes that layout directly, in the bytes ``json.dumps(..., sort_keys=True,
indent=1)`` gives.  Amplitudes serialize as [real, imaginary] pairs, never
decimal strings.
"""

from __future__ import annotations

import json
import marshal
from collections import deque
from dataclasses import dataclass, fields

from .buffers import KIND_PARAMS, KINDS, BufferSpec
from .engine import (
    AddressDriven,
    EagerOutputThenScript,
    FiringEvent,
    Marking,
    Scheduler,
    Scripted,
    SkippedSelection,
    TokenMove,
    Trace,
    addresses_to_script,
)
from .errors import ModelError, QpnError, ScenarioError
from .statevector import StateVector, basis_state

SCENARIO_SCHEMA = "qpn-scenario/1"
TRACE_SCHEMA = "qpn-trace/1"

SCHEDULERS = ("address-driven", "scripted", "eager-output-then-script")

_COMMON_FIELDS = {"schema", "kind", "payloads", "scheduler", "script", "seed", "enumerate"}
# Optional selector programs of each kind, each with the parameter that
# counts its choices (``r`` by its length); other kind fields are required.
_ADDRESS_FIELDS = {
    "simo": {"addresses": "k"},
    "miso": {"addresses": "r"},
    "mimo": {"input_addresses": "r", "output_addresses": "outputs"},
}


@dataclass(frozen=True)
class ScenarioDoc(BufferSpec):
    """Parsed scenario: the buffer spec plus its run configuration."""

    scheduler: str = "address-driven"
    script: tuple[str, ...] | None = None
    seed: int = 0
    enumerate_outcomes: bool = False

    def to_buffer_spec(self) -> BufferSpec:
        return BufferSpec(**{f.name: getattr(self, f.name) for f in fields(BufferSpec)})

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

    allowed = _COMMON_FIELDS | {*KIND_PARAMS[kind], *_ADDRESS_FIELDS.get(kind, {})}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown field(s) for kind {kind!r}: {', '.join(unknown)}", field=unknown[0]
        )
    for name in KIND_PARAMS[kind]:
        if name not in raw:
            raise ScenarioError(f"kind {kind!r} needs {name!r}", field=name)

    params = {
        name: _int_list(raw[name], name) if name == "r" else _int_field(raw[name], name)
        for name in KIND_PARAMS[kind]
    }

    payloads: dict[str, StateVector] = {}
    if "payloads" in raw:
        if not isinstance(raw["payloads"], dict):
            raise ScenarioError("payloads must be an object", field="payloads")
        data_count = (
            params["n"] if "n" in params
            else sum(params["r"]) if "r" in params
            else params["r_low"] + params["r_high"]
        )
        valid_ids = {f"d{i + 1}" for i in range(data_count)}
        for tok, value in raw["payloads"].items():
            if tok not in valid_ids:
                raise ScenarioError(
                    f"{tok!r} is not a data token of this instance", field=f"payloads.{tok}"
                )
            payloads[tok] = _payload_value(value, f"payloads.{tok}")

    programs = {}
    for name, counted in _ADDRESS_FIELDS.get(kind, {}).items():
        if name in raw:
            choices = len(params["r"]) if counted == "r" else params[counted]
            programs[name] = _check_addresses(
                _int_list(raw[name], name), choices, params["m"], name
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
        **params,
        **programs,
        payloads=payloads,
        scheduler=scheduler,
        script=script,
        seed=seed,
        enumerate_outcomes=enumerate_outcomes,
    )


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")
_SCALARS = {None: "null", True: "true", False: "false"}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# The text of each JSON scalar type, as the standard library's encoder writes it.
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: _SCALARS.__getitem__,
    type(None): _SCALARS.__getitem__,
}


def _payload_text(payload: StateVector, level: int) -> str:
    """A payload's [real, imaginary] pair list as it sits at nesting ``level``."""
    pair = "\n" + " " * (level + 1)
    num = "\n" + " " * (level + 2)
    pairs = [
        f"[{num}{_float_text(a.real)},{num}{_float_text(a.imag)}{pair}]"
        for a in payload.amplitudes.tolist()
    ]
    return f"[{pair}{f',{pair}'.join(pairs)}\n{' ' * level}]"


def emit_json(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=1)``, written directly.

    With an indent the standard library encodes in pure Python; this writes
    the same layout (sorted keys, one more space per level, ``[]``/``{}`` when
    empty) with the same string, int and float text.  ``doc`` is built of
    dicts with string keys, lists, tuples, str, int, float, bool and None, as
    every document here is; anything else raises ``TypeError``.  A
    ``StateVector`` stands for its [real, imaginary] pair list; payloads are
    shared objects, so each one's text is made once per nesting level and
    kept for this document.  So is each key set's sorted order with its key
    texts (a trace has a few key sets, each repeated thousands of times).
    """
    parts: list[str] = []
    write = parts.append
    payloads: dict[tuple[int, int], str] = {}
    orders: dict[tuple[str, ...], list[tuple[str, str]]] = {}
    levels: list[tuple[str, str, str, str]] = []  # inner, sep, "]" and "}" closings
    scalar = _SCALAR_TEXT.get

    def payload(value: StateVector, level: int) -> str:
        text = payloads[id(value), level] = _payload_text(value, level)
        return text

    def emit(value, level, prefix):
        """Write ``prefix`` and a container or payload; scalars inside are written in place."""
        cls = type(value)
        if cls is StateVector:
            write(prefix + (payloads.get((id(value), level)) or payload(value, level)))
            return
        if cls is not dict and cls is not list and cls is not tuple:
            text = scalar(cls)
            if text is None:
                raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
            write(prefix + text(value))
            return
        if not value:
            write(prefix + ("{}" if cls is dict else "[]"))
            return
        while len(levels) <= level:
            indent = "\n" + " " * len(levels)
            levels.append((indent + " ", "," + indent + " ", indent + "]", indent + "}"))
        inner, sep, close_list, close_dict = levels[level]
        if cls is dict:
            inner = prefix + "{" + inner
            keys = tuple(value)
            order = orders.get(keys)
            if order is None:  # _encode_str raises TypeError for a key that is not a str
                order = orders[keys] = [(key, _encode_str(key)) for key in sorted(keys)]
            for key, key_text in order:
                item = value[key]
                text = scalar(type(item))
                if text is not None:
                    write(f"{inner}{key_text}: {text(item)}")
                elif type(item) is StateVector:
                    text = payloads.get((id(item), level + 1)) or payload(item, level + 1)
                    write(f"{inner}{key_text}: {text}")
                else:
                    emit(item, level + 1, f"{inner}{key_text}: ")
                inner = sep
            write(close_dict)
        else:
            inner = prefix + "[" + inner
            for item in value:
                text = scalar(type(item))
                if text is None:
                    emit(item, level + 1, inner)
                else:
                    write(inner + text(item))
                inner = sep
            write(close_list)

    emit(doc, 0, "")
    return "".join(parts)


def emit_scenario(doc: ScenarioDoc) -> str:
    """Serialize a scenario document canonically; parse(emit(doc)) == doc."""
    out: dict = {"schema": SCENARIO_SCHEMA}
    for f in fields(BufferSpec):  # kind, sizing parameters, payloads, address programs
        value = getattr(doc, f.name)
        if f.name == "payloads":
            if value:
                out["payloads"] = dict(value)
        elif value is not None:
            out[f.name] = value
    out["scheduler"] = doc.scheduler
    if doc.script is not None:
        out["script"] = doc.script
    out["seed"] = doc.seed
    out["enumerate"] = doc.enumerate_outcomes
    return emit_json(out) + "\n"


def _marking_json(marking: Marking) -> dict:
    return {
        "time": marking.time,
        "queues": dict(marking.queues),
        "payloads": dict(marking.payloads),
        "addresses": dict(marking.addresses),
    }


def _move_json(move: TokenMove) -> dict:
    return {
        "token": move.token,
        "place": move.place,
        "payload": move.payload,
        "address": move.address,
    }


def _event_json(event: FiringEvent | SkippedSelection) -> dict:
    if isinstance(event, SkippedSelection):
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
        "consumed": [_move_json(m) for m in event.consumed],
        "produced": [_move_json(m) for m in event.produced],
        "consumed_entry_sizes": event.consumed_entry_sizes,
        "produced_entry_sizes": event.produced_entry_sizes,
    }


def emit_trace(trace: Trace) -> str:
    """Serialize a run canonically; identical runs give identical bytes."""
    out = {
        "schema": TRACE_SCHEMA,
        "places": trace.places,
        "initial": _marking_json(trace.initial),
        "events": [_event_json(e) for e in trace.events],
        "final": _marking_json(trace.final),
        "table": [{"time": t, "counts": row} for t, row in trace.table],
    }
    return emit_json(out) + "\n"


def _payload_from_doc(value, seen: dict, where: str, tok: str | None = None) -> StateVector:
    """``_payload_value`` that reuses the states a trace already validated.

    An invalid payload is reported at field ``where``, or ``where.tok``.

    ``seen`` is keyed on a label as it is and on anything else by its
    ``marshal`` bytes, which hold each number's type and binary value and
    so keep apart what equality would merge (``-0.0`` and ``0.0``, ``true``
    and ``1``).  Only valid payloads enter, so a bad one raises wherever it
    occurs first.
    """
    key = value if type(value) is str else marshal.dumps(value, 2)
    state = seen.get(key)
    if state is None:
        state = seen[key] = _payload_value(value, where if tok is None else f"{where}.{tok}")
    return state


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise ScenarioError(
            f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}", field=name
        )
    return value


def _strings(value, name) -> tuple[str, ...]:
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise ScenarioError("expected a list of strings", field=name)
    return tuple(value)


def _ints(value, name, minimum=0) -> tuple[int, ...]:
    # type(v) is int also keeps out bools, which JSON true/false parse to.
    if (type(value) is not list or not set(map(type, value)) <= {int}
            or min(value, default=minimum) < minimum):
        raise ScenarioError(f"expected a list of integers >= {minimum}", field=name)
    return tuple(value)


def _is_address(value) -> bool:
    return value is None or type(value) is int and value >= 0


def _marking_from_json(raw, name: str, places: tuple[str, ...], seen: dict) -> Marking:
    """A trace marking, its queues in the document's ``places`` order."""
    raw = _expect(raw, dict, name)
    try:
        where = f"{name}.queues"
        raw_queues = _expect(raw["queues"], dict, where)
        if sorted(raw_queues) != sorted(places):
            raise ScenarioError("queue places differ from the trace's places", field=where)
        queues = {}
        for pid in places:
            field = f"{where}.{pid}"
            queues[pid] = tuple(
                _strings(entry, field) for entry in _expect(raw_queues[pid], list, field)
            )
        where = f"{name}.payloads"
        payloads = {
            tok: _payload_from_doc(v, seen, where, tok)
            for tok, v in _expect(raw["payloads"], dict, where).items()
        }
        addresses = _expect(raw["addresses"], dict, f"{name}.addresses")
        if not all(map(_is_address, addresses.values())):
            raise ScenarioError(
                "addresses must be integers >= 0 or null", field=f"{name}.addresses"
            )
        tokens = {tok for entries in queues.values() for entry in entries for tok in entry}
        if payloads.keys() != tokens or addresses.keys() != tokens:
            raise ScenarioError("payloads and addresses must cover the queued tokens", field=name)
        return Marking(queues, payloads, addresses, _int_field(raw["time"], f"{name}.time"))
    except KeyError as exc:
        raise ScenarioError(f"marking misses key {exc.args[0]!r}", field=name) from exc
    except ModelError as exc:
        raise ScenarioError(str(exc), field=name) from exc


def _event_from_json(ev, name: str, seen: dict):
    """A trace event, read field by field; ``_replay`` checks its moves."""
    ev = _expect(ev, dict, name)
    try:
        time = _int_field(ev["time"], f"{name}.time")
        if ev.get("type") == "skipped":
            tid = ev["transition"]
            return SkippedSelection(
                time, None if tid is None else _expect(tid, str, f"{name}.transition"),
                _expect(ev["reason"], str, f"{name}.reason"),
            )
        if ev.get("type") != "firing":
            raise ScenarioError(f"unknown event type {ev.get('type')!r}", field=name)
        moves = []
        for side in ("consumed", "produced"):
            where, side_moves = f"{name}.{side}", []
            for m in _expect(ev[side], list, where):
                m = _expect(m, dict, where)
                token, place, address = m["token"], m["place"], m["address"]
                if type(token) is not str or type(place) is not str or not _is_address(address):
                    raise ScenarioError(
                        "a move needs a token id, a place id and an address", field=where
                    )
                payload = _payload_from_doc(m["payload"], seen, where)
                side_moves.append(TokenMove(token, place, payload, address))
            moves.append(tuple(side_moves))
        sizes = [_ints(ev[key], f"{name}.{key}", 1)
                 for key in ("consumed_entry_sizes", "produced_entry_sizes")]
        return FiringEvent(
            time, _expect(ev["transition"], str, f"{name}.transition"), *moves, *sizes
        )
    except KeyError as exc:
        raise ScenarioError(f"event misses key {exc.args[0]!r}", field=name) from exc


def _replay(trace: Trace):
    """Move the events' entries through the initial queues; they must end as ``final``'s.

    Each firing must produce the tokens it consumes, take each consumed
    entry from the head of its queue and put each produced one at the tail
    of a queue of the trace's places, the tokens of an entry sharing a place.
    """
    queues = {pid: deque(entries) for pid, entries in trace.initial.queues.items()}
    for i, event in enumerate(trace.events):
        if isinstance(event, SkippedSelection):
            continue
        name = f"events[{i}]"
        for side, moves, sizes in (("consumed", event.consumed, event.consumed_entry_sizes),
                                   ("produced", event.produced, event.produced_entry_sizes)):
            if sum(sizes) != len(moves):
                raise ScenarioError(
                    f"entry sizes add up to {sum(sizes)}, not {len(moves)} moves",
                    field=f"{name}.{side}_entry_sizes",
                )
        if sorted(m.token for m in event.consumed) != sorted(m.token for m in event.produced):
            raise ScenarioError("a firing must produce the tokens it consumes", field=name)
        for side, groups in (("consumed", event.consumed_entries()),
                             ("produced", event.produced_entries())):
            for group in groups:
                place, entry = group[0].place, tuple([m.token for m in group])
                queue = queues.get(place)
                if queue is None or len(group) > 1 and any(m.place != place for m in group):
                    raise ScenarioError(
                        f"entry {entry} is not in one of the trace's places",
                        field=f"{name}.{side}",
                    )
                if side == "produced":
                    queue.append(entry)
                elif queue and queue[0] == entry:
                    queue.popleft()
                else:
                    raise ScenarioError(
                        f"entry {entry} is not at the head of {place}", field=f"{name}.consumed"
                    )
    final = trace.final.queues
    if any(tuple(queue) != final[pid] for pid, queue in queues.items()):
        raise ScenarioError("final queues are not the ones the events leave", field="final")


def parse_trace(text: str) -> Trace:
    """Parse a trace document back into the run's ``Trace``.

    The document must agree with itself: each marking queues exactly the
    listed places, no token sits in two places, the events move entries
    from ``initial`` to exactly ``final``'s queues, and the count table is
    the one the events give.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(raw, dict) or raw.get("schema") != TRACE_SCHEMA:
        raise ScenarioError(f"expected schema {TRACE_SCHEMA!r}", field="schema")
    for name in ("places", "initial", "final", "table"):
        if name not in raw:
            raise ScenarioError(f"trace misses key {name!r}", field=name)
    places = _strings(raw["places"], "places")
    seen: dict[str | bytes, StateVector] = {}
    initial = _marking_from_json(raw["initial"], "initial", places, seen)
    events = tuple(
        _event_from_json(ev, f"events[{i}]", seen)
        for i, ev in enumerate(_expect(raw.get("events", []), list, "events"))
    )
    trace = Trace(initial, events, _marking_from_json(raw["final"], "final", places, seen))
    _replay(trace)
    table = []
    for i, row in enumerate(_expect(raw["table"], list, "table")):
        row = _expect(row, dict, f"table[{i}]")
        if "time" not in row or "counts" not in row:
            raise ScenarioError("table row needs time and counts", field=f"table[{i}]")
        table.append((_int_field(row["time"], f"table[{i}].time"),
                       _ints(row["counts"], f"table[{i}].counts")))
    if tuple(table) != trace.table:
        raise ScenarioError("table disagrees with the places and events", field="table")
    return trace


def emit_marking_table(trace: Trace) -> str:
    """Text table: one row per time step, one token-count column per place."""
    headers = ["t"] + list(trace.places)
    rows = [[str(t)] + [str(c) for c in counts] for t, counts in trace.table]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
