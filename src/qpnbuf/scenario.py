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

A signature document lists the outcomes of an enumeration, each with the
firing sequence that reaches it.

All three formats are versioned JSON.  Emission is canonical (sorted keys,
fixed layout), so identical runs serialize to identical bytes: the bytes
``json.dumps(..., sort_keys=True, indent=1)`` gives.  ``emit_scenario``
calls it; ``emit_trace`` and ``emit_signatures`` write that layout straight
from their records.  Amplitudes serialize as [real, imaginary] pairs, never
decimal strings.  What each buffer kind takes is read from
``buffers.KIND_TABLE``.
"""

from __future__ import annotations

import json
import marshal
from collections import deque
from dataclasses import dataclass, fields

from .buffers import KIND_TABLE, KINDS, BufferSpec, address_fault
from .engine import (
    EagerOutputThenScript,
    FiringEvent,
    Marking,
    Scheduler,
    Scripted,
    SkippedSelection,
    TokenMove,
    Trace,
    addresses_to_script,
    shared_basis_state,
)
from .errors import ModelError, QpnError, ScenarioError
from .statevector import StateVector

SCENARIO_SCHEMA = "qpn-scenario/1"
TRACE_SCHEMA = "qpn-trace/1"

SCHEDULERS = ("address-driven", "scripted", "eager-output-then-script")

_COMMON_FIELDS = {"schema", "kind", "payloads", "scheduler", "script", "seed", "enumerate"}


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
        known = {t.id for t in net.transitions}
        for i, tid in enumerate(self.script or ()):
            if tid not in known:
                raise ScenarioError(f"unknown transition {tid!r}", field=f"script[{i}]")
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
        return super().build_scheduler(net)


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
        try:
            return shared_basis_state(len(value), int(value, 2))
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
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


def _load_json(text: str):
    """The JSON value in ``text``; malformed or too deeply nested text is a ``ScenarioError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse and validate a scenario document; unknown fields are rejected."""
    raw = _load_json(text)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a JSON object")

    schema = raw.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}", field="schema")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}", field="kind")

    table = KIND_TABLE[kind]
    unknown = sorted(set(raw) - _COMMON_FIELDS - set(table.arguments))
    if unknown:
        raise ScenarioError(
            f"unknown field(s) for kind {kind!r}: {', '.join(unknown)}", field=unknown[0]
        )
    for name in table.params:
        if name not in raw:
            raise ScenarioError(f"kind {kind!r} needs {name!r}", field=name)

    params = {
        name: _int_list(raw[name], name) if name == "r" else _int_field(raw[name], name)
        for name in table.params
    }

    payloads: dict[str, StateVector] = {}
    if "payloads" in raw:
        if not isinstance(raw["payloads"], dict):
            raise ScenarioError("payloads must be an object", field="payloads")
        valid_ids = {f"d{i + 1}" for i in range(table.data_count(params))}
        for tok, value in raw["payloads"].items():
            if tok not in valid_ids:
                raise ScenarioError(
                    f"{tok!r} is not a data token of this instance", field=f"payloads.{tok}"
                )
            payloads[tok] = _payload_value(value, f"payloads.{tok}")

    programs = {}
    for name in table.programs:
        if name in raw:
            programs[name] = _int_list(raw[name], name)
            fault = address_fault(programs[name], table.choices(name, params), params["m"])
            if fault is not None:
                raise ScenarioError(fault[0], field=name + fault[1])

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
_float_text = float.__repr__  # a StateVector's amplitudes are finite
_int_text = int.__repr__


def _payload_text(payload: StateVector, level: int) -> str:
    """A payload's [real, imaginary] pair list as it sits at nesting ``level``."""
    pair = "\n" + " " * (level + 1)
    num = "\n" + " " * (level + 2)
    pairs = [
        f"[{num}{_float_text(a.real)},{num}{_float_text(a.imag)}{pair}]"
        for a in payload.amplitudes.tolist()
    ]
    return f"[{pair}{f',{pair}'.join(pairs)}\n{' ' * level}]"


def _address_text(address: int | None) -> str:
    return "null" if address is None else _int_text(address)


def _list_text(texts, level: int, brackets: str = "[]") -> str:
    """A list or object opening at nesting ``level``, of members already written as ``texts``."""
    inner = "\n" + " " * (level + 1)
    body = f",{inner}".join(texts)
    return f"{brackets[0]}{inner}{body}\n{' ' * level}{brackets[1]}" if body else brackets


def emit_scenario(doc: ScenarioDoc) -> str:
    """Serialize a scenario document canonically; parse(emit(doc)) == doc."""
    kind = KIND_TABLE[doc.kind]
    out: dict = {"schema": SCENARIO_SCHEMA, "kind": doc.kind, "scheduler": doc.scheduler,
                 "seed": doc.seed, "enumerate": doc.enumerate_outcomes}
    for name in kind.params + tuple(kind.programs):
        if getattr(doc, name) is not None:
            out[name] = getattr(doc, name)
    if doc.payloads:
        out["payloads"] = {tok: [[a.real, a.imag] for a in p.amplitudes.tolist()]
                           for tok, p in doc.payloads.items()}
    if doc.script is not None:
        out["script"] = doc.script
    return json.dumps(out, sort_keys=True, indent=1) + "\n"


class _StringTexts(dict):
    """A string's JSON text, made on first lookup and kept."""

    def __missing__(self, value: str) -> str:
        text = self[value] = _encode_str(value)
        return text


def emit_trace(trace: Trace) -> str:
    """Serialize a run canonically; identical runs give identical bytes.

    These are the bytes ``json.dumps(..., sort_keys=True, indent=1)`` gives
    the trace built as dicts and lists, written straight from the records:
    the qpn-trace/1 layout is fixed, so each marking, firing, move and table
    row is written from its keys, in sorted order, at its known nesting
    level.  Each name's text is made once per document, and so is each
    distinct payload's: keyed on its amplitude bytes, made at level 0 and
    re-indented for the levels payloads sit at (3 in markings, 5 in moves).
    The pieces go into one list, joined once.
    """
    parts: list[str] = []
    write = parts.append
    names = _StringTexts({None: "null"})
    payloads: dict[bytes, str] = {}
    indented: dict[int, dict[bytes, str]] = {3: {}, 5: {}}
    sizes: dict[tuple[int, ...], str] = {}

    def payload(state: StateVector, level: int) -> str:
        key = state.amplitude_bytes()
        text = indented[level].get(key)
        if text is None:
            base = payloads.get(key)
            if base is None:
                base = payloads[key] = _payload_text(state, 0)
            text = indented[level][key] = base.replace("\n", "\n" + " " * level)
        return text

    def block(members, level: int, brackets: str):
        """Write a list or object opening at ``level``, piece by piece, from its members' texts."""
        inner = "\n" + " " * (level + 1)
        sep, empty = brackets[0] + inner, True
        for member in members:
            write(sep)
            write(member)
            sep, empty = "," + inner, False
        write(brackets if empty else f"\n{' ' * level}{brackets[1]}")

    def members(pairs):
        return (f"{names[key]}: {text}" for key, text in pairs)

    def marking(m: Marking):  # at level 1
        write('{\n  "addresses": ')
        block(members((tok, _address_text(a)) for tok, a in sorted(m.addresses.items())),
              2, "{}")
        write(',\n  "payloads": ')
        block(members((tok, payload(p, 3)) for tok, p in sorted(m.payloads.items())), 2, "{}")
        write(',\n  "queues": ')
        block(members((pid, _list_text((_list_text(map(names.__getitem__, entry), 4)
                                        for entry in entries), 3))
                      for pid, entries in sorted(m.queues.items())), 2, "{}")
        write(f',\n  "time": {_int_text(m.time)}\n }}')

    def moves(side: tuple[TokenMove, ...]) -> str:  # at level 3
        return _list_text((
            f'{{\n     "address": {_address_text(m.address)},'
            f'\n     "payload": {payload(m.payload, 5)},\n     "place": {names[m.place]},'
            f'\n     "token": {names[m.token]}\n    }}'
            for m in side
        ), 3)

    def entry_sizes(value: tuple[int, ...]) -> str:
        text = sizes.get(value)
        if text is None:
            text = sizes[value] = _list_text(map(_int_text, value), 3)
        return text

    def events():
        for event in trace.events:
            time, transition = _int_text(event.time), names[event.transition]
            if isinstance(event, SkippedSelection):
                yield (f'{{\n   "reason": {names[event.reason]},\n   "time": {time},'
                       f'\n   "transition": {transition},\n   "type": "skipped"\n  }}')
            else:
                yield (f'{{\n   "consumed": {moves(event.consumed)},'
                       f'\n   "consumed_entry_sizes": {entry_sizes(event.consumed_entry_sizes)},'
                       f'\n   "produced": {moves(event.produced)},'
                       f'\n   "produced_entry_sizes": {entry_sizes(event.produced_entry_sizes)},'
                       f'\n   "time": {time},\n   "transition": {transition},'
                       '\n   "type": "firing"\n  }')

    write('{\n "events": ')
    block(events(), 1, "[]")
    write(',\n "final": ')
    marking(trace.final)
    write(',\n "initial": ')
    marking(trace.initial)
    write(f',\n "places": {_list_text(map(names.__getitem__, trace.places), 1)},'
          f'\n "schema": {names[TRACE_SCHEMA]},\n "table": ')
    block((f'{{\n   "counts": {_list_text(map(_int_text, counts), 3)},'
           f'\n   "time": {_int_text(time)}\n  }}' for time, counts in trace.table), 1, "[]")
    write("\n}\n")
    return "".join(parts)


def emit_signatures(signatures: dict, places) -> str:
    """Serialize enumerated outcomes: per signature, its counts on ``places`` and its witness.

    ``signatures`` maps each outcome signature, a tuple of (place, count)
    pairs, to a firing sequence that reaches it.  These are the bytes
    ``json.dumps(..., sort_keys=True, indent=1)`` gives the list of
    ``{"signature": {place: count}, "witness": [transition]}`` objects in
    signature order, written from that fixed layout; each name's text is
    made once per document.
    """
    names, shown = _StringTexts(), set(places)

    def outcome(sig, witness) -> str:  # at level 1
        counts = (f"{names[pid]}: {_int_text(n)}" for pid, n in sorted(sig) if pid in shown)
        return (f'{{\n  "signature": {_list_text(counts, 2, "{}")},'
                f'\n  "witness": {_list_text(map(names.__getitem__, witness), 2)}\n }}')

    return _list_text((outcome(*item) for item in sorted(signatures.items())), 0) + "\n"


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


def _moves(raw, where: str, seen: dict) -> tuple[TokenMove, ...]:
    """One side of a firing, read move by move (a missing key raises KeyError)."""
    moves = []
    for m in _expect(raw, list, where):
        m = _expect(m, dict, where)
        token, place, address = m["token"], m["place"], m["address"]
        if type(token) is not str or type(place) is not str or not _is_address(address):
            raise ScenarioError(
                "a move needs a token id, a place id and an address", field=where
            )
        payload = _payload_from_doc(m["payload"], seen, where)
        moves.append(TokenMove(token, place, payload, address))
    return tuple(moves)


def _replay_firing(event: FiringEvent, name: str, queues: dict):
    """Move a firing's entries through the replayed queues.

    The firing must produce the tokens it consumes, take each consumed entry
    from the head of its queue and put each produced one at the tail of a
    queue of the trace's places, the tokens of an entry sharing a place.
    Returns the first contradiction as a ``ScenarioError``, else None.
    """
    sides = (("consumed", event.consumed, event.consumed_entry_sizes),
             ("produced", event.produced, event.produced_entry_sizes))
    for side, moves, sizes in sides:
        if sum(sizes) != len(moves):
            return ScenarioError(
                f"entry sizes add up to {sum(sizes)}, not {len(moves)} moves",
                field=f"{name}.{side}_entry_sizes",
            )
    consumed = [m.token for m in event.consumed]
    produced = [m.token for m in event.produced]
    if consumed != produced and sorted(consumed) != sorted(produced):
        return ScenarioError("a firing must produce the tokens it consumes", field=name)
    for (side, moves, sizes), tokens in zip(sides, (consumed, produced)):
        start = 0
        for size in sizes:
            place, entry = moves[start].place, tuple(tokens[start:start + size])
            queue = queues.get(place)
            if queue is None or size > 1 and any(
                    m.place != place for m in moves[start + 1:start + size]):
                return ScenarioError(
                    f"entry {entry} is not in one of the trace's places", field=f"{name}.{side}"
                )
            start += size
            if side == "produced":
                queue.append(entry)
            elif queue and queue[0] == entry:
                queue.popleft()
            else:
                return ScenarioError(
                    f"entry {entry} is not at the head of {place}", field=f"{name}.consumed"
                )
    return None


def parse_trace(text: str) -> Trace:
    """Parse a trace document back into the run's ``Trace``, in one pass over its events.

    The document must agree with itself: each marking queues exactly the
    listed places, no token sits in two places, the events move entries
    from ``initial`` to exactly ``final``'s queues, and the count table is
    the parsed trace's ``Trace.table``.  Each event is read and replayed on
    the initial queues as it comes.  Faults are reported in a fixed order:
    a bad field of ``initial``, the events or ``final``; then the replay's
    first contradiction; then ``final``'s queues; then the table.
    """
    raw = _load_json(text)
    if not isinstance(raw, dict) or raw.get("schema") != TRACE_SCHEMA:
        raise ScenarioError(f"expected schema {TRACE_SCHEMA!r}", field="schema")
    for name in ("places", "initial", "final", "table"):
        if name not in raw:
            raise ScenarioError(f"trace misses key {name!r}", field=name)
    places = _strings(raw["places"], "places")
    seen: dict[str | bytes, StateVector] = {}
    initial = _marking_from_json(raw["initial"], "initial", places, seen)

    queues = {pid: deque(initial.entries(pid)) for pid in places}
    broken = None  # the replay's first contradiction
    events: list[FiringEvent | SkippedSelection] = []
    for i, ev in enumerate(_expect(raw.get("events", []), list, "events")):
        name = f"events[{i}]"
        ev = _expect(ev, dict, name)
        try:
            time = _int_field(ev["time"], f"{name}.time")
            if ev.get("type") == "skipped":
                tid = ev["transition"]
                events.append(SkippedSelection(
                    time, None if tid is None else _expect(tid, str, f"{name}.transition"),
                    _expect(ev["reason"], str, f"{name}.reason"),
                ))
                continue
            if ev.get("type") != "firing":
                raise ScenarioError(f"unknown event type {ev.get('type')!r}", field=name)
            moves = (_moves(ev["consumed"], f"{name}.consumed", seen),
                     _moves(ev["produced"], f"{name}.produced", seen))
            sizes = [_ints(ev[key], f"{name}.{key}", 1)
                     for key in ("consumed_entry_sizes", "produced_entry_sizes")]
            event = FiringEvent(
                time, _expect(ev["transition"], str, f"{name}.transition"), *moves, *sizes
            )
        except KeyError as exc:
            raise ScenarioError(f"event misses key {exc.args[0]!r}", field=name) from exc
        events.append(event)
        if broken is None:
            broken = _replay_firing(event, name, queues)

    final = _marking_from_json(raw["final"], "final", places, seen)
    if broken is not None:
        raise broken
    if any(tuple(queue) != final.entries(pid) for pid, queue in queues.items()):
        raise ScenarioError("final queues are not the ones the events leave", field="final")
    rows = []
    for i, row in enumerate(_expect(raw["table"], list, "table")):
        row = _expect(row, dict, f"table[{i}]")
        if "time" not in row or "counts" not in row:
            raise ScenarioError("table row needs time and counts", field=f"table[{i}]")
        rows.append((_int_field(row["time"], f"table[{i}].time"),
                     _ints(row["counts"], f"table[{i}].counts")))
    trace = Trace(initial, tuple(events), final)
    if tuple(rows) != trace.table:
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
