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
decimal strings, and a writer refuses a payload wider than
``MAX_DOCUMENT_QUBITS`` rather than build its dense view.  Readers take
each payload as a basis label or a pair list; a pair list that spells a
canonical basis vector reads as the shared basis state, without numpy.
What each buffer kind takes is read from ``buffers.KIND_TABLE``.
"""

from __future__ import annotations

import json
import marshal
from collections import deque
from dataclasses import dataclass
from itertools import chain

from .buffers import _SPEC_FIELDS, KIND_TABLE, KINDS, BufferSpec, address_fault
from .engine import (
    EagerOutputThenScript,
    FiringEvent,
    Marking,
    Scheduler,
    Scripted,
    SkippedSelection,
    TokenMove,
    Trace,
    _new,
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
        return BufferSpec(*[getattr(self, name) for name in _SPEC_FIELDS])

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


# A payload's amplitude list is decoded with one exact-type test per number:
# a JSON number parses to an int or a float, and true/false (bools) are neither.
_NUMBER_TYPES = (float, int)
_ZERO_PAIR, _ONE_PAIR = [0.0, 0.0], [1.0, 0.0]


def _payload_value(value, name, data: bytes | str | None = None) -> StateVector:
    """The state a basis label or a [real, imaginary] pair list describes.

    A pair list whose ``marshal`` bytes are those of a canonical basis
    vector (+0.0 everywhere but one [1.0, 0.0]) is that basis state, shared
    and made without numpy.  Any other list is checked pair by pair and
    normalized by the ``StateVector`` constructor.  ``data``, if given, is
    the key a trace reader files ``value`` under: for a list, its bytes.
    An invalid payload is reported at field ``name``.
    """
    if type(value) is str:
        if not value or set(value) - {"0", "1"}:
            raise ScenarioError(f"basis label must be nonempty 0/1, got {value!r}", field=name)
        try:
            return shared_basis_state(len(value), int(value, 2))
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
    if type(value) is list:
        count = len(value)
        if count < 2 or count & (count - 1):
            raise ScenarioError(
                f"amplitude list length must be a power of two >= 2, got {count}", field=name
            )
        width = count.bit_length() - 1
        if _ONE_PAIR in value:
            index = value.index(_ONE_PAIR)
            canonical = [_ZERO_PAIR] * count
            canonical[index] = _ONE_PAIR
            if marshal.dumps(canonical, 2) == (data or marshal.dumps(value, 2)):
                return shared_basis_state(width, index)
        amps: list[complex] = []
        append = amps.append
        try:
            for pair in value:
                if type(pair) is not list or len(pair) != 2:
                    break
                real, imag = pair
                if type(real) not in _NUMBER_TYPES or type(imag) not in _NUMBER_TYPES:
                    break
                append(complex(real, imag))  # an int too large for a float overflows
        except OverflowError:
            raise ScenarioError(f"amplitude {len(amps)} is out of range", field=name) from None
        if len(amps) < count:
            raise ScenarioError(
                f"amplitude {len(amps)} must be a [real, imaginary] pair", field=name
            )
        try:
            return StateVector(width, amps)
        except QpnError as exc:
            raise ScenarioError(str(exc), field=name) from exc
    raise ScenarioError(
        f"payload must be a basis label or amplitude pair list, got {type(value).__name__}",
        field=name,
    )


def _load_json(text: str):
    """The JSON value in ``text``; malformed or too deeply nested text is a ``ScenarioError``.

    So is an integer of more digits than ``int`` converts, which the
    scanner raises as a plain ``ValueError``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise ScenarioError("invalid JSON: integer has too many digits") from None


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

# The widest payload a document holds.  A document writes each of a
# payload's 2**n amplitudes as a [real, imaginary] pair, some 50-100 bytes
# of text at the nesting of a move, so a 20-qubit payload is already
# 50-100 MB of text and a 16 MB dense vector to write it from; each qubit
# more doubles both.  Writers refuse a wider payload before building its
# dense view.
MAX_DOCUMENT_QUBITS = 20


def _refuse_wide(token: str, state: StateVector) -> None:
    """Refuse ``token``'s payload if it is too wide for a document."""
    if state.num_qubits > MAX_DOCUMENT_QUBITS:
        raise ScenarioError(
            f"payload of token {token!r} has {state.num_qubits} qubits; a document holds "
            f"at most {MAX_DOCUMENT_QUBITS}"
        )


_PAIR_SEP, _NUMBER_SEP = "\n ],\n [\n  ", ",\n  "  # between pairs, and within one


def _payload_text(payload: StateVector) -> str:
    """A payload's [real, imaginary] pair list as it sits at nesting level 0."""
    amps = payload.amplitudes
    pairs = zip(map(_float_text, amps.real.tolist()), map(_float_text, amps.imag.tolist()))
    return f"[\n [\n  {_PAIR_SEP.join(map(_NUMBER_SEP.join, pairs))}\n ]\n]"


def _list_text(texts, level: int, brackets: str = "[]") -> str:
    """A list or object opening at nesting ``level``, of members already written as ``texts``."""
    inner = "\n" + " " * (level + 1)
    body = f",{inner}".join(texts)
    return f"{brackets[0]}{inner}{body}\n{' ' * level}{brackets[1]}" if body else brackets


def emit_scenario(doc: ScenarioDoc) -> str:
    """Serialize a scenario document canonically; parse(emit(doc)) == doc."""
    for tok, p in doc.payloads.items():
        _refuse_wide(tok, p)
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
    level.  A marking's addresses, payloads and queues are each one
    comprehension over its tokens or sorted places (a marking holds its
    tables in token-id order, the order ``sort_keys`` gives), and a
    one-token queue entry is one f-string.  Each name's text is made once
    per document, and so is each distinct payload's: keyed on its amplitude
    bytes, made at level 0 and re-indented for the levels payloads sit at
    (3 in markings, 5 in moves).  Each state object's pair of texts is then
    found by its ``id``: the trace holds every state it names, so no id is
    reused while it is written.  A payload wider than
    ``MAX_DOCUMENT_QUBITS`` is refused, naming its token, before its
    amplitudes are read.  The pieces go into one list, joined once.
    """
    parts: list[str] = []
    write = parts.append
    names = _StringTexts({None: "null"})
    by_bytes: dict[bytes, tuple[str, str]] = {}
    texts: dict[int, tuple[str, str]] = {}  # id of a state -> its texts at levels 3 and 5
    sizes: dict[tuple[int, ...], str] = {}

    def payload(state: StateVector, token: str) -> tuple[str, str]:
        """The texts of a state object not met before in this document."""
        _refuse_wide(token, state)
        key = state.amplitude_bytes()
        pair = by_bytes.get(key)
        if pair is None:
            base = _payload_text(state)
            pair = by_bytes[key] = (base.replace("\n", "\n   "), base.replace("\n", "\n     "))
        texts[id(state)] = pair
        return pair

    def marking(m: Marking):  # at level 1
        write('{\n  "addresses": ')
        write(_list_text([f"{names[tok]}: {'null' if a is None else _int_text(a)}"
                          for tok, a in m.addresses.items()], 2, "{}"))
        write(',\n  "payloads": ')
        write(_list_text([f"{names[tok]}: {(texts.get(id(p)) or payload(p, tok))[0]}"
                          for tok, p in m.payloads.items()], 2, "{}"))
        write(',\n  "queues": ')
        write(_list_text([f"{names[pid]}: " + _list_text(
            [f"[\n     {names[entry[0]]}\n    ]" if len(entry) == 1
             else _list_text(map(names.__getitem__, entry), 4) for entry in entries], 3)
            for pid, entries in sorted(m.queues.items())], 2, "{}"))
        write(f',\n  "time": {_int_text(m.time)}\n }}')

    def moves(side: tuple[TokenMove, ...]) -> str:  # at level 3
        return _list_text([
            f'{{\n     "address": {"null" if address is None else _int_text(address)},'
            f'\n     "payload": {(texts.get(id(state)) or payload(state, token))[1]},'
            f'\n     "place": {names[place]},\n     "token": {names[token]}\n    }}'
            for token, place, state, address in side
        ], 3)

    def entry_sizes(value: tuple[int, ...]) -> str:
        """The text of an entry-size tuple not met before in this document."""
        text = sizes[value] = _list_text(map(_int_text, value), 3)
        return text

    write('{\n "events": [')
    sep = "\n  "
    for event in trace.events:
        if isinstance(event, SkippedSelection):
            write(f'{sep}{{\n   "reason": {names[event.reason]},'
                  f'\n   "time": {_int_text(event.time)},'
                  f'\n   "transition": {names[event.transition]},\n   "type": "skipped"\n  }}')
        else:
            time, transition, consumed, produced, consumed_sizes, produced_sizes = event
            write(f'{sep}{{\n   "consumed": ')
            write(moves(consumed))
            write(',\n   "consumed_entry_sizes": '
                  f'{sizes.get(consumed_sizes) or entry_sizes(consumed_sizes)},\n   "produced": ')
            write(moves(produced))
            write(',\n   "produced_entry_sizes": '
                  f'{sizes.get(produced_sizes) or entry_sizes(produced_sizes)},'
                  f'\n   "time": {_int_text(time)},\n   "transition": {names[transition]},'
                  '\n   "type": "firing"\n  }')
        sep = ",\n  "
    write('\n ],\n "final": ' if trace.events else '],\n "final": ')
    marking(trace.final)
    write(',\n "initial": ')
    marking(trace.initial)
    table = [f'{{\n   "counts": {_list_text(map(_int_text, counts), 3)},'
             f'\n   "time": {_int_text(time)}\n  }}' for time, counts in trace.table]
    write(f',\n "places": {_list_text(map(names.__getitem__, trace.places), 1)},'
          f'\n "schema": {names[TRACE_SCHEMA]},\n "table": {_list_text(table, 1)}\n}}\n')
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


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _type_fault(value, kind: type, name: str) -> ScenarioError:
    return ScenarioError(f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}", field=name)


def _expect(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise _type_fault(value, kind, name)
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


# The reader tests JSON values by exact type (``json.loads`` makes no
# subclasses, and ``type(v) is int`` keeps bools out).  Its loops test a value
# inline and call the checker that names the fault (``_int_field``, ``_ints``,
# ``_strings``) only once it has failed: a field name is built only to raise.
_dumps = marshal.dumps


def _marking_from_json(raw, name: str, places: tuple[str, ...], seen: dict) -> Marking:
    """A trace marking, its queues in the document's ``places`` order.

    ``seen`` maps each payload met in the document to its state: a label as
    it is, and anything else by its ``marshal`` bytes, which hold each
    number's type and binary value and so keep apart what equality would
    merge (``-0.0`` and ``0.0``, ``true`` and ``1``).  Only valid payloads
    enter, so a bad one raises wherever it occurs first.
    """
    raw = _expect(raw, dict, name)
    try:
        where = f"{name}.queues"
        raw_queues = _expect(raw["queues"], dict, where)
        if sorted(raw_queues) != sorted(places):
            raise ScenarioError("queue places differ from the trace's places", field=where)
        queues = {}
        for pid in places:
            entries = raw_queues[pid]
            if (type(entries) is not list or not set(map(type, entries)) <= {list}
                    or not set(map(type, chain.from_iterable(entries))) <= {str}):
                for entry in _expect(entries, list, f"{where}.{pid}"):
                    _strings(entry, f"{where}.{pid}")
            queues[pid] = tuple(map(tuple, entries))
        payloads = {}
        for tok, value in _expect(raw["payloads"], dict, f"{name}.payloads").items():
            key = value if type(value) is str else _dumps(value, 2)
            state = seen.get(key)
            if state is None:
                state = seen[key] = _payload_value(value, f"{name}.payloads.{tok}", key)
            payloads[tok] = state
        addresses = _expect(raw["addresses"], dict, f"{name}.addresses")
        if not all(map(_is_address, addresses.values())):
            raise ScenarioError(
                "addresses must be integers >= 0 or null", field=f"{name}.addresses"
            )
        tokens = set(chain.from_iterable(chain.from_iterable(queues.values())))
        if payloads.keys() != tokens or addresses.keys() != tokens:
            raise ScenarioError("payloads and addresses must cover the queued tokens", field=name)
        return Marking(queues, payloads, addresses, _int_field(raw["time"], f"{name}.time"))
    except KeyError as exc:
        raise ScenarioError(f"marking misses key {exc.args[0]!r}", field=name) from exc
    except ModelError as exc:
        raise ScenarioError(str(exc), field=name) from exc


def _replay_firing(sides: list, tokens: list, queues: dict, i: int):
    """Move event ``i``'s entries through the replayed queues.

    ``sides`` are the firing's consumed and produced moves and their entry
    sizes, as ``FiringEvent`` holds them, and ``tokens`` the two sides'
    token ids.  The firing must produce the tokens it consumes, take each
    consumed entry from the head of its queue and put each produced one at
    the tail of a queue of the trace's places, the tokens of an entry
    sharing a place.  Moves are read by position: (token, place, payload,
    address).  Returns the first contradiction as a ``ScenarioError``, else
    None.
    """
    consumed, produced, consumed_sizes, produced_sizes = sides
    taken, given = tokens
    for side, moves, sizes in (("consumed", consumed, consumed_sizes),
                               ("produced", produced, produced_sizes)):
        if sum(sizes) != len(moves):
            return ScenarioError(
                f"entry sizes add up to {sum(sizes)}, not {len(moves)} moves",
                field=f"events[{i}].{side}_entry_sizes",
            )
    if taken != given and sorted(taken) != sorted(given):
        return ScenarioError("a firing must produce the tokens it consumes", field=f"events[{i}]")
    for side, moves, sizes, ids in (("consumed", consumed, consumed_sizes, taken),
                                    ("produced", produced, produced_sizes, given)):
        start = 0
        for size in sizes:
            place = moves[start][1]
            if size == 1:
                entry = (ids[start],)
                queue = queues.get(place)
            else:
                entry = tuple(ids[start:start + size])
                split = any(m[1] != place for m in moves[start + 1:start + size])
                queue = None if split else queues.get(place)
            if queue is None:
                return ScenarioError(
                    f"entry {entry} is not in one of the trace's places",
                    field=f"events[{i}].{side}",
                )
            start += size
            if side == "produced":
                queue.append(entry)
            elif queue and queue[0] == entry:
                queue.popleft()
            else:
                return ScenarioError(
                    f"entry {entry} is not at the head of {place}", field=f"events[{i}].consumed"
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
    first contradiction; then ``final``'s queues; then the table.  Only the
    document's content is read, not its layout: any key order, spacing and
    number spelling that parse to the same JSON values read alike.  Each
    distinct payload is decoded once (see ``_marking_from_json``).
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
    append = events.append
    for i, ev in enumerate(_expect(raw.get("events", []), list, "events")):
        if type(ev) is not dict:
            raise _type_fault(ev, dict, f"events[{i}]")
        try:
            time = ev["time"]
            if type(time) is not int or time < 0:
                _int_field(time, f"events[{i}].time")
            kind = ev.get("type")
            if kind == "skipped":
                tid = ev["transition"]
                if tid is not None and type(tid) is not str:
                    raise _type_fault(tid, str, f"events[{i}].transition")
                reason = ev["reason"]
                if type(reason) is not str:
                    raise _type_fault(reason, str, f"events[{i}].reason")
                append(SkippedSelection(time, tid, reason))
                continue
            if kind != "firing":
                raise ScenarioError(f"unknown event type {kind!r}", field=f"events[{i}]")
            sides, tokens = [], []
            for key in ("consumed", "produced"):
                side = ev[key]
                if type(side) is not list:
                    raise _type_fault(side, list, f"events[{i}].{key}")
                moves, ids = [], []
                for m in side:
                    if type(m) is not dict:
                        raise _type_fault(m, dict, f"events[{i}].{key}")
                    token, place, address = m["token"], m["place"], m["address"]
                    if (type(token) is not str or type(place) is not str or address is not None
                            and (type(address) is not int or address < 0)):
                        raise ScenarioError(
                            "a move needs a token id, a place id and an address",
                            field=f"events[{i}].{key}",
                        )
                    value = m["payload"]
                    payload_key = value if type(value) is str else _dumps(value, 2)
                    state = seen.get(payload_key)
                    if state is None:
                        state = seen[payload_key] = _payload_value(
                            value, f"events[{i}].{key}", payload_key)
                    moves.append(_new(TokenMove, (token, place, state, address)))
                    ids.append(token)
                sides.append(tuple(moves))
                tokens.append(ids)
            for key in ("consumed_entry_sizes", "produced_entry_sizes"):
                sizes = ev[key]
                if type(sizes) is not list:
                    _ints(sizes, f"events[{i}].{key}", 1)
                for size in sizes:
                    if type(size) is not int or size < 1:
                        _ints(sizes, f"events[{i}].{key}", 1)
                sides.append(tuple(sizes))
            tid = ev["transition"]
            if type(tid) is not str:
                raise _type_fault(tid, str, f"events[{i}].transition")
        except KeyError as exc:
            raise ScenarioError(f"event misses key {exc.args[0]!r}", field=f"events[{i}]") from exc
        append(_new(FiringEvent, (time, tid, *sides)))
        if broken is None:
            broken = _replay_firing(sides, tokens, queues, i)

    final = _marking_from_json(raw["final"], "final", places, seen)
    if broken is not None:
        raise broken
    if any(tuple(queue) != final.entries(pid) for pid, queue in queues.items()):
        raise ScenarioError("final queues are not the ones the events leave", field="final")
    rows = []
    for i, row in enumerate(_expect(raw["table"], list, "table")):
        if type(row) is not dict:
            raise _type_fault(row, dict, f"table[{i}]")
        if "time" not in row or "counts" not in row:
            raise ScenarioError("table row needs time and counts", field=f"table[{i}]")
        time, counts = row["time"], row["counts"]
        if type(time) is not int or time < 0:
            _int_field(time, f"table[{i}].time")
        if type(counts) is not list:
            _ints(counts, f"table[{i}].counts")
        for count in counts:
            if type(count) is not int or count < 0:
                _ints(counts, f"table[{i}].counts")
        rows.append((time, tuple(counts)))
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
