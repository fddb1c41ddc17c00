import json
import math

import pytest

import prop_util

from qpnbuf.buffers import build_cnot_example, build_siso, run_scenario
from qpnbuf.cli import _DEMO_SCENARIOS
from qpnbuf.engine import (
    AddressDriven,
    Scripted,
    SkippedSelection,
    run,
    shared_basis_state,
    unfire,
)
from qpnbuf.errors import ScenarioError
from qpnbuf.scenario import (
    MAX_DOCUMENT_QUBITS,
    ScenarioDoc,
    emit_marking_table,
    emit_scenario,
    emit_trace,
    parse_scenario,
    parse_trace,
)
from qpnbuf.statevector import StateVector, basis_state

SISO_4B = """
{
  "kind": "siso",
  "n": 3,
  "m": 2,
  "payloads": {"d1": "10", "d2": "1", "d3": "1"}
}
"""

SIMO_4C = """
{
  "kind": "simo",
  "n": 4,
  "m": 3,
  "k": 2,
  "payloads": {"d1": "1", "d2": "0", "d3": "1", "d4": "1"},
  "addresses": [1, 0, 1]
}
"""


def run_doc(doc):
    spec = doc.to_buffer_spec()
    net, marking = spec.build()
    return run(net, marking, doc.build_scheduler(net))


def test_parse_siso_document():
    doc = parse_scenario(SISO_4B)
    assert doc.kind == "siso"
    assert (doc.n, doc.m) == (3, 2)
    assert doc.payloads["d1"] == basis_state(2, "10")
    assert doc.scheduler == "address-driven"
    assert doc.seed == 0
    assert doc.enumerate_outcomes is False


def test_parse_minimal_document_defaults():
    doc = parse_scenario('{"kind": "siso", "n": 1, "m": 1}')
    assert doc.scheduler == "address-driven"
    assert doc.seed == 0
    assert doc.payloads == {}


def test_parse_amplitude_pair_payload():
    text = json.dumps(
        {
            "kind": "siso",
            "n": 1,
            "m": 1,
            "payloads": {"d1": [[0.6, 0.0], [0.0, 0.8]]},
        }
    )
    doc = parse_scenario(text)
    assert doc.payloads["d1"] == StateVector(1, [0.6, 0.8j])


def test_parse_rejects_unknown_top_level_field():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"kind": "siso", "n": 1, "m": 1, "bogus": 3}')
    assert "bogus" in str(err.value)


def test_parse_rejects_missing_required_field():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"kind": "simo", "n": 4, "m": 3}')
    assert err.value.field == "k"


def test_parse_rejects_field_of_other_kind():
    with pytest.raises(ScenarioError):
        parse_scenario('{"kind": "siso", "n": 1, "m": 1, "k": 2}')


def test_parse_syntax_error_reports_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{\n "kind": "siso",\n oops\n}')
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_parse_rejects_address_out_of_range():
    text = '{"kind": "simo", "n": 4, "m": 3, "k": 2, "addresses": [3]}'
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "addresses[0]" in str(err.value)


def test_parse_rejects_unknown_payload_token():
    text = '{"kind": "siso", "n": 1, "m": 1, "payloads": {"d9": "1"}}'
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "payloads.d9" in str(err.value)


def test_parse_rejects_script_without_scripted_scheduler():
    text = '{"kind": "siso", "n": 1, "m": 1, "script": ["T1"]}'
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_scripted_scheduler_requires_script():
    text = '{"kind": "siso", "n": 1, "m": 1, "scheduler": "scripted"}'
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_rejects_non_boolean_enumerate():
    text = '{"kind": "siso", "n": 1, "m": 1, "enumerate": 1}'
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_scenario_round_trip_basis_payloads():
    doc = parse_scenario(SISO_4B)
    assert parse_scenario(emit_scenario(doc)) == doc


def test_scenario_round_trip_with_script_and_addresses():
    doc = ScenarioDoc(
        kind="priority",
        r_low=1,
        r_high=2,
        m_low=2,
        m_high=2,
        payloads={"d2": StateVector(1, [2**-0.5, 2**-0.5])},
        scheduler="scripted",
        script=("T2", "T4", "T1", "T3"),
        seed=9,
    )
    assert parse_scenario(emit_scenario(doc)) == doc


def test_trace_emission_deterministic():
    doc = parse_scenario(SIMO_4C)
    a = emit_trace(run_doc(doc))
    b = emit_trace(run_doc(doc))
    assert a == b


def test_empty_trace_document():
    doc = parse_scenario('{"kind": "siso", "n": 2, "m": 1}')
    net, marking = doc.to_buffer_spec().build()
    trace = run(net, marking, Scripted(()))
    tdoc = trace
    assert tdoc.events == ()
    assert tdoc.initial == tdoc.final
    assert len(tdoc.table) == 1


def test_trace_doc_events_and_final_places():
    doc = parse_scenario(SISO_4B)
    trace = run_doc(doc)
    tdoc = trace
    assert len(tdoc.events) == 2
    assert tdoc.final.queues["P_O"] == (("d1",), ("d2",))


def test_trace_round_trip():
    doc = parse_scenario(SIMO_4C)
    trace = run_doc(doc)
    text = emit_trace(trace)
    parsed = parse_trace(text)
    assert parsed == trace


def test_trace_replay_reproduces_final_marking():
    doc = parse_scenario(SIMO_4C)
    trace = run_doc(doc)
    tdoc = parse_trace(emit_trace(trace))
    # Replay the recorded transitions on a freshly built net.
    net, marking = doc.to_buffer_spec().build()
    replayed = run(net, marking, Scripted(tdoc.firing_transitions()))
    assert replayed.final == tdoc.final


def test_marking_table_siso_rows():
    net, marking = parse_scenario('{"kind": "siso", "n": 4, "m": 3}').to_buffer_spec().build()
    trace = run(net, marking, AddressDriven())
    table = emit_marking_table(trace)
    lines = table.splitlines()
    assert lines[0].split() == ["t", "P_I", "P_A", "P_A1", "P_O"]
    assert lines[1].split() == ["0", "4", "3", "0", "0"]
    assert lines[2].split() == ["1", "3", "2", "1", "1"]


def test_marking_table_simo_final_row():
    doc = parse_scenario(SIMO_4C)
    table = emit_marking_table(run_doc(doc))
    last = table.splitlines()[-1].split()
    # Columns: t, P_I, P_A, P_A1, P_O1, P_O2.
    assert last == ["3", "1", "0", "3", "1", "2"]


def test_marking_table_zero_events():
    net, marking = parse_scenario('{"kind": "siso", "n": 2, "m": 2}').to_buffer_spec().build()
    trace = run(net, marking, Scripted(()))
    lines = emit_marking_table(trace).splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["0", "2", "2", "0", "0"]


def test_marking_table_rows_conserve_total():
    doc = parse_scenario(SIMO_4C)
    tdoc = run_doc(doc)
    totals = {sum(counts) for _, counts in tdoc.table}
    assert len(totals) == 1


def test_table_counts_pairs_as_two_tokens():
    doc = parse_scenario(
        '{"kind": "miso", "r": [2, 1], "m": 2, "addresses": [0, 1]}'
    )
    spec = doc.to_buffer_spec()
    net, marking = spec.build()
    trace = run(net, marking, Scripted(("T1",)))
    tdoc = trace
    # After staging one pair, P_DA holds one entry of two tokens.
    assert tdoc.table[-1][1][tdoc.places.index("P_DA")] == 2
    totals = {sum(counts) for _, counts in tdoc.table}
    assert len(totals) == 1


def _damaged_trace(damage):
    net, marking = build_siso(2, 1)
    doc = json.loads(emit_trace(run(net, marking, AddressDriven())))
    damage(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "damage, field",
    [
        (lambda d: d["events"].__setitem__(0, "T1"), "events[0]"),
        (lambda d: d["events"][0].pop("time"), "events[0]"),
        (lambda d: d.pop("places"), "places"),
        (lambda d: d["initial"].__setitem__("queues", [["d1"]]), "initial.queues"),
        # Not a list where the document needs one.
        (lambda d: d.__setitem__("places", "P_I"), "places"),
        (lambda d: d.__setitem__("table", {}), "table"),
        (lambda d: d["initial"]["queues"].__setitem__("P_I", "d1"), "initial.queues.P_I"),
        (lambda d: d["initial"]["queues"]["P_I"].__setitem__(0, "d1"), "initial.queues.P_I"),
        (lambda d: d["events"][0].__setitem__("consumed", {}), "events[0].consumed"),
        (lambda d: d["events"][0].__setitem__("consumed_entry_sizes", 1),
         "events[0].consumed_entry_sizes"),
        (lambda d: d["table"][0].__setitem__("counts", 2), "table[0].counts"),
        # Not an integer where the document needs one.
        (lambda d: d["events"][0].__setitem__("time", "0"), "events[0].time"),
        (lambda d: d["initial"].__setitem__("time", "0"), "initial.time"),
        (lambda d: d["table"][1].__setitem__("time", "1"), "table[1].time"),
        (lambda d: d["events"][0]["produced_entry_sizes"].__setitem__(0, "1"),
         "events[0].produced_entry_sizes"),
        (lambda d: d["table"][0]["counts"].__setitem__(0, "2"), "table[0].counts"),
        # Parts that contradict each other.
        (lambda d: d["table"][1]["counts"].__setitem__(0, 2), "table"),
        (lambda d: d["final"]["queues"]["P_I"].append(["d1"]), "final"),
        (lambda d: d["places"].reverse(), "table"),
        (lambda d: d["initial"]["queues"].__setitem__("P_X", []), "initial.queues"),
        (lambda d: d["events"][0]["consumed"][0].__setitem__("place", "P_X"),
         "events[0].consumed"),
        (lambda d: d["final"]["payloads"].pop("d1"), "final"),
        # Events that the replay from the initial queues contradicts.
        (lambda d: d["initial"]["queues"]["P_I"].reverse(), "events[0].consumed"),
        (lambda d: d["events"][0]["produced"][0].__setitem__("token", "d2"), "events[0]"),
        (lambda d: d["events"][0]["consumed_entry_sizes"].append(1),
         "events[0].consumed_entry_sizes"),
        (lambda d: d["events"][0]["produced"][0].__setitem__("place", "P_X"),
         "events[0].produced"),
        (lambda d: d["final"]["queues"].update(P_I=[["d1"]], P_O=[["d2"]]), "final"),
    ],
    ids=[
        "non-object-event", "event-without-time", "no-places", "list-queues",
        "string-places", "object-table", "string-queue", "string-entry", "object-move-side",
        "int-entry-sizes", "int-counts", "string-event-time", "string-marking-time",
        "string-row-time", "string-entry-size", "string-count", "table-disagrees",
        "token-in-two-places", "reordered-places", "extra-queue", "unknown-move-place",
        "token-without-payload", "consumed-not-at-head", "token-not-conserved",
        "entry-sizes-disagree", "unknown-produced-place", "swapped-final-tokens",
    ],
)
def test_parse_trace_damaged_document_is_scenario_error(damage, field):
    with pytest.raises(ScenarioError) as err:
        parse_trace(_damaged_trace(damage))
    assert err.value.field == field


def test_parse_trace_final_queues_must_follow_from_the_events():
    # d1 is delivered to P_O and d2 stays in P_I; swapping them in the final
    # queues keeps every count, the table and the payload tables intact.
    net, marking = build_siso(2, 1)
    doc = json.loads(emit_trace(run(net, marking, AddressDriven())))
    assert doc["final"]["queues"]["P_I"] == [["d2"]]
    assert doc["final"]["queues"]["P_O"] == [["d1"]]
    doc["final"]["queues"]["P_I"], doc["final"]["queues"]["P_O"] = [["d1"]], [["d2"]]
    with pytest.raises(ScenarioError) as err:
        parse_trace(json.dumps(doc))
    assert err.value.field == "final"


def test_parse_trace_pair_entry_must_share_one_place():
    doc = parse_scenario('{"kind": "miso", "r": [2, 1], "m": 2, "addresses": [0, 1]}')
    net, marking = doc.build()
    trace = json.loads(emit_trace(run(net, marking, Scripted(("T1",)))))
    assert trace["events"][0]["produced_entry_sizes"] == [2]
    assert prop_util.produced_entries(parse_trace(json.dumps(trace)).events[0])[0][1].place == "P_DA"
    trace["events"][0]["produced"][1]["place"] = "P_I1"
    with pytest.raises(ScenarioError) as err:
        parse_trace(json.dumps(trace))
    assert err.value.field == "events[0].produced"


def test_parse_trace_integer_amplitudes_give_the_same_state():
    net, marking = build_siso(2, 1)
    doc = json.loads(emit_trace(run(net, marking, AddressDriven())))
    doc["initial"]["payloads"]["d2"] = [[1, 0], [0, 0]]
    parsed = parse_trace(json.dumps(doc))
    assert parsed.initial.payloads["d2"] == parsed.initial.payloads["d1"]


def test_parse_trace_reuses_each_distinct_payload():
    net, marking = build_siso(2, 1)
    doc = json.loads(emit_trace(run(net, marking, AddressDriven())))
    doc["initial"]["payloads"]["d2"] = [[1.0, 0.0], [-0.0, 0.0]]
    parsed = parse_trace(json.dumps(doc))
    zero = parsed.initial.payloads["d1"]
    moves = parsed.events[0].consumed + parsed.events[0].produced
    assert all(m.payload is zero for m in moves)
    # Equal to |0>, but a state of its own that keeps the sign of its zero.
    signed = parsed.initial.payloads["d2"]
    assert signed == zero and signed is not zero
    assert signed.amplitude_bytes() != zero.amplitude_bytes()


def test_parse_trace_rejects_bool_amplitude_equal_to_a_valid_one():
    net, marking = build_siso(2, 1)
    doc = json.loads(emit_trace(run(net, marking, AddressDriven())))
    doc["events"][0]["produced"][1]["payload"] = [[True, 0.0], [0.0, 0.0]]
    doc["final"]["payloads"]["d1"] = [[True, 0.0], [0.0, 0.0]]
    with pytest.raises(ScenarioError) as err:
        parse_trace(json.dumps(doc))
    assert err.value.field == "events[0].produced"
    assert "amplitude 0 must be a [real, imaginary] pair" in str(err.value)


# A run with a superposed payload, a pair entry (events[0] deposits d3 and
# z1 into P_DA together) and two skipped selections (events[1] and [2]).
_MISO_SKIPS = ('{"kind": "miso", "r": [2, 1], "m": 3, "addresses": [1, 1, 0],'
               ' "payloads": {"d1": [[0.6, 0.0], [0.0, 0.8]], "d2": "1"}}')


def _respelled(value):
    """``value`` with objects' keys reversed and integral floats (not -0.0) as ints."""
    if isinstance(value, dict):
        return {key: _respelled(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_respelled(item) for item in value]
    if type(value) is float and value.is_integer() and math.copysign(1.0, value) > 0:
        return int(value)
    return value


def test_parse_trace_reads_content_not_layout():
    trace = run_scenario(parse_scenario(_MISO_SKIPS))
    assert any(isinstance(e, SkippedSelection) for e in trace.events)
    assert (2,) in [e.produced_entry_sizes for e in trace.firings()]
    canonical = emit_trace(trace)
    text = json.dumps(_respelled(json.loads(canonical)))
    assert "\n" not in text and text.index('"table"') < text.index('"events"')
    assert "[[1, 0], [0, 0]]" in text and "1.0" not in text
    parsed = parse_trace(text)
    assert parsed == parse_trace(canonical) == trace
    assert parsed.table == trace.table
    assert emit_trace(parsed) == canonical
    assert prop_util._reading(parse_trace, text) == prop_util._reading(
        prop_util.reference_parse_trace, text)


def _miso_damage(damage):
    doc = json.loads(emit_trace(run_scenario(parse_scenario(_MISO_SKIPS))))
    damage(doc)
    return json.dumps(doc)


def _set(path, value):
    """A damage that sets the item at ``path`` (keys and indices from the top) to ``value``."""
    def damage(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return damage


@pytest.mark.parametrize("damage, message", [
    (_set(["events", 0], "T2"), "expected an object, got str (field: events[0])"),
    (_set(["events", 0, "time"], True),
     "expected an integer >= 0, got True (field: events[0].time)"),
    (_set(["events", 1, "transition"], 3),
     "expected a string, got int (field: events[1].transition)"),
    (_set(["events", 1, "reason"], None),
     "expected a string, got NoneType (field: events[1].reason)"),
    (_set(["events", 0, "type"], "fired"), "unknown event type 'fired' (field: events[0])"),
    (_set(["events", 0, "produced"], {}), "expected a list, got dict (field: events[0].produced)"),
    (_set(["events", 0, "consumed", 1], "z1"),
     "expected an object, got str (field: events[0].consumed)"),
    (_set(["events", 0, "consumed", 1, "address"], -1),
     "a move needs a token id, a place id and an address (field: events[0].consumed)"),
    (_set(["events", 0, "produced", 0, "payload"], "2"),
     "basis label must be nonempty 0/1, got '2' (field: events[0].produced)"),
    (_set(["events", 0, "consumed", 0, "token"], None),
     "a move needs a token id, a place id and an address (field: events[0].consumed)"),
    (lambda d: d["events"][0]["produced"][1].pop("token"),
     "event misses key 'token' (field: events[0])"),
    (_set(["events", 0, "consumed_entry_sizes"], 2),
     "expected a list of integers >= 1 (field: events[0].consumed_entry_sizes)"),
    (_set(["events", 0, "consumed_entry_sizes", 0], True),
     "expected a list of integers >= 1 (field: events[0].consumed_entry_sizes)"),
    (_set(["events", 0, "produced_entry_sizes", 0], 2.0),
     "expected a list of integers >= 1 (field: events[0].produced_entry_sizes)"),
    (_set(["events", 0, "transition"], None),
     "expected a string, got NoneType (field: events[0].transition)"),
    (_set(["table", 0], []), "expected an object, got list (field: table[0])"),
    (lambda d: d["table"][0].pop("counts"), "table row needs time and counts (field: table[0])"),
    (_set(["table", 0, "time"], 0.0), "expected an integer >= 0, got 0.0 (field: table[0].time)"),
    (_set(["table", 0, "counts"], "2"),
     "expected a list of integers >= 0 (field: table[0].counts)"),
    (_set(["table", 0, "counts", 1], True),
     "expected a list of integers >= 0 (field: table[0].counts)"),
    (_set(["table", 0, "counts", 1], 1.0),
     "expected a list of integers >= 0 (field: table[0].counts)"),
    (_set(["initial", "queues", "P_I2"], "d3"),
     "expected a list, got str (field: initial.queues.P_I2)"),
    (_set(["initial", "queues", "P_A", 2], "z3"),
     "expected a list of strings (field: initial.queues.P_A)"),
    (_set(["final", "queues", "P_O", 0], ["d1", 2]),
     "expected a list of strings (field: final.queues.P_O)"),
    (_set(["initial", "payloads", "d1"], [[0.6, 0.0], [0.0, 0.0]]),
     "state norm 0.36 deviates from 1 beyond 1e-12 (field: initial.payloads.d1)"),
], ids=[
    "event-list", "event-time-bool", "skipped-transition-int", "skipped-reason-null",
    "event-type", "side-object", "move-string", "move-address", "move-payload-label",
    "move-token-null", "move-without-token", "sizes-int", "size-bool", "size-float",
    "transition-null", "row-list", "row-without-counts", "row-time-float", "counts-string",
    "count-bool", "count-float", "queue-string", "entry-string", "entry-int-token",
    "payload-norm",
])
def test_parse_trace_names_each_fault(damage, message):
    text = _miso_damage(damage)
    with pytest.raises(ScenarioError) as err:
        parse_trace(text)
    assert type(err.value) is ScenarioError and str(err.value) == message
    assert prop_util._reading(parse_trace, text) == prop_util._reading(
        prop_util.reference_parse_trace, text)


@pytest.mark.parametrize("value, message", [
    ("", "basis label must be nonempty 0/1, got ''"),
    ([[1.0, 0.0]], "amplitude list length must be a power of two >= 2, got 1"),
    ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
     "amplitude list length must be a power of two >= 2, got 3"),
    ([[1.0, 0.0], 0], "amplitude 1 must be a [real, imaginary] pair"),
    ([[0.0, 0.0], [1.0, 0.0, 0.0]], "amplitude 1 must be a [real, imaginary] pair"),
    ([[True, 0.0], [0.0, 0.0]], "amplitude 0 must be a [real, imaginary] pair"),
    ([[0.0, 0.0], [1.0, "0"]], "amplitude 1 must be a [real, imaginary] pair"),
    ([[0.0, 0.0], [10**400, 0]], "amplitude 1 is out of range"),
    ([[1.0, 0.0], [1.0, 0.0]], "state norm 2.0 deviates from 1 beyond 1e-12"),
    ({"d": 1}, "payload must be a basis label or amplitude pair list, got dict"),
])
def test_payload_faults_are_named(value, message):
    text = json.dumps({"kind": "siso", "n": 1, "m": 1, "payloads": {"d1": value}})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert type(err.value) is ScenarioError
    assert str(err.value) == f"{message} (field: payloads.d1)"


def test_canonical_basis_lists_decode_to_the_shared_basis_state():
    doc = parse_scenario(json.dumps({"kind": "siso", "n": 4, "m": 1, "payloads": {
        "d1": [[0.0, 0.0], [1.0, 0.0]], "d2": [[0.0, 0.0]] * 5 + [[1.0, 0.0]] + [[0.0, 0.0]] * 2,
        "d3": [[0, 0], [1, 0]], "d4": [[-0.0, 0.0], [1.0, 0.0]]}}))
    one, six = doc.payloads["d1"], doc.payloads["d2"]
    assert one is shared_basis_state(1, 1) and six is shared_basis_state(3, 5)
    # Equal states spelled otherwise keep their own bytes or go through numpy.
    assert doc.payloads["d3"] == one and doc.payloads["d3"] is not one
    assert doc.payloads["d4"] == one
    assert doc.payloads["d4"].amplitude_bytes() != one.amplitude_bytes()


@pytest.mark.parametrize("width", [MAX_DOCUMENT_QUBITS + 1, 61])
def test_writers_refuse_a_payload_too_wide_for_a_document(width, tmp_path, capsys):
    from qpnbuf.cli import main

    message = (f"payload of token 'd2' has {width} qubits; a document holds at most "
               f"{MAX_DOCUMENT_QUBITS}")
    scenario = {"kind": "siso", "n": 2, "m": 2, "payloads": {"d1": "1", "d2": "0" * width}}
    doc = parse_scenario(json.dumps(scenario))
    for write, value in ((emit_scenario, doc), (emit_trace, run_scenario(doc))):
        with pytest.raises(ScenarioError) as err:
            write(value)
        assert type(err.value) is ScenarioError and str(err.value) == message
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario))
    assert main(["buffer", "run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["buffer", "run", "--scenario", str(path), "--format", "table"]) == 0


@pytest.mark.parametrize("pair", [[1, "a"], [None, 0], [True, 0], [1e308 * 10, 0]])
def test_parse_rejects_non_number_amplitudes(pair):
    text = json.dumps({"kind": "siso", "n": 1, "m": 1, "payloads": {"d1": [pair, [0, 0]]}})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.field == "payloads.d1"


def test_parse_rejects_huge_integer_amplitude():
    text = '{"kind": "siso", "n": 1, "m": 1, "payloads": {"d1": [[1%s, 0], [0, 0]]}}' % (
        "0" * 400
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.field == "payloads.d1"


def test_nan_payload_scenario_exits_2(tmp_path, capsys):
    from qpnbuf.cli import main

    path = tmp_path / "nan.json"
    path.write_text('{"kind": "siso", "n": 1, "m": 1, "payloads": {"d1": [[NaN, 0], [0, 0]]}}')
    assert main(["buffer", "run", "--scenario", str(path)]) == 2
    assert "payloads.d1" in capsys.readouterr().err


def test_over_wide_basis_label_is_scenario_error(tmp_path, capsys):
    from qpnbuf.cli import main

    label = "0" * 64
    path = tmp_path / "wide.json"
    path.write_text('{"kind": "siso", "n": 1, "m": 1, "payloads": {"d1": "%s"}}' % label)
    assert main(["buffer", "run", "--scenario", str(path)]) == 2
    assert "payloads.d1" in capsys.readouterr().err
    raw = json.loads(emit_trace(run(*build_siso(1, 1), AddressDriven())))
    raw["initial"]["payloads"]["d1"] = label
    text = json.dumps(raw)
    with pytest.raises(ScenarioError) as err:
        parse_trace(text)
    assert err.value.field == "initial.payloads.d1"
    assert prop_util._reading(parse_trace, text) == prop_util._reading(
        prop_util.reference_parse_trace, text)


@pytest.mark.parametrize("parse", [parse_scenario, parse_trace])
def test_deeply_nested_json_is_scenario_error(parse):
    text = "[" * 200_000
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse(text)
    if parse is parse_trace:
        assert prop_util._reading(parse, text) == prop_util._reading(
            prop_util.reference_parse_trace, text)


def test_deeply_nested_scenario_exits_2(tmp_path, capsys):
    from qpnbuf.cli import main

    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["buffer", "run", "--scenario", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("parse", [parse_scenario, parse_trace])
def test_integer_past_the_digit_limit_is_scenario_error(parse):
    text = '{"kind": "siso", "n": ' + "1" * 5000 + ', "m": 1}'
    with pytest.raises(ScenarioError) as err:
        parse(text)
    assert str(err.value) == "invalid JSON: integer has too many digits"


def _demo_trace(name):
    if name == "fig2-example":
        net, marking = build_cnot_example()
        return run(net, marking, Scripted(("T1",)))
    doc = parse_scenario(_DEMO_SCENARIOS[name][0])
    return run_scenario(doc)


@pytest.mark.parametrize("name", ["fig2-example", "siso-4b", "simo-4c", "priority-4d"])
def test_demo_trace_round_trip(name):
    trace = _demo_trace(name)
    text = emit_trace(trace)
    parsed = parse_trace(text)
    assert parsed == trace
    assert emit_trace(parsed) == text
    assert parsed.table == trace.table
    assert parsed.firing_transitions() == trace.firing_transitions()


# A parsed trace's markings share no queue with the events' markings, so
# unfiring from its final copies each queue it pushes a head onto.
_KIND_SCENARIOS = {
    "siso": _DEMO_SCENARIOS["siso-4b"][0],
    "simo": _DEMO_SCENARIOS["simo-4c"][0],
    "miso": '{"kind": "miso", "r": [2, 1], "m": 3, "addresses": [0, 1, 0]}',
    "mimo": '{"kind": "mimo", "r": [2, 1], "outputs": 2, "m": 3,'
            ' "input_addresses": [1, 0, 0], "output_addresses": [0, 1, 1]}',
    "priority": _DEMO_SCENARIOS["priority-4d"][0],
}


@pytest.mark.parametrize("name", ["fig2-example", *_KIND_SCENARIOS])
def test_parsed_trace_unfires_from_its_final_to_its_initial(name):
    if name == "fig2-example":
        net, marking = build_cnot_example()
        trace = run(net, marking, Scripted(("T1",)))
    else:
        doc = parse_scenario(_KIND_SCENARIOS[name])
        net, marking = doc.build()
        trace = run(net, marking, doc.build_scheduler(net))
    parsed = parse_trace(emit_trace(trace))
    assert parsed.firings()
    marking = parsed.final
    for event in reversed(parsed.firings()):
        marking = unfire(net, marking, event)
    assert marking == parsed.initial
