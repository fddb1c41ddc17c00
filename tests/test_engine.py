import random
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qpnbuf.buffers import (
    _transition,
    build_cnot_example,
    build_mimo,
    build_miso,
    build_priority,
    build_simo,
    build_siso,
)
from qpnbuf import engine
from qpnbuf.engine import (
    AddressDriven,
    Arc,
    EagerOutputThenScript,
    Marking,
    PairRoute,
    Place,
    PlaceKind,
    QPNet,
    QToken,
    Scripted,
    SkippedSelection,
    TokenKind,
    Trace,
    Transition,
    addresses_to_script,
    distribution_signature,
    enabled_transitions,
    enumerate_final_markings,
    fire,
    run,
    unfire,
)
from qpnbuf.errors import (
    ExplosionError,
    ModelError,
    NotEnabledError,
    ReversalError,
)
from qpnbuf.scenario import emit_trace, parse_trace
from qpnbuf.statevector import StateVector, basis_state, identity, x

from prop_util import gated_relay_net, reference_enumerate, relay_net


def counts_of(marking, *places):
    return tuple(marking.token_count(p) for p in places)


# The two-place CNOT example net: P1 = {a:|1>, b:|1>, c:(|0>+|1>)/sqrt 2},
# P2 = {d:|0>, e:|1>}, T1 = CNOT over (head of P1, head of P2).


def test_cnot_example_firing_moves_and_transforms():
    net, m0 = build_cnot_example()
    m1, event = fire(net, m0, "T1")
    assert m1.tokens_in("P3") == ("a", "d")
    assert m1.tokens_in("P1") == ("b", "c")
    assert m1.tokens_in("P2") == ("e",)
    assert m1.payload("a") == basis_state(1, "1")
    assert m1.payload("d") == basis_state(1, "1")  # |0> flipped by the set control
    assert m1.payload("b") == basis_state(1, "1")
    assert np.allclose(
        m1.payload("c").amplitudes, [2**-0.5, 2**-0.5], atol=1e-15
    )
    assert m1.payload("e") == basis_state(1, "1")
    assert event.transition == "T1"
    assert [mv.token for mv in event.consumed] == ["a", "d"]
    assert [mv.token for mv in event.produced] == ["a", "d"]


def test_cnot_example_unfire_restores_d():
    net, m0 = build_cnot_example()
    m1, event = fire(net, m0, "T1")
    back = unfire(net, m1, event)
    assert back.payload("d") == basis_state(1, "0")
    assert back == m0


def test_enabled_transitions_empty_net_supply():
    net, m0 = build_siso(1, 1)
    m1, _ = fire(net, m0, "T1")
    assert enabled_transitions(net, m1) == []  # ancillary supply exhausted


def test_enabled_transitions_ordering():
    net, m0 = build_simo(4, 3, 2)  # free selectors: both guards match
    assert enabled_transitions(net, m0) == ["T1", "T2"]


def test_enabled_respects_seeded_addresses():
    net, m0 = build_simo(4, 3, 2, addresses=(1, 0, 1))
    assert enabled_transitions(net, m0) == ["T2"]


def test_priority_inhibitor_gates_t3():
    net, m0 = build_priority(1, 2, 2, 2)
    m1, _ = fire(net, m0, "T2")  # stages a high-priority pair in P_DA2
    enabled = enabled_transitions(net, m1)
    assert "T3" not in enabled
    assert "T4" in enabled
    m2, _ = fire(net, m1, "T1")  # low-priority pair staged in P_DA1
    assert "T3" not in enabled_transitions(net, m2)
    m3, _ = fire(net, m2, "T4")  # clears P_DA2
    assert "T3" in enabled_transitions(net, m3)


def test_fire_not_enabled_raises():
    net, m0 = build_siso(2, 1)
    m1, _ = fire(net, m0, "T1")
    with pytest.raises(NotEnabledError):
        fire(net, m1, "T1")


def test_fire_unknown_transition_raises():
    net, m0 = build_siso(2, 1)
    with pytest.raises(ModelError):
        fire(net, m0, "T9")


def test_siso_fire_count_bookkeeping():
    net, m0 = build_siso(4, 3)
    assert counts_of(m0, "P_I", "P_A", "P_A1", "P_O") == (4, 3, 0, 0)
    m1, _ = fire(net, m0, "T1")
    assert counts_of(m1, "P_I", "P_A", "P_A1", "P_O") == (3, 2, 1, 1)
    assert m1.time == m0.time + 1


def test_identity_transition_preserves_payload():
    payload = basis_state(2, "10")
    net, m0 = build_siso(2, 1, payloads={"d1": payload})
    m1, _ = fire(net, m0, "T1")
    assert m1.payload("d1") == payload


def test_token_conservation_across_firing():
    net, m0 = build_priority(1, 2, 2, 2)
    tokens0 = sorted(t for p in m0.place_ids for t in m0.tokens_in(p))
    m1, _ = fire(net, m0, "T2")
    tokens1 = sorted(t for p in m1.place_ids for t in m1.tokens_in(p))
    assert tokens0 == tokens1


def test_unfire_full_trace_restores_initial():
    net, m0 = build_siso(3, 2)
    trace = run(net, m0, AddressDriven())
    marking = trace.final
    for event in reversed(trace.firings()):
        marking = unfire(net, marking, event)
    assert marking == m0


def test_unfire_wrong_marking_raises():
    net, m0 = build_siso(3, 2)
    m1, e1 = fire(net, m0, "T1")
    m2, e2 = fire(net, m1, "T1")
    with pytest.raises(ReversalError):
        unfire(net, m2, e1)  # e1 is not the most recent firing


def test_scripted_run_and_step_error():
    net, m0 = build_siso(2, 2)
    trace = run(net, m0, Scripted(("T1", "T1")))
    assert [e.transition for e in trace.firings()] == ["T1", "T1"]
    with pytest.raises(NotEnabledError) as err:
        run(net, m0, Scripted(("T1", "T1", "T1")))
    assert err.value.step == 2
    assert "step 2" in str(err.value)


def test_empty_scheduler_empty_trace():
    net, m0 = build_siso(2, 2)
    trace = run(net, m0, Scripted(()))
    assert trace.events == ()
    assert trace.final == m0


def test_address_driven_selects_by_head_address():
    net, m0 = build_simo(4, 3, 2, addresses=(1, 0, 1))
    trace = run(net, m0, AddressDriven())
    assert [e.transition for e in trace.firings()] == ["T2", "T1", "T2"]


def test_address_driven_program_mode_equivalent():
    net, m0 = build_simo(4, 3, 2, addresses=(1, 0, 1))
    trace = run(net, m0, AddressDriven(program=(1, 0, 1)))
    assert [e.transition for e in trace.firings()] == ["T2", "T1", "T2"]


def test_address_driven_skips_unfirable_selection():
    # Both selectors target the first input place, which has one token.
    net, m0 = build_miso((1, 1), 2, addresses=(0, 0))
    trace = run(net, m0, AddressDriven(program=(0, 0)))
    skips = [e for e in trace.events if isinstance(e, SkippedSelection)]
    assert len(skips) == 1
    assert skips[0].transition == "T1"
    assert trace.final.tokens_in("P_O") == ("d1",)
    assert trace.final.token_count("P_A") == 1  # unused selector stays put


def test_eager_output_then_script_interleaves_output():
    net, m0 = build_miso((3, 2), 3, addresses=(0, 1, 1))
    script = addresses_to_script(net, (0, 1, 1))
    trace = run(net, m0, EagerOutputThenScript(script))
    assert [e.transition for e in trace.firings()] == ["T1", "T3", "T2", "T3", "T2", "T3"]
    assert trace.final.tokens_in("P_O") == ("d1", "d4", "d5")


def test_run_determinism():
    net, m0 = build_simo(4, 3, 2, addresses=(1, 0, 1))
    t1 = run(net, m0, AddressDriven())
    t2 = run(net, m0, AddressDriven())
    assert t1 == t2


def test_run_quiescence_under_unbounded_scheduler():
    for net, m0 in (
        build_siso(4, 3),
        build_miso((2, 1), 2, addresses=(0, 1)),
        build_priority(1, 2, 2, 2),
    ):
        trace = run(net, m0, AddressDriven())
        total_tokens = sum(m0.token_count(p) for p in m0.place_ids)
        assert len(trace.firings()) <= total_tokens * len(net.transitions)
        assert set(enabled_transitions(net, trace.final)) <= set(net.guard_map.values())


def test_no_tokens_nothing_enabled():
    net, m0 = build_priority(0, 0, 0, 0)
    assert enabled_transitions(net, m0) == []


def test_enumerate_zero_token_net():
    net, m0 = build_priority(0, 0, 0, 0)
    sigs = enumerate_final_markings(net, m0)
    assert sigs == {distribution_signature(m0): ()}


def test_enumerate_siso_single_outcome():
    net, m0 = build_siso(3, 2)
    sigs = enumerate_final_markings(net, m0)
    assert list(sigs) == [
        (("P_I", 1), ("P_A", 0), ("P_A1", 2), ("P_O", 2)),
    ]


def test_enumerate_simo_output_patterns():
    net, m0 = build_simo(4, 3, 2)
    sigs = enumerate_final_markings(net, m0)
    outputs = {
        tuple(c for p, c in sig if p in ("P_O1", "P_O2")): wit for sig, wit in sigs.items()
    }
    assert set(outputs) == {(3, 0), (2, 1), (1, 2), (0, 3)}


def test_enumeration_witnesses_replay():
    net, m0 = build_simo(4, 3, 2)
    for sig, witness in enumerate_final_markings(net, m0).items():
        net2, m2 = build_simo(4, 3, 2)
        trace = run(net2, m2, Scripted(witness))
        assert distribution_signature(trace.final) == sig


def test_enumeration_step_bound():
    # Three T1 firings reach the quiescent (3, 0) split, the only state
    # finished, with frames for the three markings above it still open.
    net, m0 = build_simo(4, 3, 2)
    with pytest.raises(ExplosionError) as info:
        enumerate_final_markings(net, m0, step_bound=3)
    err = info.value
    assert (err.fired, err.states, err.depth) == (3, 1, 3)
    assert str(err) == (
        "enumeration exceeded the step bound of 3 firings "
        "(3 firings explored, 1 distinct states finished, stack depth 3)"
    )


def _two_place_cycle():
    """T1: P1 -> P2 and T2: P2 -> P1 with one data token, which never quiesces."""
    places = [Place("P1", PlaceKind.INPUT), Place("P2", PlaceKind.OUTPUT)]
    transitions = [_transition("T1", [("P1", "P2")]), _transition("T2", [("P2", "P1")])]
    net = QPNet(places, transitions, [QToken("d1", TokenKind.DATA, basis_state(1, "0"))])
    return net, net.initial_marking({"P1": ["d1"]})


# Where the parent enumerator stopped: the same firing, states finished and
# stack depth, for pair entries (miso), two selector stages (mimo), gated
# payloads in the key, addressed and free selectors carried through a
# guard-relevant place that is not a selector supply (relay), a chain deeper
# than the recursion limit, and a cycle, whose states stay open on the stack
# and so are expanded again.
@pytest.mark.parametrize("make, bound, stop", [
    (lambda: build_miso((2, 2, 1), 3), 40, (40, 22, 4)),
    (lambda: build_mimo((2, 2), 3, 3), 60, (60, 31, 6)),
    (lambda: gated_relay_net(random.Random(6)), 20, (20, 15, 4)),
    (lambda: relay_net((0, None), (1, None), data=3), 20, (20, 10, 9)),
    (lambda: build_siso(2000, 2000), 1500, (1500, 0, 1501)),
    (_two_place_cycle, 50, (50, 0, 51)),
], ids=["miso", "mimo", "gated-relay", "relay", "siso-2000", "two-place-cycle"])
def test_enumeration_stops_at_the_same_firing(make, bound, stop):
    net, m0 = make()
    with pytest.raises(ExplosionError) as info:
        enumerate_final_markings(net, m0, step_bound=bound)
    err = info.value
    assert (err.fired, err.states, err.depth) == stop
    assert str(err) == (
        f"enumeration exceeded the step bound of {bound} firings ({stop[0]} firings "
        f"explored, {stop[1]} distinct states finished, stack depth {stop[2]})"
    )


@pytest.mark.parametrize("make", [
    lambda: gated_relay_net(random.Random(6)),
    lambda: build_mimo((2, 2), 3, 3),
], ids=["gated-relay", "mimo-free-selectors"])
def test_enumeration_reuses_the_nets_classes_and_step_memo(make):
    # Class ids and the per-plan step memo live on the net: a second
    # enumeration, and one from a second initial marking of the same net,
    # read the ids and memo entries the first one made.
    net, m0 = make()
    expected = reference_enumerate(net, m0)
    assert enumerate_final_markings(net, m0) == expected
    classes = len(net._classes)
    assert enumerate_final_markings(net, m0) == expected
    assert len(net._classes) == classes
    again = net.initial_marking({pid: list(m0.tokens_in(pid)) for pid in net.place_ids})
    assert enumerate_final_markings(net, again) == reference_enumerate(net, again)


def _fresh(net, marking):
    """``net`` compiled anew by ``QPNet``, and ``marking``'s tokens placed on it."""
    fresh = QPNet(net.places, net.transitions, net.tokens.values())
    return fresh, fresh.initial_marking({pid: list(marking.tokens_in(pid))
                                         for pid in marking.place_ids})


_STATIC = [f for f in engine._Plan._fields if f != "layouts"]


@pytest.mark.parametrize("make", [
    lambda: build_siso(3, 2),
    lambda: build_simo(4, 3, 2),
    lambda: build_simo(2, 2, 5, addresses=(4,)),
    lambda: build_miso((1, 2), 2),
    lambda: build_miso((2, 0, 1), 3, addresses=(2, 0)),
    lambda: build_mimo((1, 2), 2, 2),
    lambda: build_mimo((2, 1, 1), 3, 2),
    lambda: build_priority(2, 1, 2, 1),
    build_cnot_example,
], ids=["siso", "simo-2", "simo-5", "miso-2", "miso-3", "mimo-2x2", "mimo-3x3", "priority",
        "cnot"])
def test_builders_share_plans_equal_to_fresh_ones(make):
    # A builder hands nets of one shape one compiled structure; its plans
    # equal, in every static field, those ``QPNet`` compiles on its own.
    net, m0 = make()
    fresh, _ = _fresh(net, m0)
    assert fresh._shape is not net._shape
    assert list(fresh._plans) == list(net._plans)
    for tid, plan in net._plans.items():
        for name in _STATIC:
            assert getattr(plan, name) == getattr(fresh._plans[tid], name), (tid, name)
    assert [p.tid for p in net._ordered] == [p.tid for p in fresh._ordered]
    assert (net.place_ids, net._relevant, net._gated) == (
        fresh.place_ids, fresh._relevant, fresh._gated)
    again, _ = make()
    assert again._shape is net._shape and again._plans is net._plans
    assert again.tokens is not net.tokens
    assert again._classes is not net._classes and again._steps is not net._steps


def test_nets_of_one_shape_share_structure_not_state():
    # Nets of one shape, with other payload widths and addresses, enumerate
    # and run interleaved; each agrees with the reference enumeration and
    # with a net compiled on its own, byte for byte.
    wide = {f"d{i + 1}": basis_state(2, "10") for i in range(6)}
    narrow = {"d1": basis_state(1, "1")}
    pairs = [
        (lambda: build_simo(6, 6, 3), lambda: build_simo(6, 6, 3, wide, (2, 0, 1, 1))),
        (lambda: build_mimo((1, 2), 2, 2, narrow),
         lambda: build_mimo((1, 2), 2, 2, {"d1": basis_state(2, "11"),
                                           "d3": basis_state(2, "01")}, (1, 0), (0, 1))),
    ]
    for make_a, make_b in pairs:
        (a, a0), (b, b0) = make_a(), make_b()
        assert a._shape is b._shape
        for net, m0 in [(a, a0), (b, b0)] * 2:
            assert enumerate_final_markings(net, m0) == reference_enumerate(net, m0)
            fresh, fresh0 = _fresh(net, m0)
            assert enumerate_final_markings(fresh, fresh0) == enumerate_final_markings(net, m0)
            assert (emit_trace(run(net, m0, AddressDriven()))
                    == emit_trace(run(fresh, fresh0, AddressDriven())))


def _counting_fire(monkeypatch):
    """Route the engine's ``fire`` through a wrapper; the list collects fired ids."""
    calls = []
    real = engine.fire

    def counted(net, marking, tid):
        calls.append(tid)
        return real(net, marking, tid)

    monkeypatch.setattr(engine, "fire", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: build_simo(6, 5, 3),
    lambda: build_mimo((2, 2), 3, 3),
    lambda: gated_relay_net(random.Random(6)),
], ids=["simo", "mimo", "gated-relay"])
def test_enumeration_fires_no_marking(monkeypatch, make):
    net, m0 = make()
    expected = enumerate_final_markings(net, m0)
    calls = _counting_fire(monkeypatch)
    assert enumerate_final_markings(net, m0) == expected
    assert calls == []


def _wide_guard_net(gated: bool):
    """Free 1-qubit selectors relayed by R into the supply of guards 0 (T1) and 2 (T2)."""
    places = [Place("P_X", PlaceKind.INPUT), Place("P_I", PlaceKind.INPUT),
              Place("P_A", PlaceKind.ANCILLARY), Place("P_A1", PlaceKind.ANCILLARY),
              Place("P_O1", PlaceKind.OUTPUT), Place("P_O2", PlaceKind.OUTPUT)]
    transitions = [_transition("R", [("P_X", "P_A")])] + [
        _transition(f"T{g}", [("P_I", f"P_O{g}"), ("P_A", "P_A1")], guard=guard,
                    gate=(x(0),) if gated else ())
        for g, guard in ((1, 0), (2, 2))
    ]
    tokens = [QToken(f"d{i}", TokenKind.DATA, basis_state(1, "0")) for i in (1, 2)] + [
        QToken(f"z{i}", TokenKind.ANCILLARY, basis_state(1, "0")) for i in (1, 2)]
    net = QPNet(places, transitions, tokens)
    return net, net.initial_marking({"P_X": ["z1", "z2"], "P_I": ["d1", "d2"]})


def _single_pair_net(gated: bool):
    """T1 stages a fused (data, ancillary) pair, T2 a lone data token; T3 splits pairs."""
    places = [Place("P_I", PlaceKind.INPUT), Place("P_Z", PlaceKind.ANCILLARY),
              Place("P_S", PlaceKind.DATA_ANCILLARY), Place("P_A1", PlaceKind.ANCILLARY),
              Place("P_O", PlaceKind.OUTPUT)]
    transitions = [
        _transition("T1", [("P_I", "P_S"), ("P_Z", "P_S")]),
        _transition("T2", [("P_I", "P_S")]),
        _transition("T3", [("P_S", PairRoute(data_to="P_O", ancillary_to="P_A1"))],
                    gate=(x(0),) if gated else ()),
    ]
    tokens = [QToken(f"d{i}", TokenKind.DATA, basis_state(1, "0")) for i in (1, 2)] + [
        QToken("z1", TokenKind.ANCILLARY, basis_state(1, "0"))]
    net = QPNet(places, transitions, tokens)
    return net, net.initial_marking({"P_I": ["d1", "d2"], "P_Z": ["z1"]})


@pytest.mark.parametrize("make, message, path", [
    (_wide_guard_net, "guard 2 does not fit selector z2's 1-qubit payload",
     ["R", "R", "T1", "T2"]),
    (_single_pair_net,
     "transition T3: pair routing needs a (data, ancillary) entry, got ('d2',)",
     ["T1", "T2", "T3", "T3"]),
], ids=["guard-width", "pair-routing"])
@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_enumeration_replays_errors_that_name_tokens(monkeypatch, make, message, path, gated):
    # The error comes after other firings, and names a token the quotient
    # key does not hold: the failing step is replayed with ``fire`` along
    # the depth-first path, and no other firing calls it.
    net, m0 = make(gated)
    with pytest.raises(ModelError) as reference:
        reference_enumerate(net, m0)
    assert str(reference.value) == message
    calls = _counting_fire(monkeypatch)
    with pytest.raises(ModelError) as info:
        enumerate_final_markings(net, m0)
    assert str(info.value) == message
    assert calls == path


def test_gated_data_selector_keeps_its_address_in_the_key():
    # A data token d2 serves as the free selector of U0 (which flips its
    # payload) or U1 (which leaves it): either way it reaches P_B as |1>,
    # with address 0 or 1, and that address picks V0 or V1.  A key holding
    # only a gated data token's amplitude bytes merges the two states and
    # loses the P_O1 outcome.
    places = [Place(pid, PlaceKind.INPUT) for pid in ("P_I", "P_M")] + [
        Place(pid, PlaceKind.ANCILLARY) for pid in ("P_A", "P_B", "P_C")] + [
        Place(pid, PlaceKind.OUTPUT) for pid in ("P_O0", "P_O1")]
    transitions = [
        _transition(f"U{g}", [("P_I", "P_M"), ("P_A", "P_B")], guard=g, gate=gate)
        for g, gate in ((0, (x(0),)), (1, (identity(0),)))
    ] + [
        _transition(f"V{g}", [("P_M", f"P_O{g}"), ("P_B", "P_C")], guard=g)
        for g in (0, 1)
    ]
    tokens = [QToken(f"d{i}", TokenKind.DATA, basis_state(1, "0")) for i in (1, 2)]
    net = QPNet(places, transitions, tokens)
    m0 = net.initial_marking({"P_I": ["d1"], "P_A": ["d2"]})
    outcomes = enumerate_final_markings(net, m0)
    assert list(outcomes.items()) == list(reference_enumerate(net, m0).items())
    assert {(dict(sig)["P_O0"], dict(sig)["P_O1"]): w for sig, w in outcomes.items()} == {
        (1, 0): ("U0", "V0"), (0, 1): ("U1", "V1")}


def test_marking_validation_against_wrong_net():
    net_a, m_a = build_siso(2, 1)
    net_b, m_b = build_simo(4, 3, 2)
    m1, event = fire(net_b, m_b, "T1")
    for call in (lambda: enabled_transitions(net_b, m_a), lambda: fire(net_a, m_b, "T1"),
                 lambda: unfire(net_a, m1, event)):
        with pytest.raises(ModelError, match="^marking places disagree with the net$"):
            call()


def test_marking_in_another_place_order_is_rejected_and_round_trips():
    net, m0 = build_siso(2, 2)
    order = m0.place_ids[::-1]
    reordered = Marking({pid: m0.entries(pid) for pid in order}, m0.payloads, m0.addresses,
                        time=0)
    for call in (lambda: fire(net, reordered, "T1"),
                 lambda: enabled_transitions(net, reordered),
                 lambda: enumerate_final_markings(net, reordered),
                 lambda: run(net, reordered, Scripted(("T1",)))):
        with pytest.raises(ModelError, match="^marking places disagree with the net$"):
            call()
    parsed = parse_trace(emit_trace(Trace(reordered, (), reordered)))
    assert parsed.initial.place_ids == parsed.final.place_ids == order
    assert parsed.initial == reordered and parsed.final == reordered


def test_initial_marking_requires_every_token_placed():
    net, _ = build_siso(2, 1)
    with pytest.raises(ModelError):
        net.initial_marking({"P_I": ["d1", "d2"]})  # z1 never placed


def test_marking_rejects_duplicate_token():
    net, _ = build_siso(2, 1)
    with pytest.raises(ModelError):
        Marking(
            {"P_I": (("d1",), ("d1",)), "P_A": (("z1",),), "P_A1": (), "P_O": ()},
            {"d1": basis_state(1, "0"), "z1": basis_state(1, "0")},
            {"d1": None, "z1": None},
            time=0,
        )


def test_pair_entries_count_two_tokens():
    net, m0 = build_miso((2, 1), 2, addresses=(0, 0))
    m1, _ = fire(net, m0, "T1")
    assert m1.entry_count("P_DA") == 1
    assert m1.token_count("P_DA") == 2
    assert m1.entries("P_DA") == (("d1", "z1"),)  # data first in the fused pair


def test_total_token_count_constant_in_signature():
    net, m0 = build_miso((2, 1), 2)
    total = sum(m0.token_count(p) for p in m0.place_ids)
    for sig in enumerate_final_markings(net, m0):
        assert sum(c for _, c in sig) == total


def test_enumerate_long_chain_needs_no_recursion():
    import sys

    limit = sys.getrecursionlimit()
    net, m0 = build_siso(2000, 2000)
    outcomes = enumerate_final_markings(net, m0)
    assert sys.getrecursionlimit() == limit
    assert list(outcomes) == [(("P_I", 0), ("P_A", 0), ("P_A1", 2000), ("P_O", 2000))]
    assert len(next(iter(outcomes.values()))) == 2000


def test_derived_marking_from_other_net_still_rejected():
    net_a, m_a = build_siso(2, 1)
    net_b, _ = build_simo(4, 3, 2)
    enabled_transitions(net_a, m_a)  # validated against net_a
    m1, _ = fire(net_a, m_a, "T1")
    with pytest.raises(ModelError):
        enabled_transitions(net_b, m1)


def test_unfire_rejects_event_that_swaps_tokens():
    net, m0 = build_siso(2, 2)
    m1, event = fire(net, m0, "T1")
    forged = event._replace(consumed=(event.consumed[0]._replace(token="d2"),)
                            + event.consumed[1:])
    with pytest.raises(ReversalError, match="^event consumes and produces different tokens$"):
        unfire(net, m1, forged)


# Every error branch of fire and unfire, by type and message.


def _not_made(tid: str, detail: str) -> str:
    """The pattern of ``unfire``'s refusal where firing ``tid`` forward does not make the event."""
    return f"^{tid} does not make this event from the marking it restores: {re.escape(detail)}$"


def test_unfire_rejects_marking_out_of_time():
    net, m0 = build_siso(2, 2)
    _, event = fire(net, m0, "T1")
    with pytest.raises(ReversalError, match="^marking time 0 does not follow event time 0$"):
        unfire(net, m0, event)


def test_unfire_rejects_event_whose_entries_are_not_at_the_tails():
    # T1 and T2 are both enabled at t=0; T2's marking does not end in T1's deposit.
    net, m0 = build_priority(1, 1, 1, 1)
    _, e1 = fire(net, m0, "T1")
    m1b, _ = fire(net, m0, "T2")
    with pytest.raises(
        ReversalError, match=r"^queue tail of P_DA1 does not match event entry \('d1', 'w1'\)$"
    ):
        unfire(net, m1b, e1)


def test_unfire_rejects_event_with_another_produced_payload():
    net, m0 = build_siso(2, 2)
    m1, event = fire(net, m0, "T1")
    d1 = event.produced[0]._replace(payload=basis_state(1, "1"))
    forged = event._replace(produced=(d1,) + event.produced[1:])
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced moves differ")):
        unfire(net, m1, forged)


def test_unfire_rejects_gated_event_whose_gate_does_not_give_its_payloads():
    net, m0 = build_cnot_example()
    m1, event = fire(net, m0, "T1")  # CNOT(a=|1>, d=|0>) leaves d=|1>
    wrong = basis_state(1, "0")
    d = event.produced[1]._replace(payload=wrong)
    forged = event._replace(produced=(event.produced[0], d))
    # A marking that agrees with the forged event, so only firing T1 forward tells.
    m1_forged = Marking(
        {pid: m1.entries(pid) for pid in m1.place_ids},
        {**m1.payloads, "d": wrong},
        dict(m1.addresses),
        time=m1.time,
    )
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced moves differ")):
        unfire(net, m1_forged, forged)


def test_unfire_rejects_gated_event_whose_consumed_payloads_do_not_fire():
    net, m0 = build_cnot_example()
    m1, event = fire(net, m0, "T1")
    # A superposed control entangles CNOT's output, which no firing splits.
    a = event.consumed[0]._replace(payload=m0.payload("c"))
    forged = event._replace(consumed=(a,) + event.consumed[1:])
    with pytest.raises(ReversalError) as info:
        unfire(net, m1, forged)
    assert type(info.value) is ReversalError
    assert str(info.value) == ("T1 does not make this event from the marking it restores: "
                               "gate entangled the payloads across token boundaries")


def test_unfire_rejects_an_event_of_a_transition_the_net_lacks():
    net, m1, event = _siso_firing()
    with pytest.raises(ReversalError) as info:
        unfire(net, m1, event._replace(transition="T9"))
    assert type(info.value) is ReversalError
    assert str(info.value) == "unknown transition 'T9'"


def test_unfire_rejects_a_produced_move_to_a_place_the_net_lacks():
    net, m1, event = _siso_firing()
    forged = event._replace(produced=(event.produced[0]._replace(place="P_X"),)
                            + event.produced[1:])
    with pytest.raises(ReversalError,
                       match=r"^queue tail of P_X does not match event entry \('d1',\)$"):
        unfire(net, m1, forged)


def test_unfire_rejects_an_event_that_moves_a_token_the_net_lacks():
    # miso's T1 reads its tokens' kinds to stage them as a pair; a token the
    # net lacks is refused before any candidate marking is built.
    net, m0 = build_miso((1, 0), 1, addresses=(0,))
    m1, event = fire(net, m0, "T1")
    consumed = (event.consumed[0]._replace(token="dX"),) + event.consumed[1:]
    with pytest.raises(ReversalError, match="^event consumes and produces different tokens$"):
        unfire(net, m1, event._replace(consumed=consumed))
    produced = (event.produced[0]._replace(token="dX"),) + event.produced[1:]
    with pytest.raises(ReversalError,
                       match=r"^queue tail of P_DA does not match event entry \('dX', 'z1'\)$"):
        unfire(net, m1, event._replace(consumed=consumed, produced=produced))


def test_unfire_rejects_a_marking_that_holds_other_produced_states():
    # The event is fire's own; the marking gives d1 a payload T1 did not produce.
    net, m1, event = _siso_firing()
    forged = Marking(m1.queues, {**m1.payloads, "d1": basis_state(1, "1")}, m1.addresses,
                     time=m1.time)
    with pytest.raises(ReversalError,
                       match=_not_made("T1", "the marking holds other produced states")):
        unfire(net, forged, event)


def test_fire_rejects_guard_wider_than_free_selector():
    places = [Place("P_I", PlaceKind.INPUT), Place("P_A", PlaceKind.ANCILLARY),
              Place("P_A1", PlaceKind.ANCILLARY), Place("P_O", PlaceKind.OUTPUT)]
    t1 = _transition("T1", [("P_I", "P_O"), ("P_A", "P_A1")], guard=2)
    tokens = [QToken("d1", TokenKind.DATA, basis_state(1, "0")),
              QToken("z1", TokenKind.ANCILLARY, basis_state(1, "0"))]
    net = QPNet(places, [t1], tokens)
    m0 = net.initial_marking({"P_I": ["d1"], "P_A": ["z1"]})
    assert enabled_transitions(net, m0) == ["T1"]  # a free selector matches any guard
    with pytest.raises(ModelError, match="^guard 2 does not fit selector z1's 1-qubit payload$"):
        fire(net, m0, "T1")


def test_fire_rejects_pair_route_of_a_single_token():
    places = [Place("P_I", PlaceKind.INPUT), Place("P_A1", PlaceKind.ANCILLARY),
              Place("P_O", PlaceKind.OUTPUT)]
    t1 = _transition("T1", [("P_I", PairRoute(data_to="P_O", ancillary_to="P_A1"))])
    net = QPNet(places, [t1], [QToken("d1", TokenKind.DATA, basis_state(1, "0"))])
    m0 = net.initial_marking({"P_I": ["d1"]})
    with pytest.raises(
        ModelError,
        match=r"^transition T1: pair routing needs a \(data, ancillary\) entry, got \('d1',\)$",
    ):
        fire(net, m0, "T1")


def test_net_rejects_two_input_arcs_from_one_place():
    places = [Place("P_I", PlaceKind.INPUT), Place("P_O", PlaceKind.OUTPUT)]
    t1 = _transition("T1", [("P_I", "P_O"), ("P_I", "P_O")])
    with pytest.raises(ModelError, match="^transition T1: two input arcs from one place$"):
        QPNet(places, [t1], [QToken("d1", TokenKind.DATA, basis_state(1, "0"))])


# Every wiring, token and marking check, by type and exact message.

_WIRING_PLACES = (Place("P_I", PlaceKind.INPUT), Place("P_A", PlaceKind.ANCILLARY),
                  Place("P_O", PlaceKind.OUTPUT))


def _wiring_net(transitions=(), places=_WIRING_PLACES, tokens=("d1",)):
    return QPNet(places, transitions,
                 [QToken(tok, TokenKind.DATA, basis_state(1, "0")) for tok in tokens])


def _wired(inputs=(("P_I", "x1"),), **changes):
    """T1 from (place, label) input arcs with x1 routed to P_O, built from the engine's types."""
    t1 = Transition("T1", tuple(Arc(p, "T1", "in", label) for p, label in inputs),
                    (Arc("P_O", "T1", "out", "f1"),), {"x1": "P_O"})
    return replace(t1, **changes)


def _marking_missing_a_token():
    net, m0 = build_siso(2, 1)
    queues = {pid: m0.entries(pid) for pid in m0.place_ids}
    queues["P_I"] = queues["P_I"][:1]
    enabled_transitions(net, Marking(queues, m0.payloads, m0.addresses, time=0))


def _shared_guard():
    t1 = _transition("T1", [("P_I", "P_O"), ("P_A", "P_O")], guard=0)
    return _wiring_net([t1, replace(t1, id="T2")]).guard_map


@pytest.mark.parametrize("make, error, message", [
    (lambda: _wiring_net(tokens=("d1", "d1")), ModelError, "duplicate token id 'd1'"),
    (lambda: _wiring_net(places=_WIRING_PLACES * 2), ModelError, "duplicate place ids"),
    (lambda: _wiring_net([_wired(), _wired()]), ModelError,
     "duplicate transition ids"),
    (lambda: _wiring_net([_wired(inputs=[("P_X", "x1")])]), ModelError,
     "transition T1: unknown place 'P_X'"),
    (lambda: _wiring_net([_wired(inputs=[("P_I", "x1"), ("P_A", "x1")])]), ModelError,
     "transition T1: duplicate input arc labels"),
    (lambda: _wiring_net([_wired(inputs=[("P_I", "x1"), ("P_A", "x2")])]), ModelError,
     "transition T1: routing must cover exactly the input arc labels"),
    (lambda: _wiring_net([_wired(output_arcs=())]), ModelError,
     "transition T1: routing of 'x1' targets 'P_O', which is not an output-arc place"),
    (lambda: _wiring_net([_wired(address_guard=0)]), ModelError,
     "transition T1: an address guard needs an ancillary input place"),
    (lambda: QToken("d1", TokenKind.DATA, basis_state(1, "0"), address=0), ModelError,
     "token d1: only ancillary tokens carry addresses"),
    (lambda: QToken("z1", TokenKind.ANCILLARY, StateVector(1, [2**-0.5, 2**-0.5]), address=0),
     ModelError,
     "token z1: address requires a basis-state payload, superposed selectors are not supported"),
    (lambda: QToken("z1", TokenKind.ANCILLARY, basis_state(1, "1"), address=0), ModelError,
     "token z1: address 0 disagrees with payload |1>"),
    (lambda: QToken("z1", TokenKind.ANCILLARY, basis_state(1, "1"), address=1.0), ModelError,
     "token z1: address 1.0 is not an int"),
    (lambda: QToken("z1", TokenKind.ANCILLARY, basis_state(1, "1"), address=True), ModelError,
     "token z1: address True is not an int"),
    (lambda: QToken("d2", TokenKind.DATA, "0"), ModelError,
     "token d2: payload of type str is not a StateVector"),
    (lambda: QToken("d1", "data", basis_state(1, "0")), ModelError,
     "token d1: kind 'data' is not a TokenKind"),
    (lambda: _wiring_net().initial_marking({"P_X": []}), ModelError, "unknown place 'P_X'"),
    (lambda: _wiring_net().initial_marking({"P_I": ["d9"]}), ModelError, "unknown token 'd9'"),
    (lambda: _wiring_net().initial_marking({"P_I": ["d1"], "P_A": ["d1"]}), ModelError,
     "token 'd1' assigned to more than one place"),
    (lambda: _wiring_net(tokens=("d1", "d2", "d3", "d2", "d1")), ModelError,
     "duplicate token id 'd2'"),
    (lambda: _wiring_net(tokens=("d1", "d2")).initial_marking(
        {"P_I": ["d1"], "P_A": ["d9", "d1"]}), ModelError, "unknown token 'd9'"),
    (lambda: _wiring_net(tokens=("d1", "d2")).initial_marking(
        {"P_I": ["d1"], "P_A": ["d1", "d9"]}), ModelError,
     "token 'd1' assigned to more than one place"),
    (lambda: _wiring_net(tokens=("d3", "d1", "d2", "d10")).initial_marking({"P_I": ["d2"]}),
     ModelError, "tokens never placed: ['d1', 'd10', 'd3']"),
    (lambda: _wiring_net().initial_marking({"P_X": [], "P_I": ["d9"]}), ModelError,
     "unknown place 'P_X'"),
    (lambda: _wiring_net().initial_marking({"P_I": ["d9"], "P_X": ["d1"]}), ModelError,
     "unknown token 'd9'"),
    (lambda: _wiring_net().initial_marking({"P_I": ["d1"], "P_X": ["d1"]}), ModelError,
     "unknown place 'P_X'"),
    (lambda: _wiring_net().initial_marking({"P_I": ["d1"], "P_X": []}), ModelError,
     "unknown place 'P_X'"),
    (lambda: build_siso(1, 1)[1].entries("P_X"), ModelError, "unknown place 'P_X'"),
    (_marking_missing_a_token, ModelError, "marking tokens disagree with the net"),
    (_shared_guard, ModelError, "guard value 0 is used by both T1 and T2"),
    (lambda: addresses_to_script(build_simo(2, 2, 2)[0], [0, 5]), ModelError,
     "no transition is guarded by address 5"),
], ids=["token-ids", "place-ids", "transition-ids", "unknown-place", "input-labels",
        "routing-cover", "routing-target", "guard-selector", "data-address",
        "superposed-address", "address-payload", "float-address", "bool-address",
        "payload-type", "kind-type",
        "marking-place", "unknown-token", "token-twice", "first-duplicate-token",
        "unknown-before-twice", "twice-before-unknown", "never-placed-sorted",
        "place-before-token", "token-before-place", "place-before-twice", "only-place",
        "marking-entries", "marking-tokens",
        "shared-guard", "unknown-address"])
def test_wiring_and_token_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


# Forged events that would duplicate, lose or fuse tokens.


def _siso_firing():
    net, m0 = build_siso(2, 2)
    m1, event = fire(net, m0, "T1")
    return net, m1, event


def test_unfire_rejects_produced_sizes_that_drop_a_move():
    net, m1, event = _siso_firing()
    with pytest.raises(ReversalError, match="^event entry sizes do not add up to its moves$"):
        unfire(net, m1, event._replace(produced_entry_sizes=(1,)))


def test_unfire_rejects_consumed_sizes_that_drop_a_move():
    net, m1, event = _siso_firing()
    with pytest.raises(ReversalError, match="^event entry sizes do not add up to its moves$"):
        unfire(net, m1, event._replace(consumed_entry_sizes=(1,)))


def test_unfire_rejects_empty_entry():
    net, m1, event = _siso_firing()
    d1, z1 = event.consumed
    forged = event._replace(consumed=(d1, z1._replace(place="P_I")), consumed_entry_sizes=(2, 0))
    with pytest.raises(ReversalError, match="^event has an empty entry$"):
        unfire(net, m1, forged)
    with pytest.raises(ReversalError, match="^event has an empty entry$"):
        unfire(net, m1, event._replace(produced_entry_sizes=(2, 0)))
    with pytest.raises(ReversalError, match="^event has an empty entry$"):
        unfire(net, m1, event._replace(produced_entry_sizes=(3, -1)))


def test_unfire_rejects_consumed_sizes_that_fuse_two_arcs():
    net, m1, event = _siso_firing()
    with pytest.raises(ReversalError, match="^T1 consumes one entry per input arc: 2, not 1$"):
        unfire(net, m1, event._replace(consumed_entry_sizes=(2,)))


def test_unfire_rejects_consumed_move_from_another_place():
    net, m1, event = _siso_firing()
    forged = event._replace(consumed=(event.consumed[0]._replace(place="P_A"),)
                            + event.consumed[1:])
    with pytest.raises(ReversalError, match=_not_made("T1", "its consumed moves differ")):
        unfire(net, m1, forged)


def test_unfire_rejects_token_moved_twice():
    net, m1, event = _siso_firing()
    d1 = event.consumed[0]
    forged = event._replace(consumed=(d1, d1._replace(place="P_A")),
                            produced=(event.produced[0], event.produced[0]._replace(place="P_A1")))
    with pytest.raises(ReversalError, match="^event moves a token twice$"):
        unfire(net, m1, forged)


def _with_tails(marking, tails):
    """``marking`` with the tail entry of each listed place replaced."""
    queues = {pid: marking.entries(pid) for pid in marking.place_ids}
    for pid, entry in tails.items():
        queues[pid] = queues[pid][:-1] + (entry,)
    return Marking(queues, marking.payloads, marking.addresses, time=marking.time)


def _swap_produced_places(event):
    first, second = event.produced
    return event._replace(produced=(first._replace(place=second.place),
                                    second._replace(place=first.place)))


def test_unfire_rejects_tokens_produced_where_the_plan_does_not_route_them():
    # siso's T1 routes d1 to P_O and z1 to P_A1; a marking and an event that
    # agree with each other but swap the two must not unwind.
    net, m0 = build_siso(2, 1)
    m1, event = fire(net, m0, "T1")
    forged = _with_tails(m1, {"P_O": ("z1",), "P_A1": ("d1",)})
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced moves differ")):
        unfire(net, forged, _swap_produced_places(event))


def test_unfire_rejects_a_pair_split_the_other_way():
    # miso's T3 splits the staged (d1, z1) pair: data to P_O, selector to P_A1.
    net, m0 = build_miso((1, 0), 1, addresses=(0,))
    m1, _ = fire(net, m0, "T1")
    m2, event = fire(net, m1, "T3")
    assert [(m.token, m.place) for m in event.produced] == [("d1", "P_O"), ("z1", "P_A1")]
    forged = _with_tails(m2, {"P_O": ("z1",), "P_A1": ("d1",)})
    with pytest.raises(ReversalError, match=_not_made("T3", "its produced moves differ")):
        unfire(net, forged, _swap_produced_places(event))


def test_unfire_rejects_a_pair_route_given_a_single_token():
    # Only d1 leaves the staging place: fire(T3) could not have made this
    # event, since its pair route needs a (data, ancillary) entry.
    net, m0 = build_miso((1, 0), 1, addresses=(0,))
    m1, _ = fire(net, m0, "T1")
    m2, event = fire(net, m1, "T3")
    queues = {pid: m2.entries(pid) for pid in m2.place_ids}
    queues["P_A1"], queues["P_DA"] = (), (("z1",),)
    forged = Marking(queues, m2.payloads, m2.addresses, time=m2.time)
    single = event._replace(consumed=event.consumed[:1], produced=event.produced[:1],
                            consumed_entry_sizes=(1,), produced_entry_sizes=(1,))
    with pytest.raises(
        ReversalError, match=_not_made(
            "T3", "transition T3: pair routing needs a (data, ancillary) entry, got ('d1',)")
    ):
        unfire(net, forged, single)


def test_unfire_rejects_produced_entries_grouped_otherwise_than_the_plan():
    # miso's T1 stages d1 and z1 as one fused pair; an event and a marking
    # that agree on two single entries must not unwind, since firing T1
    # from the restored marking fuses them again.
    net, m0 = build_miso((1, 0), 1, addresses=(0,))
    m1, event = fire(net, m0, "T1")
    split = Marking({**m1.queues, "P_DA": (("d1",), ("z1",))}, m1.payloads, m1.addresses,
                    time=m1.time)
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced entry sizes differ")):
        unfire(net, split, event._replace(produced_entry_sizes=(1, 1)))


def test_unfire_rejects_produced_entries_in_another_order():
    # siso's T1 deposits d1, then z1; the two tails are in different places,
    # so the marking agrees with the reordered event.
    net, m0 = build_siso(2, 1)
    m1, event = fire(net, m0, "T1")
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced moves differ")):
        unfire(net, m1, event._replace(produced=event.produced[::-1]))


def test_unfire_rejects_an_event_inhibited_in_the_marking_it_restores():
    # T3 delivers the low-priority pair; after T2 stages a high-priority pair,
    # T3's deposits are still at their tails, but T3 is inhibited there.
    net, m0 = build_priority(1, 1, 1, 1)
    m1, _ = fire(net, m0, "T1")
    m2, e3 = fire(net, m1, "T3")
    m3, _ = fire(net, m2, "T2")
    with pytest.raises(ReversalError, match=_not_made("T3", "transition T3 cannot fire")):
        unfire(net, m3, e3._replace(time=2))


@pytest.mark.parametrize("addresses, message", [
    # z1 is restored with address 0, and T2 is guarded by 1.
    ((0, 1), "transition T2 cannot fire"),
    # A free z1 is restored, which T2 would materialize as |1>, not |0>.
    (None, "its produced moves differ"),
], ids=["seeded", "free"])
def test_unfire_rejects_a_t1_event_relabelled_t2(addresses, message):
    # simo's T1 and T2 differ only in their guard and data output.
    net, m0 = build_simo(2, 2, 2, addresses=addresses)
    m1, event = fire(net, m0, "T1")
    moved = Marking({**m1.queues, "P_O1": (), "P_O2": (("d1",),)}, m1.payloads, m1.addresses,
                    time=m1.time)
    d1, z1 = event.produced
    relabelled = event._replace(transition="T2", produced=(d1._replace(place="P_O2"), z1))
    with pytest.raises(ReversalError, match=_not_made("T2", message)):
        unfire(net, moved, relabelled)


def test_unfire_rejects_an_event_that_changes_an_ungated_payload():
    # siso's T1 has no gate, so it cannot take d1 from |1> to |0>.
    net, m0 = build_siso(2, 1)
    m1, event = fire(net, m0, "T1")
    d1, z1 = event.consumed
    forged = event._replace(consumed=(d1._replace(payload=basis_state(1, "1")), z1))
    with pytest.raises(ReversalError, match=_not_made("T1", "its produced moves differ")):
        unfire(net, m1, forged)


def test_marking_tables_must_cover_exactly_its_tokens():
    message = "^marking payloads and addresses must cover exactly its tokens$"
    net, m0 = build_siso(2, 1)
    with pytest.raises(ModelError, match=message):
        fire(net, Marking(m0.queues, {}, {}, 0), "T1")
    net, m0 = build_simo(2, 1, 2)
    addresses = {tok: a for tok, a in m0.addresses.items() if tok != "z1"}
    for call in (enabled_transitions, lambda net, m: run(net, m, AddressDriven()),
                 enumerate_final_markings):
        with pytest.raises(ModelError, match=message):
            call(net, Marking(m0.queues, m0.payloads, addresses, 0))


# Firing at depth: constant memory per call, linear chains.


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fire_and_unfire_allocate_constant_memory_deep_in_a_chain():
    net, marking = build_siso(20_000, 20_000)
    for _ in range(10_000):
        marking, _ = fire(net, marking, "T1")
    (after, event), fire_peak = _traced_peak(fire, net, marking, "T1")
    back, unfire_peak = _traced_peak(unfire, net, after, event)
    assert back == marking
    assert fire_peak < 16 * 1024, fire_peak
    assert unfire_peak < 16 * 1024, unfire_peak


def test_enumerate_siso_10k_chain_in_linear_time():
    start = time.perf_counter()
    net, m0 = build_siso(10_000, 10_000)
    outcomes = enumerate_final_markings(net, m0)
    elapsed = time.perf_counter() - start
    assert list(outcomes) == [(("P_I", 0), ("P_A", 0), ("P_A1", 10_000), ("P_O", 10_000))]
    assert next(iter(outcomes.values())) == ("T1",) * 10_000
    assert elapsed < 1.5, elapsed


def test_enumerate_simo_64_free_selectors_in_count_space():
    start = time.perf_counter()
    net, m0 = build_simo(64, 64, 2)
    outcomes = enumerate_final_markings(net, m0)
    assert time.perf_counter() - start < 10.0
    assert len(outcomes) == 65
    assert {dict(sig)["P_O1"] for sig in outcomes} == set(range(65))
    for sig, witness in outcomes.items():
        net2, m2 = build_simo(64, 64, 2)
        assert distribution_signature(run(net2, m2, Scripted(witness)).final) == sig


def test_enumerate_siso_4000_chain():
    start = time.perf_counter()
    net, m0 = build_siso(4000, 4000)
    outcomes = enumerate_final_markings(net, m0)
    assert time.perf_counter() - start < 15.0
    assert list(outcomes) == [(("P_I", 0), ("P_A", 0), ("P_A1", 4000), ("P_O", 4000))]
    assert next(iter(outcomes.values())) == ("T1",) * 4000


def test_marking_compares_only_with_markings():
    _, m0 = build_siso(1, 1)
    assert m0.__eq__(m0.key()) is NotImplemented
    assert m0 != m0.key()


def test_run_rejects_an_unknown_scheduler():
    net, m0 = build_siso(1, 1)
    with pytest.raises(ModelError) as info:
        run(net, m0, "eager")
    assert type(info.value) is ModelError
    assert str(info.value) == "unknown scheduler 'eager'"


def test_enumeration_through_a_gate_that_meets_no_data_token():
    # T1's gate would act on data payloads, but T1 moves only the ancillary
    # z1, so it leaves every payload alone, as fire does.
    places = [Place("P_I", PlaceKind.INPUT), Place("P_A", PlaceKind.ANCILLARY),
              Place("P_A1", PlaceKind.ANCILLARY), Place("P_O", PlaceKind.OUTPUT)]
    t1 = _transition("T1", [("P_A", "P_A1")], gate=(x(0),))
    t2 = _transition("T2", [("P_I", "P_O"), ("P_A1", "P_A")])
    tokens = [QToken("d1", TokenKind.DATA, basis_state(1, "0")),
              QToken("z1", TokenKind.ANCILLARY, basis_state(1, "1"))]
    net = QPNet(places, [t1, t2], tokens)
    m0 = net.initial_marking({"P_I": ["d1"], "P_A": ["z1"]})
    m1, _ = fire(net, m0, "T1")
    assert m1.payloads == m0.payloads
    outcomes = enumerate_final_markings(net, m0)
    assert outcomes == {(("P_I", 0), ("P_A", 0), ("P_A1", 1), ("P_O", 1)): ("T1", "T2", "T1")}
    assert outcomes == reference_enumerate(net, m0)
