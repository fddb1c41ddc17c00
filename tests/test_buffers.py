import inspect
import json

import pytest

from qpnbuf import buffers
from qpnbuf.buffers import (
    KIND_TABLE,
    KINDS,
    BufferSpec,
    build_mimo,
    build_miso,
    build_priority,
    build_simo,
    build_siso,
    run_scenario,
)
from qpnbuf.engine import (
    AddressDriven,
    EagerOutputThenScript,
    Scripted,
    addresses_to_script,
    enabled_transitions,
    enumerate_final_markings,
    fire,
    run,
)
from qpnbuf.cli import main
from qpnbuf.errors import NotEnabledError, SpecError
from qpnbuf.statevector import basis_state


def counts_of(marking, *places):
    return tuple(marking.token_count(p) for p in places)


# SISO


def test_siso_initial_counts():
    _, m0 = build_siso(4, 3)
    assert counts_of(m0, "P_I", "P_A", "P_A1", "P_O") == (4, 3, 0, 0)


def test_siso_runs_to_quiescence():
    net, m0 = build_siso(3, 2)
    trace = run(net, m0, AddressDriven())
    assert trace.final.tokens_in("P_O") == ("d1", "d2")
    assert trace.final.tokens_in("P_A1") == ("z1", "z2")
    assert trace.final.tokens_in("P_I") == ("d3",)


def test_siso_minimal_single_firing():
    net, m0 = build_siso(1, 1)
    m1, _ = fire(net, m0, "T1")
    assert enabled_transitions(net, m1) == []


def test_siso_rejects_m_above_n():
    with pytest.raises(SpecError):
        build_siso(2, 3)


# SIMO


def test_simo_addressed_run():
    net, m0 = build_simo(
        4, 3, 2,
        payloads={"d1": basis_state(1, "1"), "d2": basis_state(1, "0"),
                  "d3": basis_state(1, "1"), "d4": basis_state(1, "1")},
        addresses=(1, 0, 1),
    )
    trace = run(net, m0, AddressDriven())
    assert trace.final.tokens_in("P_O2") == ("d1", "d3")
    assert trace.final.tokens_in("P_O1") == ("d2",)
    assert trace.final.tokens_in("P_I") == ("d4",)
    assert trace.final.tokens_in("P_A1") == ("z1", "z2", "z3")


def test_simo_enumeration_four_patterns():
    net, m0 = build_simo(4, 3, 2)
    sigs = enumerate_final_markings(net, m0)
    patterns = {tuple(c for p, c in sig if p in ("P_O1", "P_O2")) for sig in sigs}
    assert patterns == {(3, 0), (2, 1), (1, 2), (0, 3)}


def test_simo_rejects_out_of_range_address():
    with pytest.raises(SpecError):
        build_simo(4, 3, 2, addresses=(2,))


def test_simo_zero_capacity_nothing_fires():
    net, m0 = build_simo(4, 0, 2)
    assert enabled_transitions(net, m0) == []


def test_zero_capacity_scenario_empty_trace():
    trace = run_scenario(BufferSpec(kind="siso", n=2, m=0))
    assert trace.events == ()
    assert trace.final == trace.initial


def test_simo_selector_widths_cover_k():
    net, m0 = build_simo(4, 3, 4, addresses=(3, 0, 2))
    assert m0.payload("z1").num_qubits == 2
    assert m0.payload("z1").basis_label() == "11"
    trace = run(net, m0, AddressDriven())
    assert trace.final.tokens_in("P_O4") == ("d1",)
    assert trace.final.tokens_in("P_O3") == ("d3",)


def test_builders_share_one_basis_payload_per_width_and_value():
    _, m0 = build_simo(3, 3, 4, addresses=(2,))
    assert m0.payload("d1") is m0.payload("d3")
    assert m0.payload("z2") is m0.payload("z3")  # free selectors, |00>
    assert m0.payload("z2").basis_label() == "00"
    _, m1 = build_siso(2, 2)
    assert m1.payload("d1") is m1.payload("z2") is m0.payload("d2")


# MISO


def test_miso_initial_counts_match_layout():
    _, m0 = build_miso((3, 2), 3)
    assert counts_of(m0, "P_I1", "P_I2", "P_DA", "P_A", "P_A1", "P_O") == (3, 2, 0, 3, 0, 0)


def test_miso_firing_capacity_per_input():
    # First input place holds 2 tokens, second holds 1, capacity 2:
    # the first input transition can fire twice, the second only once.
    net, m0 = build_miso((2, 1), 2, addresses=(0, 0))
    m1, _ = fire(net, m0, "T1")
    m2, _ = fire(net, m1, "T1")
    assert m2.token_count("P_I1") == 0
    net, m0 = build_miso((2, 1), 2, addresses=(1, 1))
    m1, _ = fire(net, m0, "T2")
    assert "T2" not in enabled_transitions(net, m1)


def test_miso_eager_run_order_and_output():
    net, m0 = build_miso((3, 2), 3, addresses=(0, 1, 1))
    trace = run(net, m0, EagerOutputThenScript(addresses_to_script(net, (0, 1, 1))))
    assert [e.transition for e in trace.firings()] == ["T1", "T3", "T2", "T3", "T2", "T3"]
    assert trace.final.tokens_in("P_O") == ("d1", "d4", "d5")


def test_miso_skip_on_empty_input_is_reported():
    net, m0 = build_miso((1, 1), 2, addresses=(0, 0))
    trace = run(net, m0, AddressDriven(program=(0, 0)))
    assert any(getattr(e, "reason", "").startswith("selection") for e in trace.events)
    assert trace.final.tokens_in("P_O") == ("d1",)


def test_miso_requires_two_inputs():
    with pytest.raises(SpecError):
        build_miso((3,), 2)


# MIMO


def test_mimo_initial_counts_match_layout():
    _, m0 = build_mimo((3, 2), 2, 3)
    assert counts_of(
        m0, "P_I1", "P_I2", "P_DA", "P_A1", "P_A2", "P_A3", "P_O1", "P_O2"
    ) == (3, 2, 0, 3, 3, 0, 0, 0)


def test_mimo_enumeration_six_patterns():
    net, m0 = build_mimo((2, 1), 2, 2)
    sigs = enumerate_final_markings(net, m0)
    patterns = {
        tuple(c for p, c in sig if p in ("P_I1", "P_I2", "P_O1", "P_O2")) for sig in sigs
    }
    assert patterns == {
        (0, 1, 2, 0), (0, 1, 1, 1), (0, 1, 0, 2),
        (1, 0, 2, 0), (1, 0, 1, 1), (1, 0, 0, 2),
    }


def test_mimo_order_distinct_witnesses_dedupe():
    net, m0 = build_mimo((2, 1), 2, 2)
    for order in (("T1", "T3", "T1", "T4"), ("T1", "T4", "T1", "T3")):
        net2, m2 = build_mimo((2, 1), 2, 2)
        trace = run(net2, m2, Scripted(order))
        assert counts_of(trace.final, "P_O1", "P_O2") == (1, 1)


def test_mimo_maximal_runs_fire_2m_transitions():
    net, m0 = build_mimo((2, 1), 2, 2)
    lengths = set()

    def walk(marking, depth):
        enabled = enabled_transitions(net, marking)
        if not enabled:
            lengths.add(depth)
            return
        for tid in enabled:
            nxt, _ = fire(net, marking, tid)
            walk(nxt, depth + 1)

    walk(m0, 0)
    assert lengths == {4}


def test_mimo_selector_flow_to_collector():
    net, m0 = build_mimo((2, 1), 2, 2, input_addresses=(0, 1), output_addresses=(0, 1))
    trace = run(net, m0, AddressDriven())
    assert trace.final.token_count("P_A3") == 4  # both w and both z end collected
    assert set(trace.final.tokens_in("P_A3")) == {"w1", "w2", "z1", "z2"}


# Priority


def test_priority_initial_counts_match_layout():
    _, m0 = build_priority(1, 2, 2, 2)
    assert counts_of(
        m0, "P_I1", "P_I2", "P_DA1", "P_A", "P_DA2", "P_A1", "P_A2", "P_O"
    ) == (1, 2, 0, 2, 0, 2, 0, 0)


def test_priority_scripted_reference_run():
    net, m0 = build_priority(
        1, 2, 2, 2,
        payloads={"d1": basis_state(1, "0"), "d2": basis_state(1, "1"),
                  "d3": basis_state(1, "1")},
    )
    trace = run(net, m0, Scripted(("T2", "T4", "T2", "T4", "T1", "T3")))
    assert trace.final.tokens_in("P_O") == ("d2", "d3", "d1")
    assert trace.final.tokens_in("P_A") == ("w2",)
    assert trace.final.tokens_in("P_A2") == ("z1", "z2", "w1")


def test_priority_t3_never_enabled_while_pda2_occupied():
    net, m0 = build_priority(1, 2, 2, 2)
    seen = set()

    def walk(marking):
        key = marking.key()
        if key in seen:
            return
        seen.add(key)
        enabled = enabled_transitions(net, marking)
        if marking.token_count("P_DA2") > 0:
            assert "T3" not in enabled
        for tid in enabled:
            nxt, _ = fire(net, marking, tid)
            walk(nxt)

    walk(m0)
    assert len(seen) > 1


def test_priority_degenerates_without_high_traffic():
    # With no high-priority traffic the inhibitor is always satisfied and the
    # low lane drains alone (lowest-id-first: both stagings, then both sends).
    net, m0 = build_priority(2, 0, 2, 0)
    trace = run(net, m0, AddressDriven())
    assert [e.transition for e in trace.firings()] == ["T1", "T1", "T3", "T3"]
    assert trace.final.tokens_in("P_O") == ("d1", "d2")


# BufferSpec / run_scenario


def test_run_scenario_siso_reference():
    spec = BufferSpec(
        kind="siso", n=3, m=2,
        payloads={"d1": basis_state(2, "10"), "d2": basis_state(1, "1"),
                  "d3": basis_state(1, "1")},
    )
    trace = run_scenario(spec)
    assert len(trace.firings()) == 2
    assert trace.final.payload("d1") == basis_state(2, "10")


def test_run_scenario_simo_reference():
    spec = BufferSpec(
        kind="simo", n=4, m=3, k=2,
        payloads={"d1": basis_state(1, "1"), "d2": basis_state(1, "0"),
                  "d3": basis_state(1, "1"), "d4": basis_state(1, "1")},
        addresses=(1, 0, 1),
    )
    trace = run_scenario(spec)
    assert len(trace.firings()) == 3


def test_run_scenario_wraps_errors_with_kind():
    spec = BufferSpec(kind="siso", n=2, m=1)
    with pytest.raises(NotEnabledError) as err:
        run_scenario(spec, Scripted(("T1", "T1")))
    assert "siso" in str(err.value)


def test_run_scenario_wrap_keeps_step():
    spec = BufferSpec(kind="siso", n=2, m=1)
    with pytest.raises(NotEnabledError) as err:
        run_scenario(spec, Scripted(("T1", "T1")))
    assert err.value.step == 1
    assert str(err.value) == "in siso scenario: step 1: scripted transition T1 is not enabled"


def test_buffer_spec_missing_field():
    with pytest.raises(SpecError):
        BufferSpec(kind="simo", n=4, m=3).build()


def test_buffer_spec_unknown_kind():
    with pytest.raises(SpecError):
        BufferSpec(kind="fifo").build()


def test_buffer_spec_rejects_addresses_of_an_unguarded_kind():
    # Left unchecked, the program would drive the run into two skipped selections.
    with pytest.raises(SpecError, match="siso spec takes no addresses"):
        run_scenario(BufferSpec(kind="siso", n=2, m=2, addresses=(0, 1)))


def test_buffer_spec_rejects_a_field_its_kind_does_not_read():
    spec = BufferSpec(kind="mimo", r=(1, 1), outputs=2, m=1, addresses=(5,))
    with pytest.raises(SpecError, match="mimo spec takes no addresses"):
        spec.build()


def test_builders_reject_payloads_of_other_tokens():
    spec = BufferSpec(kind="siso", n=2, m=1,
                      payloads={"d7": basis_state(1, "1"), "z1": basis_state(1, "1")})
    with pytest.raises(SpecError, match="'d7'"):
        spec.build()
    with pytest.raises(SpecError, match="'d3'"):
        build_priority(1, 1, 1, 1, payloads={"d3": basis_state(1, "1")})


def test_payload_width_freedom():
    wide = basis_state(3, "101")
    spec = BufferSpec(kind="siso", n=2, m=2, payloads={"d1": wide})
    trace = run_scenario(spec)
    assert trace.final.payload("d1") == wide
    assert trace.final.tokens_in("P_O") == ("d1", "d2")


def test_capacity_bound_across_maximal_runs():
    net, m0 = build_simo(5, 3, 2)
    for sig, witness in enumerate_final_markings(net, m0).items():
        supply_left = dict(sig)["P_A"]
        assert 3 - supply_left == 3  # all selectors consumed: m <= n
        assert len(witness) == 3


def test_data_payloads_intact_at_quiescence():
    payloads = {"d1": basis_state(2, "01"), "d2": basis_state(1, "1"),
                "d3": basis_state(1, "0")}
    net, m0 = build_miso((2, 1), 2, payloads=payloads, addresses=(0, 1))
    trace = run(net, m0, AddressDriven())
    for tok, payload in payloads.items():
        assert trace.final.payload(tok) == payload


# Builder errors, each with its exact message: through the builder, and
# through ``main`` where a scenario document can reach it.  A document the
# parser already rejects exits 2; one that reaches the builder exits 1.


@pytest.mark.parametrize("build, message, document, code, stderr", [
    (lambda: build_simo(3, 1, 2, addresses=(0, 1)),
     "address program has 2 entries for 1 selectors",
     {"kind": "simo", "n": 3, "m": 1, "k": 2, "addresses": [0, 1]}, 2,
     "address program has 2 entries for 1 selectors (field: addresses)"),
    (lambda: build_miso((1, 1), 0), "miso requires m >= 1, got m=0",
     {"kind": "miso", "r": [1, 1], "m": 0}, 1, "miso requires m >= 1, got m=0"),
    (lambda: build_mimo((1, 1), 2, 0), "mimo requires m >= 1, got m=0",
     {"kind": "mimo", "r": [1, 1], "outputs": 2, "m": 0}, 1, "mimo requires m >= 1, got m=0"),
    (lambda: build_miso((2, -1), 1), "input counts must be nonnegative, got (2, -1)",
     None, None, None),
    (lambda: build_simo(2, 3, 2), "simo requires 0 <= m <= n, got n=2, m=3",
     {"kind": "simo", "n": 2, "m": 3, "k": 2}, 1, "simo requires 0 <= m <= n, got n=2, m=3"),
    (lambda: build_simo(2, 1, 1), "simo requires k >= 2 outputs, got k=1",
     {"kind": "simo", "n": 2, "m": 1, "k": 1}, 1, "simo requires k >= 2 outputs, got k=1"),
    (lambda: build_mimo((1, 1), 1, 1), "mimo requires at least 2 output places, got 1",
     {"kind": "mimo", "r": [1, 1], "outputs": 1, "m": 1}, 1,
     "mimo requires at least 2 output places, got 1"),
    (lambda: build_priority(1, 1, -1, 1), "m_low must be nonnegative, got -1",
     None, None, None),
], ids=["address-entries", "miso-capacity", "mimo-capacity", "negative-input-count",
        "simo-capacity", "simo-outputs", "mimo-outputs", "priority-negative"])
def test_builder_errors(build, message, document, code, stderr, capsys, tmp_path):
    with pytest.raises(SpecError) as info:
        build()
    assert type(info.value) is SpecError
    assert str(info.value) == message
    if document is None:
        return
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert main(["buffer", "run", "--scenario", str(scenario)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {stderr}\n")


@pytest.mark.parametrize("kind", KINDS)
def test_builders_take_their_kind_table_arguments_in_order(kind):
    # BufferSpec.build passes a kind's arguments to its builder by position.
    parameters = inspect.signature(getattr(buffers, f"build_{kind}")).parameters
    assert tuple(parameters) == KIND_TABLE[kind].arguments
