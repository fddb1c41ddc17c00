"""Randomized property suites (fixed seeds, 1000 cases each).

The heavy lifting lives in prop_util; these tests run each suite at full
size and sanity-check the generators and the count-space oracle itself.
"""

import random

import prop_util


def test_token_conservation_suite():
    assert prop_util.conservation_suite(1000) == 1000


def test_payload_norm_suite():
    assert prop_util.norm_suite(1000) == 1000


def test_unfire_identity_suite():
    assert prop_util.unfire_identity_suite(1000) == 1000


def test_run_determinism_suite():
    assert prop_util.determinism_suite(1000) == 1000


def test_document_roundtrip_suite():
    assert prop_util.roundtrip_suite(1000) == 1000


def test_permutation_core_suite():
    assert prop_util.permutation_core_suite(1000) == 1000


def test_fused_kernel_suite():
    assert prop_util.fused_kernel_suite(1000) == 1000


def test_sampler_suite():
    assert prop_util.sampler_suite(1000) == 1000


def test_gated_reversal_suite():
    assert prop_util.gated_reversal_suite(1000) == 1000


def test_emitter_suite():
    assert prop_util.emitter_suite(1000) == 1000


def test_trace_mutation_suite():
    outcomes = prop_util.trace_mutation_suite(1000)
    assert sum(outcomes.values()) == 1000
    for outcome in prop_util.TRACE_CHECKS + ("accepted", "other error"):
        assert outcomes[outcome] >= 5, (outcome, outcomes)


# Every case's exit code, output and error output.
SCENARIO_MUTATION_SHA = "f8ac2090da43219cb748d4843fbe0dd9fc4a163bd59d6a09bf08e7d57166c326"


def test_scenario_mutation_suite(tmp_path):
    codes, digest = prop_util.scenario_mutation_suite(tmp_path, 1000)
    assert codes == {2: 659, 0: 283, 1: 58}
    assert set(codes) == {0, 1, 2} and min(codes.values()) >= 50, codes
    assert digest == SCENARIO_MUTATION_SHA


def test_dense_image_suite():
    outcomes = prop_util.dense_image_suite(300)
    assert outcomes["cases"] == 300 and outcomes["warm"] == 600, outcomes
    for key in ("cold apply_all", "cold run_circuit", "two widths"):
        assert outcomes[key] >= 100, (key, outcomes)


def test_qasm_mutation_suite():
    outcomes = prop_util.qasm_mutation_suite(1000)
    assert sum(outcomes.values()) == 1000
    assert outcomes["accepted"] >= 250, outcomes
    for check in prop_util.QASM_GATE_CHECKS:
        assert outcomes[check] >= 5, (check, outcomes)


def test_qasm_respelling_suite():
    outcomes = prop_util.qasm_respelling_suite(1000)
    assert outcomes["accepted"] == 1000, outcomes
    for way in prop_util.QASM_RESPELLINGS:
        assert outcomes[way] >= 100, (way, outcomes)


def test_quotient_enumeration_suite():
    assert prop_util.quotient_enumeration_suite(1000) == 1000


def test_step_agreement_suite():
    outcomes = prop_util.step_agreement_suite(1000)
    assert outcomes["agreed"] >= 1000 and outcomes["raised"] >= 5, outcomes


def test_forged_event_suite():
    outcomes = prop_util.forged_event_suite(2000)
    for kind in prop_util.FORGERIES:
        assert min(outcomes[kind, "refused"], outcomes[kind, "unfired"]) >= 10, outcomes


def test_generator_covers_all_kinds():
    rng = random.Random(7)
    kinds = {prop_util.random_spec(rng).kind for _ in range(200)}
    assert kinds == {"siso", "simo", "miso", "mimo", "priority"}


def test_oracle_siso_single_final():
    _, finals = prop_util.oracle_siso(4, 3)
    assert finals == {(1, 0, 3, 3)}


def test_oracle_simo_final_patterns():
    _, finals = prop_util.oracle_simo(4, 3, 2)
    assert {outs for _, _, _, outs in finals} == {(3, 0), (2, 1), (1, 2), (0, 3)}


def test_oracle_miso_drains_staging():
    _, finals = prop_util.oracle_miso((2, 1), 2)
    assert all(pda == 0 for _, pda, _, _, _ in finals)
    assert all(po == 2 for _, _, _, _, po in finals)


def test_capacity_suite_small():
    instances, full = prop_util.capacity_suite(instances=12, seed=99)
    assert instances == 12
    assert full == 12
