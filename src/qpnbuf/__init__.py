"""Quantum Petri net buffer toolkit.

A deterministic simulation package in two halves: an exact statevector core
for the X/CX/CCX/SWAP/CSWAP gate set that holds each state as its support
(powering a quantum S-R flip-flop and its registers, with QASM 2.0
round-tripping), and a quantum Petri net engine whose tokens carry
statevector payloads (powering five buffer topologies: SISO, SIMO, MISO,
MIMO, priority).
"""

from .buffers import (
    BufferSpec,
    build_cnot_example,
    build_mimo,
    build_miso,
    build_priority,
    build_simo,
    build_siso,
    run_scenario,
)
from .engine import (
    AddressDriven,
    Arc,
    EagerOutputThenScript,
    FiringEvent,
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
from .errors import (
    CircuitError,
    ConstructionError,
    ExplosionError,
    GateError,
    ModelError,
    NotEnabledError,
    QasmError,
    QpnError,
    ReversalError,
    ScenarioError,
    SpecError,
)
from .flipflop import (
    CircuitVariant,
    QsrInputs,
    QsrOutcome,
    build_qsr_circuit,
    build_register,
    conformance_report,
    reference_next_state,
    simulate_qsr,
)
from .qasm import export_qasm, parse_qasm
from .scenario import (
    ScenarioDoc,
    emit_marking_table,
    emit_scenario,
    emit_signatures,
    emit_trace,
    parse_scenario,
    parse_trace,
)
from .statevector import (
    Circuit,
    GateOp,
    StateVector,
    apply,
    basis_state,
    probabilities,
    run_circuit,
    tensor,
)

__version__ = "0.1.0"
