"""Command-line interface: flip-flop checks, buffer runs, enumeration, QASM export.

Exit codes: 0 success, 1 domain error (unfirable transition, bad buffer
parameters), 2 usage or document-parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

from .buffers import build_cnot_example, run_scenario
from .engine import DEFAULT_STEP_BOUND, Scripted, Trace, enumerate_final_markings, run
from .errors import QasmError, QpnError, ScenarioError
from .flipflop import (
    ALL_INPUT_ROWS,
    CircuitVariant,
    QsrInputs,
    build_qsr_circuit,
    conformance_report,
    initial_x_gates,
    reference_next_state,
    simulate_qsr,
)
from .qasm import export_qasm
from .scenario import emit_marking_table, emit_signatures, emit_trace, parse_scenario

# The buffer demos are scenario documents and take the path of ``buffer run``.
# An enumeration demo also names the places its signatures show.
_DEMO_SCENARIOS = {
    "siso-4b": ('{"kind": "siso", "n": 3, "m": 2, "payloads": {"d1": "10", "d2": "1", "d3": "1"}}',
                None),
    "simo-4c": ('{"kind": "simo", "n": 4, "m": 3, "k": 2, "addresses": [1, 0, 1],'
                ' "payloads": {"d1": "1", "d2": "0", "d3": "1", "d4": "1"}}', None),
    "priority-4d": ('{"kind": "priority", "r_low": 1, "r_high": 2, "m_low": 2, "m_high": 2,'
                    ' "payloads": {"d1": "0", "d2": "1", "d3": "1"}, "scheduler": "scripted",'
                    ' "script": ["T2", "T4", "T2", "T4", "T1", "T3"]}', None),
    "simo-enum": ('{"kind": "simo", "n": 4, "m": 3, "k": 2, "enumerate": true}',
                  ("P_O1", "P_O2")),
    "mimo-enum": ('{"kind": "mimo", "r": [2, 1], "outputs": 2, "m": 2, "enumerate": true}',
                  ("P_I1", "P_I2", "P_O1", "P_O2")),
}
# fig2-example carries a gate, which no scenario kind describes: built directly.
DEMOS = ("fig2-example", *_DEMO_SCENARIOS)


def _write_output(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc.strerror}") from exc


def _step_bound() -> int:
    value = os.environ.get("QPN_STEP_BOUND", DEFAULT_STEP_BOUND)
    try:
        bound = int(value)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ScenarioError(f"QPN_STEP_BOUND must be an integer >= 0, got {value!r}")
    return bound


def _fmt_bit(value: int | None) -> str:
    return "Undefined" if value is None else str(value)


def _qsr_table() -> str:
    lines = ["S  R  Q  Q'  Q-Output"]
    for inputs in ALL_INPUT_ROWS:
        out = reference_next_state(inputs)
        lines.append(
            f"{inputs.s}  {inputs.r}  {inputs.q}  {1 - inputs.q}   {_fmt_bit(out.q_next)}"
        )
    return "\n".join(lines) + "\n"


def _qsr_simulate(variant: CircuitVariant, inputs: QsrInputs) -> str:
    outcome = simulate_qsr(variant, inputs)
    readout = " ".join(f"q{q}={b}" for q, b in sorted(outcome.readout.items()))
    return (
        f"variant: {variant.value}\n"
        f"inputs: S={inputs.s} R={inputs.r} Q={inputs.q}\n"
        f"q4 (Q)  = {outcome.q_next}\n"
        f"q3 (Q') = {outcome.q_prime_next}\n"
        f"readout: {readout}\n"
    )


def _flag(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def _qsr_conformance() -> str:
    lines = [
        "S R Q | ref Q Q' | verbatim q4 q3 (Q match, Q' match) | "
        "normalized q4 q3 (Q match, Q' match)"
    ]
    for row in conformance_report():
        i, ref = row.inputs, row.reference
        lines.append(
            f"{i.s} {i.r} {i.q} |  {ref.q_next}  {ref.q_prime_next}  | "
            f"        {row.verbatim.q_next}  {row.verbatim.q_prime_next}  "
            f"({_flag(row.verbatim_q_match)}, {_flag(row.verbatim_q_prime_match)}) | "
            f"         {row.normalized.q_next}  {row.normalized.q_prime_next}  "
            f"({_flag(row.normalized_q_match)}, {_flag(row.normalized_q_prime_match)})"
        )
    return "\n".join(lines) + "\n"


def _cmd_qsr(args) -> int:
    variant = CircuitVariant(args.variant)
    if args.mode == "table":
        _write_output(_qsr_table(), args.out)
    elif args.mode == "conformance":
        _write_output(_qsr_conformance(), args.out)
    elif args.mode == "simulate":
        if args.S is None or args.R is None or args.Q is None:
            raise ScenarioError("simulate needs -S, -R and -Q")
        _write_output(_qsr_simulate(variant, QsrInputs(args.S, args.R, args.Q)), args.out)
    else:  # export-qasm
        inputs = QsrInputs(args.S or 0, 1 if args.R is None else args.R,
                           args.Q or 0)
        circuit = build_qsr_circuit(variant)
        _write_output(export_qasm(circuit, initial_x_gates(inputs)), args.out)
    return 0


def _final_places_text(trace: Trace) -> str:
    lines = ["final:"]
    for pid in trace.final.place_ids:
        toks = " ".join(trace.final.tokens_in(pid))
        lines.append(f"  {pid}: {toks}" if toks else f"  {pid}:")
    return "\n".join(lines) + "\n"


def _trace_output(trace: Trace, fmt: str) -> str:
    if fmt == "json":
        return emit_trace(trace)
    return emit_marking_table(trace) + _final_places_text(trace)


def _signature_output(signatures: dict, places: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        return emit_signatures(signatures, places)
    lines = []
    for sig, wit in sorted(signatures.items()):
        shown = " ".join(f"{pid}={count}" for pid, count in sig if pid in places)
        lines.append(f"{shown}  via {','.join(wit) if wit else '(no firing)'}")
    lines.append(f"{len(signatures)} outcome signatures")
    return "\n".join(lines) + "\n"


def _scenario_text(args) -> tuple[str, tuple[str, ...] | None]:
    """The scenario document to run, and the places an enumeration shows."""
    if args.mode == "demo":
        if args.demo is None:
            raise ScenarioError(f"demo needs a name from {DEMOS}")
        if args.demo not in _DEMO_SCENARIOS:
            raise ScenarioError(f"unknown demo {args.demo!r}; choose from {DEMOS}")
        return _DEMO_SCENARIOS[args.demo]
    if args.scenario is None:
        raise ScenarioError("missing --scenario path")
    try:
        return Path(args.scenario).read_text(), None
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc.strerror}") from exc


def _cmd_buffer(args) -> int:
    if args.mode == "demo" and args.demo == "fig2-example":
        net, marking = build_cnot_example()
        _write_output(_trace_output(run(net, marking, Scripted(("T1",))), args.format), args.out)
        return 0
    text, shown = _scenario_text(args)
    doc = parse_scenario(text)
    if args.mode == "enumerate" or doc.enumerate_outcomes:
        net, marking = doc.build()
        signatures = enumerate_final_markings(net, marking, step_bound=_step_bound())
        places = shown or marking.place_ids
        _write_output(_signature_output(signatures, places, args.format), args.out)
    else:
        trace = run_scenario(doc)
        _write_output(_trace_output(trace, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpnbuf",
        description="Quantum buffer nets and the gate-level flip-flop they build on.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qsr = sub.add_parser("qsr", help="flip-flop truth table, simulation, conformance, QASM")
    qsr.add_argument("mode", choices=["table", "simulate", "conformance", "export-qasm"])
    qsr.add_argument("--variant", choices=["verbatim", "normalized"], default="normalized")
    qsr.add_argument("-S", type=int, choices=[0, 1], default=None)
    qsr.add_argument("-R", type=int, choices=[0, 1], default=None)
    qsr.add_argument("-Q", type=int, choices=[0, 1], default=None)
    qsr.add_argument("--out", type=Path, default=None)

    buffer_cmd = sub.add_parser("buffer", help="run, enumerate, or demo a buffer net")
    buffer_cmd.add_argument("mode", choices=["run", "enumerate", "demo"])
    buffer_cmd.add_argument("demo", nargs="?", default=None,
                            help=f"demo name, one of {', '.join(DEMOS)}")
    buffer_cmd.add_argument("--scenario", type=Path, default=None)
    buffer_cmd.add_argument("--out", type=Path, default=None)
    buffer_cmd.add_argument("--format", choices=["json", "table"], default="json")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares; ``parse_args`` does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "qsr":
            return _cmd_qsr(args)
        return _cmd_buffer(args)
    except (ScenarioError, QasmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
