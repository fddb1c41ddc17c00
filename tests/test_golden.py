"""Golden-byte fixtures: sha256 of CLI output for every demo and the scenarios below.

The hashes pin the exact bytes the CLI writes, so any change to firing
order, enumeration order, witnesses, payload serialization or table layout
shows up here even when every structural test still passes.  One more hash
pins, through the API, the trace of a gated net with superposed payloads,
which no CLI command builds.
"""

import hashlib
import json
import random

import pytest

from qpnbuf.cli import DEMOS, main
from qpnbuf.engine import (
    Arc,
    Place,
    PlaceKind,
    QPNet,
    QToken,
    Scripted,
    TokenKind,
    Transition,
    run,
)
from qpnbuf.scenario import emit_trace
from qpnbuf.statevector import GateOp, StateVector, basis_state_from_index

SCENARIOS = {
    # Free selectors: enumeration witnesses depend on the depth-first order.
    "simo-free": {
        "kind": "simo",
        "n": 4,
        "m": 3,
        "k": 3,
        "payloads": {"d1": [[0.6, 0], [0, 0.8]], "d2": "1"},
    },
    # The second selection of input 0 finds P_I1 empty and is skipped.
    "miso-skip": {
        "kind": "miso",
        "r": [1, 2],
        "m": 3,
        "addresses": [0, 0, 1],
        "payloads": {"d2": [[0.6, 0], [0, 0.8]], "d3": "1"},
    },
    "priority-script": {
        "kind": "priority",
        "r_low": 2,
        "r_high": 2,
        "m_low": 2,
        "m_high": 1,
        "payloads": {"d1": "1", "d4": [[0, 0.6], [0.8, 0]]},
        "scheduler": "scripted",
        "script": ["T1", "T2", "T4", "T3", "T1", "T3"],
    },
    # Superposed 2- and 3-qubit payloads with signed zeros, a subnormal and a
    # 1e-17 amplitude: pins the float text of every payload in the trace.
    "siso-superposed": {
        "kind": "siso",
        "n": 3,
        "m": 2,
        "payloads": {
            "d1": [[0.5, -0.0], [0, 0.5], [-0.5, 0], [1e-17, 0.5]],
            "d2": [[0.5, 0], [0, -0.5], [5e-324, 0], [0, 0], [-0.0, -0.0], [0.5, 0], [0, 0],
                   [0, 0.5]],
            "d3": "011",
        },
    },
    # The eager scheduler drains the output transition T3 before and after
    # every scripted step.
    "miso-eager-script": {
        "kind": "miso",
        "r": [2, 2],
        "m": 3,
        "scheduler": "eager-output-then-script",
        "script": ["T2", "T1", "T2"],
        "payloads": {"d3": [[0.6, 0], [0, 0.8]], "d1": "1"},
    },
    # An address program under the eager scheduler: blocked selections are
    # skipped, and the third selector, addressed to the empty P_I1, stays put.
    "miso-eager-program": {
        "kind": "miso",
        "r": [1, 2],
        "m": 4,
        "addresses": [0, 1, 0, 1],
        "scheduler": "eager-output-then-script",
        "payloads": {"d2": [[0, 0.6], [0.8, 0]], "d1": "1"},
    },
}

GOLDEN = {
    "demo/fig2-example/json": "1d703180487aeb9fcf624292238df3be195edde62a5c625cab1293ae51e925c3",
    "demo/fig2-example/table": "0a5660e5e227ecd82fc75472a32726ff569114862f0f19bf5ac5e48935684ff1",
    "demo/siso-4b/json": "653311181ef9af7aa7401e727862ee1f4440f64a02448e3145c0b43ea6cfd187",
    "demo/siso-4b/table": "173460650c60aacbb61b65922cb3a3e49925aea8ad68a6d7d868e2a6089e0489",
    "demo/simo-4c/json": "41003b96d3a1fe65fca5237c04df4de58a3ab15c00d3142e56313c2dd97155b7",
    "demo/simo-4c/table": "f295a0b0dcbf06fc184cd4c824e27f4d7f2db68d632c72aafd86e64ed759270c",
    "demo/priority-4d/json": "0cc637b62494d48c3f0976382927cde01f451632437037c4ef415e27d680cc81",
    "demo/priority-4d/table": "9a6a9b79e5f61ec510ec05b5c27a9b806f777fbd222da72a08044996f408305c",
    "demo/simo-enum/json": "c5d556251ba243413540c6777c97b5e8bccff5b76f9302f16378717a1e146fb6",
    "demo/simo-enum/table": "99c7ca90f06f6ba9ea6e9408a8c940f6db2b08c401aa413e6572976e0a802889",
    "demo/mimo-enum/json": "e8b1a7e0834772643945a423af8019472769f430695dce8e31ea348ca6341afe",
    "demo/mimo-enum/table": "5c29dc2e122db33a92a7762d8bf8d4d24b22d2ffdc89cc5e6e2fb86482669100",
    "enumerate/miso-skip/json": "1b88afba4233c1f8951551775722ba05c7babd9b6fcb8dad3f719bbe13a6fc51",
    "enumerate/miso-skip/table": "324633b5bc40f86aeeff50aff09d23d9efe314920915561ef48f109a94d33b30",
    "run/miso-skip/json": "aaefb804e5fcde20f4ab1f59377102aa9544c1a0ec44c392c39ddb900fb89a47",
    "run/miso-skip/table": "f171ea649a974c5ec49e44262f2a712c62ad4fa5630bc23e7fa341e6594a830a",
    "enumerate/priority-script/json": "bfd32e77e9c61ad75c67609d3cf30a4cd4d9c5654982b21fd420146f558ac0e0",
    "enumerate/priority-script/table": "12ec27c55ddceb0408535aa8d5dd0e41d0771245ecfac958eb24ba05d8bb3042",
    "run/priority-script/json": "78c6445592b1825a90fdd59c036dc6fbccec621e1565fec853869f4990b60008",
    "run/priority-script/table": "374b6215e1152986fb382225492b54b9707ad3c38d63d8e3033cb83912d813c7",
    "enumerate/simo-free/json": "e7a63ab896bc5200789925695c7b557abb08a0c49d256b2b1c64ae6855aab798",
    "enumerate/simo-free/table": "82809183aa0e545f4108a08428b4c5b72096201b0ab80b66b55e95bcedb67761",
    "run/simo-free/json": "f715f1654ff9e64977c0d14c3892bd570deb0645d4c69164ca4b9bba6e49056f",
    "run/simo-free/table": "205369006d6dec6207ddc4fe986c8d14c18d08ec47ebd8f49c15e12302abe92d",
    "enumerate/siso-superposed/json": "86586cbb9c52dd41417d2412b97870061bc50686cf3b5f7289411aee28b0a9d2",
    "enumerate/siso-superposed/table": "d7b92771b1e7a6b6549daf8397f5fb8b92ec3cce7f6fea7a5bc3c70bcfc8da06",
    "run/siso-superposed/json": "ab6bda0aafaa05b3442e9729c710fafe8994eb05daff852a83b2c16d368c545e",
    "run/siso-superposed/table": "173460650c60aacbb61b65922cb3a3e49925aea8ad68a6d7d868e2a6089e0489",
    "enumerate/miso-eager-script/json": "354a6cc958660a2aff341fcb42edc0cfafa8228851b3d6ff3d301feedb8a4fe5",
    "enumerate/miso-eager-script/table": "adfe1cdc55e4a82b370be9b5b3bac041ddfc2e5bd88e1df04cfdacdf773ad1fe",
    "run/miso-eager-script/json": "866e35b34afa45ce6babf334f2d788a050823fc4f64619ac74d62f230fac2116",
    "run/miso-eager-script/table": "dde1ea5fd63e3e17c4ee5bbb5afeef3c9b21410de275468e579442dd225c201f",
    "enumerate/miso-eager-program/json": "d44f56b2f8ca0147480fad0fb3abf510a707188959a1f3c37ae9d223c54d95e5",
    "enumerate/miso-eager-program/table": "049854a1e5d346550417f5c0c5ff3039a867d72b12e650edba8b40178b6f1c50",
    "run/miso-eager-program/json": "6441cae14c240c280f7287845c22f21cf52baea68aa84f513e56f662b759a2f1",
    "run/miso-eager-program/table": "7177697bc7c8e1b2344fc0e886cf6d9160da06f9adab48b337aa7bb7c715b634",
}


def _sha(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_bytes(capsys, demo, fmt):
    digest = _sha(capsys, ["buffer", "demo", demo, "--format", fmt])
    assert digest == GOLDEN[f"demo/{demo}/{fmt}"]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("mode", ["run", "enumerate"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_output_bytes(capsys, tmp_path, name, mode, fmt):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCENARIOS[name]))
    digest = _sha(capsys, ["buffer", mode, "--scenario", str(path), "--format", fmt])
    assert digest == GOLDEN[f"{mode}/{name}/{fmt}"]


# The benchmark's Fig. 2-shaped gate: every control sits on the basis payload
# of P2's token (qubits 1..0), so the joint state stays a product.
GATED_GATE = (GateOp("cx", (1, 3)), GateOp("ccx", (1, 0, 2)), GateOp("cswap", (0, 3, 2)))
GATED_PAIRS = 8


def _gated_superposed_net():
    """T1 takes the heads of P1 (superposed 2-qubit payloads) and P2 (basis) through the gate."""
    rng = random.Random(2024)
    a_tokens, b_tokens = [], []
    for i in range(GATED_PAIRS):
        amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = sum(abs(a) ** 2 for a in amps) ** 0.5
        a_tokens.append(QToken(f"a{i + 1}", TokenKind.DATA,
                               StateVector(2, [a / norm for a in amps])))
        b_tokens.append(QToken(f"b{i + 1}", TokenKind.DATA,
                               basis_state_from_index(2, rng.randrange(4))))
    t1 = Transition(
        id="T1",
        input_arcs=(Arc("P1", "T1", "in", "x"), Arc("P2", "T1", "in", "y")),
        output_arcs=(Arc("P3", "T1", "out", "f1"),),
        routing={"x": "P3", "y": "P3"},
        gate=GATED_GATE,
    )
    places = [Place("P1", PlaceKind.INPUT), Place("P2", PlaceKind.INPUT),
              Place("P3", PlaceKind.OUTPUT)]
    net = QPNet(places, [t1], a_tokens + b_tokens)
    return net, net.initial_marking({"P1": [t.id for t in a_tokens],
                                     "P2": [t.id for t in b_tokens]})


GATED_SUPERPOSED_SHA = "bbf26b8cc66b48e1a72d3d8216d25a2947ca08805fce0d64eba752e07af5ba59"


def test_gated_superposed_trace_bytes():
    net, marking = _gated_superposed_net()
    text = emit_trace(run(net, marking, Scripted(("T1",) * GATED_PAIRS)))
    assert hashlib.sha256(text.encode()).hexdigest() == GATED_SUPERPOSED_SHA
