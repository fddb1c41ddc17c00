"""Golden-byte fixtures: sha256 of CLI output for every demo and three scenarios.

The hashes pin the exact bytes the CLI writes, so any change to firing
order, enumeration order, witnesses, payload serialization or table layout
shows up here even when every structural test still passes.
"""

import hashlib
import json

import pytest

from qpnbuf.cli import DEMOS, main

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
