import json

import pytest

from qpnbuf import cli
from qpnbuf.cli import main
from qpnbuf.qasm import significant_lines

from qsr_oracle import LISTING_QASM

SIMO_4C = {
    "kind": "simo",
    "n": 4,
    "m": 3,
    "k": 2,
    "payloads": {"d1": "1", "d2": "0", "d3": "1", "d4": "1"},
    "addresses": [1, 0, 1],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qsr_table_shows_set_rows(capsys):
    code, out, _ = run_cli(capsys, "qsr", "table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9  # header + 8 rows
    set_rows = [l for l in lines if l.startswith("1  0")]
    assert all(l.split()[-1] == "1" for l in set_rows)
    assert sum("Undefined" in l for l in lines) == 2


def test_qsr_simulate_reset_case(capsys):
    code, out, _ = run_cli(
        capsys, "qsr", "simulate", "--variant", "normalized", "-S", "0", "-R", "1", "-Q", "1"
    )
    assert code == 0
    assert "q4 (Q)  = 0" in out
    assert "q3 (Q') = 1" in out


def test_qsr_simulate_missing_inputs_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "qsr", "simulate", "--variant", "normalized")
    assert code == 2
    assert "error" in err


def test_qsr_unknown_variant_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qsr", "simulate", "--variant", "sideways"])
    assert exc.value.code == 2


def test_qsr_conformance_six_rows(capsys):
    code, out, _ = run_cli(capsys, "qsr", "conformance")
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0] in "01"]
    assert len(rows) == 6
    assert all("(ok, ok)" in row.rsplit("|", 1)[1] for row in rows)


def test_qsr_export_qasm_matches_listing(capsys, tmp_path):
    out_file = tmp_path / "qsr.qasm"
    code, _, _ = run_cli(
        capsys, "qsr", "export-qasm", "--variant", "verbatim", "--out", str(out_file)
    )
    assert code == 0
    assert significant_lines(out_file.read_text()) == significant_lines(LISTING_QASM)


def test_buffer_demo_simo_enum(capsys):
    code, out, _ = run_cli(capsys, "buffer", "demo", "simo-enum", "--format", "table")
    assert code == 0
    assert "4 outcome signatures" in out


def test_buffer_demo_mimo_enum(capsys):
    code, out, _ = run_cli(capsys, "buffer", "demo", "mimo-enum", "--format", "table")
    assert code == 0
    assert "6 outcome signatures" in out


def test_buffer_demo_priority_order(capsys):
    code, out, _ = run_cli(capsys, "buffer", "demo", "priority-4d", "--format", "table")
    assert code == 0
    assert "P_O: d2 d3 d1" in out


def test_buffer_demo_fig2_example(capsys):
    code, out, _ = run_cli(capsys, "buffer", "demo", "fig2-example", "--format", "table")
    assert code == 0
    assert "P3: a d" in out


def test_buffer_demo_simo_4c(capsys):
    code, out, _ = run_cli(capsys, "buffer", "demo", "simo-4c", "--format", "table")
    assert code == 0
    assert "P_O2: d1 d3" in out
    assert "P_O1: d2" in out


def test_buffer_demos_byte_reproducible(capsys):
    for name in ("fig2-example", "siso-4b", "simo-4c", "priority-4d",
                 "simo-enum", "mimo-enum"):
        outputs = set()
        for _ in range(2):
            code, out, _ = run_cli(capsys, "buffer", "demo", name, "--format", "json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


def test_buffer_demo_unknown_name(capsys):
    code, _, err = run_cli(capsys, "buffer", "demo", "nope")
    assert code == 2
    assert "unknown demo" in err


def test_buffer_run_scenario_json(capsys, tmp_path):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(SIMO_4C))
    code, out, _ = run_cli(capsys, "buffer", "run", "--scenario", str(scenario))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qpn-trace/1"
    assert [e["transition"] for e in doc["events"]] == ["T2", "T1", "T2"]


def test_buffer_run_scenario_table(capsys, tmp_path):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(SIMO_4C))
    code, out, _ = run_cli(
        capsys, "buffer", "run", "--scenario", str(scenario), "--format", "table"
    )
    assert code == 0
    assert "P_O2: d1 d3" in out


def test_buffer_run_parse_failure_exit_2(capsys, tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text('{"kind": "siso"')
    code, _, err = run_cli(capsys, "buffer", "run", "--scenario", str(scenario))
    assert code == 2
    assert "error" in err


def test_buffer_run_unfirable_script_exit_1(capsys, tmp_path):
    scenario = tmp_path / "scn.json"
    scenario.write_text(
        json.dumps(
            {
                "kind": "siso",
                "n": 2,
                "m": 1,
                "scheduler": "scripted",
                "script": ["T1", "T1"],
            }
        )
    )
    code, _, err = run_cli(capsys, "buffer", "run", "--scenario", str(scenario))
    assert code == 1
    assert "step 1" in err


@pytest.mark.parametrize("scheduler", ["scripted", "eager-output-then-script"])
def test_buffer_run_script_naming_an_unknown_transition_exit_2(capsys, tmp_path, scheduler):
    # T1 is blocked at step 1, but the script is checked against the net
    # before the run: an unknown id is a document error.
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({"kind": "siso", "n": 1, "m": 1, "scheduler": scheduler,
                                    "script": ["T1", "T1", "T5"]}))
    code, out, err = run_cli(capsys, "buffer", "run", "--scenario", str(scenario))
    assert (code, out) == (2, "")
    assert err == "error: unknown transition 'T5' (field: script[2])\n"


def test_buffer_run_document_that_is_not_an_object_exit_2(capsys, tmp_path):
    scenario = tmp_path / "scn.json"
    scenario.write_text("[1]")
    code, out, err = run_cli(capsys, "buffer", "run", "--scenario", str(scenario))
    assert (code, out) == (2, "")
    assert err == "error: scenario document must be a JSON object\n"


def test_buffer_demo_without_a_name_exit_2(capsys):
    code, out, err = run_cli(capsys, "buffer", "demo")
    assert (code, out) == (2, "")
    assert err == f"error: demo needs a name from {cli.DEMOS}\n"


def test_module_runs_as_a_script(capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-m", "qpnbuf.cli", "qsr", "table"],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert main(["qsr", "table"]) == 0
    assert (result.returncode, result.stdout, result.stderr) == (0, capsys.readouterr().out, "")


def test_buffer_run_missing_scenario_exit_2(capsys):
    code, _, err = run_cli(capsys, "buffer", "run")
    assert code == 2


def test_buffer_enumerate_scenario(capsys, tmp_path):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({"kind": "simo", "n": 4, "m": 3, "k": 2}))
    code, out, _ = run_cli(
        capsys, "buffer", "enumerate", "--scenario", str(scenario), "--format", "table"
    )
    assert code == 0
    assert "4 outcome signatures" in out


def test_buffer_enumerate_step_bound_env(capsys, tmp_path, monkeypatch):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({"kind": "simo", "n": 4, "m": 3, "k": 2}))
    monkeypatch.setenv("QPN_STEP_BOUND", "2")
    code, _, err = run_cli(capsys, "buffer", "enumerate", "--scenario", str(scenario))
    assert code == 1
    assert "step bound" in err


def test_buffer_enumerate_step_bound_env_not_an_integer(capsys, tmp_path, monkeypatch):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({"kind": "simo", "n": 4, "m": 3, "k": 2}))
    monkeypatch.setenv("QPN_STEP_BOUND", "abc")
    code, _, err = run_cli(capsys, "buffer", "enumerate", "--scenario", str(scenario))
    assert code == 2
    assert "QPN_STEP_BOUND" in err


def test_buffer_enumerate_step_bound_env_negative(capsys, tmp_path, monkeypatch):
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({"kind": "simo", "n": 4, "m": 3, "k": 2}))
    monkeypatch.setenv("QPN_STEP_BOUND", "-1")
    code, _, err = run_cli(capsys, "buffer", "enumerate", "--scenario", str(scenario))
    assert code == 2
    assert "QPN_STEP_BOUND" in err
    # A bound of 0 is valid: a net that cannot fire needs no firing budget.
    scenario.write_text(json.dumps({"kind": "siso", "n": 1, "m": 0}))
    monkeypatch.setenv("QPN_STEP_BOUND", "0")
    code, out, _ = run_cli(capsys, "buffer", "enumerate", "--scenario", str(scenario))
    assert code == 0
    assert json.loads(out)[0]["witness"] == []


@pytest.mark.parametrize(
    "argv", [["qsr", "table"], ["buffer", "demo", "siso-4b"]], ids=["qsr", "buffer"]
)
def test_unwritable_out_exit_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert "cannot write output: No such file or directory" in err


def test_console_script_entry_point():
    import subprocess

    result = subprocess.run(
        ["qpnbuf", "buffer", "demo", "simo-enum", "--format", "table"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "4 outcome signatures" in result.stdout


def test_buffer_run_unreadable_scenario_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "buffer", "run", "--scenario", str(tmp_path / "none.json"))
    assert code == 2
    assert "cannot read scenario" in err


def test_main_reuses_one_parser_without_carrying_options(capsys):
    assert main(["buffer", "demo", "siso-4b", "--format", "table"]) == 0
    assert capsys.readouterr().out.startswith("t ")
    assert main(["buffer", "demo", "siso-4b"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert cli._parser() is cli._parser()
