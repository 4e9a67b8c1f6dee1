import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corostab
from corostab.cli import main
from corostab.protocols import CurveTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPH = ("--model", "exp_hencky", "--mu", "1", "--k", "1", "--khat", "1", "--lambda-lame", "2")
QH = ("--model", "quadratic_hencky", "--E", "1", "--nu", "0.3")


def test_moduli_neo_hooke_incompressible(capsys):
    code, out, _ = run_cli(
        capsys, "moduli", "--model", "neo_hooke_incompressible", "--mu", "1",
        "--protocol", "uniaxial", "--at", "1.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus_incr"] == pytest.approx(3.0, abs=1e-4)


def test_sweep_writes_csv_and_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, "sweep", *QH, "--protocol", "uniaxial",
            "--lambda-min", "0.5", "--lambda-max", "3", "--steps", "21",
            "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    table = CurveTable.from_csv(paths[0].read_text())
    assert table.to_csv() == paths[0].read_text()  # schema round trip
    assert np.all(np.diff(table.lambda1) > 0)


def test_sweep_peak_location(capsys, tmp_path):
    out = tmp_path / "peak.csv"
    code, _, _ = run_cli(
        capsys, "sweep", *QH, "--protocol", "uniaxial",
        "--grid", "0.5:14:120", "--out", str(out), "--no-moduli",
    )
    assert code == 0
    table = CurveTable.from_csv(out.read_text())
    peak = table.lambda1[int(np.argmax(table.stress_driving))]
    spacing = np.max(np.diff(table.lambda1))
    assert abs(peak - np.e**2.5) <= spacing + 1e-12


def test_scan_expect_stable_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "scan", *EXPH, "--grid", "0.5:3:11", "--expect-stable",
    )
    assert code == 0
    assert json.loads(out)["counts"]["violations"]["csp"] == 0

    code, out, _ = run_cli(
        capsys, "scan", *QH, "--grid", "0.5:3:5", "--expect-stable",
    )
    assert code == 2
    assert json.loads(out)["counts"]["violations"]["csp"] >= 1


def test_scan_outputs_deterministic(tmp_path, capsys):
    outs = []
    for name in ("s1.csv", "s2.csv"):
        p = tmp_path / name
        code, _, _ = run_cli(capsys, "scan", *QH, "--grid", "0.5:2:4", "--seed", "5", "--out", str(p))
        assert code == 0
        outs.append((p.read_bytes(), (tmp_path / name.replace(".csv", ".json")).read_bytes()))
    assert outs[0] == outs[1]
    summary = json.loads(outs[0][1])
    assert summary["seed"] == 5
    assert summary["grid"] == [0.5, 2.0, 4]


def test_check_flags_unstable_state(capsys):
    code, out, _ = run_cli(
        capsys, "check", *QH, "--protocol", "uniaxial", "--at", "13.0", "--expect-stable",
    )
    assert code == 2
    payload = json.loads(out)
    assert "csp" in payload["violations"]
    assert payload["modulus_incr"] < 0

    code, out, _ = run_cli(
        capsys, "check", *EXPH, "--protocol", "uniaxial", "--at", "2.0", "--expect-stable",
    )
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_rate_verify(capsys):
    code, out, _ = run_cli(capsys, "rate-verify", *QH, "--cases", "10", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_residuals"]["power"] <= 1e-8


def test_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({
        "kind": "quadratic_hencky",
        "parameters": {"E": 1.0, "nu": 0.2},
        "incompressible": False,
    }))
    code, out, _ = run_cli(
        capsys, "moduli", "--config", str(cfg), "--protocol", "uniaxial", "--at", "1.0",
    )
    assert code == 0
    assert json.loads(out)["modulus_incr"] == pytest.approx(1.0, abs=1e-4)

    # inline flag overrides the file value
    code, out, _ = run_cli(
        capsys, "moduli", "--config", str(cfg), "--nu", "0.3",
        "--protocol", "uniaxial", "--at", "1.0",
    )
    assert code == 0
    assert json.loads(out)["modulus_incr"] == pytest.approx(1.0, abs=1e-4)


def test_config_incompressible_mismatch(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "kind": "quadratic_hencky",
        "parameters": {"E": 1.0, "nu": 0.3},
        "incompressible": True,
    }))
    code, _, err = run_cli(capsys, "moduli", "--config", str(cfg), "--protocol", "uniaxial", "--at", "1.0")
    assert code == 1
    assert "incompressible" in err


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--protocol", "uniaxial",
                           "--grid", "0.5:2:5")
    assert code == 1
    assert "JSON" in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "sweep", "--protocol", "uniaxial", "--grid", "0.5:2:5")
    assert code == 1 and "no model" in err
    code, _, err = run_cli(capsys, "sweep", *QH, "--protocol", "uniaxial", "--grid", "1:2")
    assert code == 1 and "a:b:n" in err
    code, _, err = run_cli(capsys, "sweep", *QH, "--protocol", "uniaxial")
    assert code == 1 and "--lambda-min" in err
    code, _, err = run_cli(capsys, "moduli", "--model", "quadratic_hencky", "--E", "1",
                           "--nu", "0.6", "--protocol", "uniaxial", "--at", "1.0")
    assert code == 1 and "nu" in err


def test_unsolvable_closure_names_stretch(capsys):
    # the lateral root leaves the scan window far out; the failing lambda1
    # must appear in the message
    code, _, err = run_cli(
        capsys, "sweep", *QH, "--protocol", "uniaxial", "--grid", "1:1e12:3",
    )
    assert code == 1
    assert "lambda1 = 500000000000.5" in err


def test_hydrostatic_incompressible_cli(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--model", "neo_hooke_incompressible", "--mu", "1",
        "--protocol", "hydrostatic", "--grid", "0.5:2:5",
    )
    assert code == 1
    assert "hydrostatic" in err


def test_check_incompressible_state(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--model", "neo_hooke_incompressible", "--mu", "1",
        "--protocol", "uniaxial", "--at", "2.0", "--expect-stable",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pressure"] == pytest.approx(0.5, rel=1e-12)
    assert payload["stress_driving"] == pytest.approx(3.5, rel=1e-12)
    assert payload["stability"]["te_margin"] is None
    assert payload["stability"]["tangent_min_eig"] > 0
    assert payload["violations"] == []


def test_scan_incompressible_model(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--model", "quadratic_hencky_incompressible", "--mu", "1",
        "--grid", "0.5:2:3", "--expect-stable",
    )
    assert code == 0
    assert json.loads(out)["counts"]["violations"]["hill"] == 0


def test_rate_verify_rejects_incompressible(capsys):
    code, _, err = run_cli(
        capsys, "rate-verify", "--model", "neo_hooke_incompressible", "--mu", "1",
    )
    assert code == 1
    assert "compressible" in err


def test_moduli_out_file(tmp_path, capsys):
    out = tmp_path / "mod.json"
    code, stdout, _ = run_cli(
        capsys, "moduli", *QH, "--protocol", "hydrostatic", "--at", "1.0",
        "--out", str(out),
    )
    assert code == 0 and stdout == ""
    payload = json.loads(out.read_text())
    # bulk modulus of E=1, nu=0.3
    assert payload["modulus_incr"] == pytest.approx(1.0 / (3 * (1 - 2 * 0.3)), abs=1e-4)


def test_module_entry_point():
    # the child imports the same package as the tests, installed or not
    src = str(Path(corostab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "corostab", "moduli", "--model", "quadratic_hencky",
         "--E", "1", "--nu", "0.3", "--protocol", "uniaxial", "--at", "1.0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["modulus_incr"] == pytest.approx(1.0, abs=1e-4)
