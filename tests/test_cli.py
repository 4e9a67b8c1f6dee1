import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import corostab
from corostab.cli import main
from corostab.protocols import CurveTable
from corostab.rates import MotionSample


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


def test_large_stretch_has_no_false_csp_verdict(capsys):
    # the volumetric entry of the tangent (~1e28 at 15.25^3) once drowned the
    # deviatoric eigenvalues: tangent_min_eig -3.46e11 and a csp violation,
    # and 8 roundoff csp witnesses on the 0.5:30:3 scan; 60-digit mpmath
    # gives +2648248.60786.  The same term drowned the rank-one minimum:
    # lh_min_probe -2^39 and 5 roundoff lh witnesses; mpmath gives +2.019e7
    code, out, _ = run_cli(
        capsys, "check", *EXPH, "--protocol", "hydrostatic", "--at", "15.25", "--expect-stable",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stability"]["tangent_min_eig"] == pytest.approx(2648248.60786, rel=1e-8)
    assert payload["violations"] == []
    assert payload["stability"]["lh_min_probe"] == pytest.approx(20192895.6349436, rel=1e-8)
    code, out, _ = run_cli(capsys, "scan", *EXPH, "--grid", "0.5:30:3")
    assert code == 0
    assert json.loads(out)["counts"]["violations"]["csp"] == 0
    assert json.loads(out)["counts"]["violations"]["lh"] == 0


COMPRESSIBLE_ARGS = {
    "exp_hencky": EXPH,
    "quadratic_hencky": QH,
    "neo_hooke_vol_iso": ("--model", "neo_hooke_vol_iso", "--mu", "1", "--kappa", "3"),
}


@pytest.mark.parametrize("kind", list(COMPRESSIBLE_ARGS))
def test_check_and_scan_read_one_path(capsys, tmp_path, kind):
    # check evaluates its state as a batch of one through the same function
    # as the scan grid, so the margins agree bit for bit
    args = COMPRESSIBLE_ARGS[kind]
    code, out, _ = run_cli(capsys, "check", *args, "--protocol", "hydrostatic", "--at", "2.0")
    assert code == 0
    stability = json.loads(out)["stability"]
    csv = tmp_path / "scan.csv"
    assert run_cli(capsys, "scan", *args, "--grid", "0.5:3:6", "--out", str(csv))[0] == 0
    header, *rows = (line.split(",") for line in csv.read_text().splitlines())
    (row,) = [dict(zip(header, r)) for r in rows if r[3:6] == ["2.0", "2.0", "2.0"]]
    for column, key in (("csp_min_eig", "tangent_min_eig"), ("be_margin", "be_margin"),
                        ("te_margin", "te_margin"), ("lh_min_probe", "lh_min_probe")):
        assert row[column] == repr(stability[key]), column


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
    # the flag is compared with the built model's regime, either way round
    cfg = tmp_path / "bad.json"
    for kind, parameters, flagged in (("quadratic_hencky", {"E": 1.0, "nu": 0.3}, True),
                                      ("neo_hooke_incompressible", {"mu": 1.0}, False)):
        cfg.write_text(json.dumps({"kind": kind, "parameters": parameters,
                                   "incompressible": flagged}))
        code, _, err = run_cli(capsys, "moduli", "--config", str(cfg), "--protocol", "uniaxial",
                               "--at", "1.0")
        assert code == 1
        assert f"config 'incompressible'={flagged} contradicts kind '{kind}'" in err


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--protocol", "uniaxial",
                           "--grid", "0.5:2:5")
    assert code == 1
    assert "JSON" in err


@pytest.mark.parametrize("parameters,named", [
    ({"E": "abc", "nu": 0.3}, "'E'"),
    ({"E": 1.0, "nu": None}, "'nu'"),
    ([1, 2], "'parameters'"),
    # float() took JSON true and "1e0" as E = 1, and moduli exited 0
    ({"E": True, "nu": 0.3}, "parameter 'E' must be a number"),
    ({"E": "1e0", "nu": 0.3}, "parameter 'E' must be a number"),
], ids=["text", "null", "list", "bool", "numeric-text"])
def test_config_parameters_must_be_numbers(tmp_path, capsys, parameters, named):
    # one error line naming the parameter, not a ValueError or TypeError traceback
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "quadratic_hencky", "parameters": parameters}))
    code, out, err = run_cli(capsys, "moduli", "--config", str(cfg), "--protocol", "uniaxial",
                             "--at", "1.0")
    assert (code, out) == (1, "")
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("config,named", [
    (["kind"], "JSON object"),
    ({"kind": 5, "incompressible": True}, "unknown model kind '5'"),
    ({"kind": ["quadratic_hencky"]}, "unknown model kind"),
    ({"kind": "quadratic_hencky", "parameters": {"E": 1, "nu": 0.3}, "incompressible": "no"},
     "'incompressible' must be a boolean, got 'no'"),
    ({"kind": "neo_hooke_incompressible", "parameters": {"mu": 1}, "incompressible": None},
     "'incompressible' must be a boolean, got None"),
    ({"kind": "neo_hooke_incompressible", "parameters": {"mu": 1}, "incompressible": 1},
     "'incompressible' must be a boolean, got 1"),
], ids=["list", "kind-number", "kind-list", "flag-text", "flag-null", "flag-number"])
def test_config_must_be_an_object_with_a_boolean_regime(tmp_path, capsys, config, named):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "moduli", "--config", str(cfg), "--protocol", "uniaxial",
                             "--at", "1.0")
    assert (code, out) == (1, "")
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert named in err


# per kind, the model flags with valid values; each scalar field of the
# kind's class is one of them
VALID_FLAGS = {
    "exp_hencky": {"mu": "1", "lambda-lame": "2", "k": "1", "khat": "1"},
    "neo_hooke_vol_iso": {"mu": "1", "kappa": "3"},
    "neo_hooke_incompressible": {"mu": "1"},
    "quadratic_hencky_incompressible": {"mu": "1"},
    "exp_hencky_incompressible": {"mu": "1", "k": "1"},
}
SCALAR_FLAGS = {"exp_hencky": ("k", "khat"), "neo_hooke_vol_iso": ("mu", "kappa"),
                "neo_hooke_incompressible": ("mu",), "quadratic_hencky_incompressible": ("mu",),
                "exp_hencky_incompressible": ("mu", "k")}


@pytest.mark.parametrize("kind", list(SCALAR_FLAGS))
def test_nonpositive_or_nonfinite_parameter_is_one_error_line(capsys, kind):
    # e.g. --kappa nan built a model whose scan printed "kappa":NaN, which is
    # not JSON, and listed violations before it exited 1
    for name in SCALAR_FLAGS[kind]:
        for value in ("0", "-1", "nan", "inf", "-inf"):
            flags = {**VALID_FLAGS[kind], name: value}
            argv = [f"--{k}={v}" for k, v in flags.items()]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "moduli", "--model", kind, *argv,
                                         "--protocol", "uniaxial", "--at", "1.5")
            assert (code, out) == (1, ""), (name, value)
            assert err.startswith("corostab: error:") and err.count("\n") == 1
            assert f"0 < {name} < inf" in err


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
    # the lateral root lambda1^(-0.98/0.51) leaves the scanned range
    # [1.64e-195, 6.09e+194] far out; the failing lambda1 must appear in the
    # message
    code, _, err = run_cli(capsys, "sweep", "--model", "quadratic_hencky", "--E", "1",
                           "--nu", "0.49", "--protocol", "equibiaxial", "--grid", "1:1e120:3")
    assert code == 1
    assert "lambda1 = 5e+119" in err


@pytest.mark.parametrize("flags,what", [
    (("--grid", "0.5:3:-1"), "at least 1 point"),
    (("--grid", "0:3:3"), "stretches > 0"),
    (("--grid", "0.5:3:5", "--pairs", "-1"), "pairs >= 0"),
    # an empty --grid ran the default grid and exited 0
    (("--grid", ""), "--grid must be a:b:n, got ''"),
], ids=["negative-count", "zero-stretch", "negative-pairs", "empty-grid"])
def test_scan_rejects_bad_grid_and_pairs(capsys, flags, what):
    code, out, err = run_cli(capsys, "scan", *QH, *flags)
    assert code == 1 and out == ""
    assert err.startswith("corostab: error:") and what in err


def test_scan_small_valid_stretches_pass_validation(capsys):
    code, out, _ = run_cli(capsys, "scan", *QH, "--grid", "0.01:0.02:2", "--pairs", "4")
    assert code == 0
    assert json.loads(out)["counts"]["states"] == 8
    # 0.01:3:5 is valid input too: whatever the scan makes of it, the grid
    # check must not be what stops it
    _, _, err = run_cli(capsys, "scan", *QH, "--grid", "0.01:3:5")
    assert "scan grid" not in err


@pytest.mark.parametrize("command", [("sweep", "--protocol", "uniaxial"), ("scan",)],
                         ids=["sweep", "scan"])
@pytest.mark.parametrize("flags", [
    ("--lambda-min", "0.5", "--lambda-max", "2", "--steps", "3"),
    ("--steps", "3"),
], ids=["range", "steps"])
def test_grid_with_range_flags_is_usage_error(capsys, command, flags):
    # the range flags were dropped without a word and the --grid range ran
    code, out, err = run_cli(capsys, *command, *QH, *flags, "--grid", "1:2:3")
    assert code == 1 and out == ""
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert "not both" in err


@pytest.mark.parametrize("flags", [
    ("--lambda-max", "2", "--steps", "3"),
    ("--lambda-min", "0.5", "--lambda-max", "2"),
    ("--steps", "3",),
], ids=["no-min", "no-steps", "steps-only"])
def test_scan_partial_range_is_usage_error(capsys, flags):
    code, out, err = run_cli(capsys, "scan", *QH, *flags)
    assert code == 1 and out == ""
    assert "--lambda-min" in err


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_rate_verify_rejects_no_cases(capsys, cases):
    code, out, err = run_cli(capsys, "rate-verify", *QH, "--cases", cases)
    assert code == 1 and out == ""
    assert "--cases" in err


@pytest.mark.parametrize("command", [("scan", "--grid", "0.5:2:3"), ("rate-verify",)],
                         ids=["scan", "rate-verify"])
def test_negative_seed_is_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, command[0], *QH, *command[1:], "--seed", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert "seed" in err and "-1" in err


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
    # refused by the rule of the rate identities, before any output
    code, out, err = run_cli(
        capsys, "rate-verify", "--model", "neo_hooke_incompressible", "--mu", "1",
    )
    assert code == 1 and out == ""
    assert err == ("corostab: error: model 'neo_hooke_incompressible' is incompressible; rate "
                   "identities need the pointwise stress, which requires a pressure history\n")


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


KNOWN_DEFECTS = {
    "scan-exp_hencky": ("scan", *EXPH, "--grid", "0.01:3:5"),
    "scan-quadratic_hencky": ("scan", *QH, "--grid", "0.01:3:5"),
    "scan-neo_hooke_vol_iso": ("scan", "--model", "neo_hooke_vol_iso", "--mu", "1", "--kappa", "3",
                               "--grid", "0.01:3:5"),
    "check-quadratic_hencky-0.02": ("check", *QH, "--protocol", "equibiaxial", "--at", "0.02"),
    "check-neo_hooke_vol_iso-20": ("check", "--model", "neo_hooke_vol_iso", "--mu", "1",
                                   "--kappa", "3", "--protocol", "equibiaxial", "--at", "20"),
}


@pytest.mark.parametrize("argv", KNOWN_DEFECTS.values(), ids=KNOWN_DEFECTS.keys())
def test_small_stretch_states_evaluate(capsys, argv):
    # a stretch below the old finite-difference step of the rank-one stage
    # inverted a perturbed F ("deformation gradient must have positive
    # determinant"); the exact minimum needs no step
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    if argv[0] == "check":
        assert np.isfinite(payload["stability"]["lh_min_probe"])
    else:
        assert payload["counts"]["states"] == 125


def test_out_of_range_stretch_is_a_domain_error(capsys):
    # lambda3 = lambda1^-2 underflows to 0 at lambda1 = 1e200; this printed
    # "modulus_incr":Infinity, which is not JSON, and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "moduli", "--model", "neo_hooke_incompressible", "--mu", "1",
            "--protocol", "equibiaxial", "--at", "1e200",
        )
    assert code == 1 and out == ""
    assert err.startswith("corostab: error:")
    assert "lambda1 = 1e+200" in err and "equibiaxial" in err


def test_scan_summary_is_strict_json(capsys, tmp_path):
    # nine te margins overflow to -inf at E = 1e300: they were listed as
    # violations, and the summary held -Infinity tokens.  The CSV keeps them
    argv = ("scan", "--model", "quadratic_hencky", "--E", "1e300", "--nu", "0.3",
            "--grid", "1e-8:1e8:5")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and "61 of 125 states" in err

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")
    payload = json.loads(out, parse_constant=reject)
    assert payload["counts"]["violations"]["te"] == 115
    out_csv = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *argv, "--out", str(out_csv))[0] == 1
    te = [row.split(",")[8] for row in out_csv.read_text().splitlines()[1:]]
    assert te.count("-inf") == 9


@pytest.mark.parametrize("command", ["check", "moduli"])
def test_overflowing_stress_is_a_domain_error(capsys, command):
    # the stretches are representable but mu exp(2 x) overflows: check ended
    # in a LinAlgError traceback and moduli leaked overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, command, "--model", "neo_hooke_incompressible", "--mu", "1",
            "--protocol", "uniaxial", "--at", "1e200",
        )
    assert code == 1 and out == ""
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert "lambda1 = 1e+200" in err and "uniaxial" in err


@pytest.mark.parametrize("command", ["check", "moduli"])
@pytest.mark.parametrize("stiffening", [("--k", "8", "--khat", "1"), ("--k", "1", "--khat", "4")],
                         ids=["k8", "khat4"])
def test_benign_state_with_overflowing_closure_scan(capsys, command, stiffening):
    # the cold closure's bracketing scan overflows exp(k x^2) far from the
    # root and skips those points; the solved state is finite and must be
    # reported, equal to the warm-started sweep row through it
    model = ("--model", "exp_hencky", "--mu", "1", "--lambda-lame", "2", *stiffening)
    code, out, err = run_cli(capsys, "sweep", *model, "--protocol", "uniaxial", "--grid", "1:1.2:2")
    assert code == 0, err
    row = CurveTable.from_csv(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, *model, "--protocol", "uniaxial", "--at", "1.2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["modulus_incr"] == pytest.approx(row.modulus_incr[-1], rel=1e-12)
    assert payload["modulus_incr_log"] == pytest.approx(row.modulus_incr_log[-1], rel=1e-12)
    if command == "check":
        assert payload["state"][1] == pytest.approx(row.lambda_lateral[-1], rel=1e-12)
        assert payload["stress_driving"] == pytest.approx(row.stress_driving[-1], rel=1e-12)
        assert payload["energy"] == pytest.approx(row.energy[-1], rel=1e-12)
        assert payload["violations"] == []


NONFINITE_CASES = {
    # 26 of the 27 states overflow exp(k |x|^2); the scan listed no violation,
    # exited 0 and leaked RuntimeWarnings
    "scan": (("scan", *EXPH, "--grid", "0.5:1e12:3", "--expect-stable"),
             "26 of 27 states", "[0.5, 0.5, 500000000000.25]"),
    # mu lambda1^2 overflows at representable stretches; the sweep wrote inf
    # rows and exited 0
    "sweep": (("sweep", "--model", "neo_hooke_incompressible", "--mu", "1",
               "--protocol", "uniaxial", "--grid", "0.5:1e200:3"),
              "2 of 4 states", "'uniaxial'"),
    # 1 / lambda^2 of the rank-one stage underflows at lambda = 1e-300, and
    # the scan printed numpy's divide-by-zero RuntimeWarning on stderr
    "scan-underflow": (("scan", *QH, "--grid", "1e-300:1e300:3"),
                       "19 of 27 states", "[1e-300, 1e-300, 1e-300]"),
    # lambda3 = lambda1^-2 leaves the floating-point range past lambda1 ~ 1e154;
    # the DomainError of the closed kinematics was the only output, no rows
    "sweep-out-of-range": (("sweep", "--model", "neo_hooke_incompressible", "--mu", "1",
                            "--protocol", "equibiaxial", "--grid", "0.5:1e200:3"),
                           "2 of 4 states", "'equibiaxial'"),
}


@pytest.mark.parametrize("command", list(NONFINITE_CASES))
def test_nonfinite_states_fail_after_output(capsys, tmp_path, command):
    argv, count, where = NONFINITE_CASES[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("corostab: error:") and err.count("\n") == 1
    assert count in err and where in err
    if command == "scan":
        payload = json.loads(out)
        assert payload["counts"]["states"] == 27 and payload["violations"] == []
        # every pair meets an overflowed Cauchy stress, so every state reads
        # tsts_m_plus_ok 0 (was 1); the det-normalized Hill values are finite.
        # be is +inf where the stretches differ and every product overflows
        # (was 0.0), and 0.0 only where no two stretches differ
        out_csv = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, *argv, "--out", str(out_csv))[0] == 1
        rows = out_csv.read_text().splitlines()[1:]
        assert {row[-3:] for row in rows} == {"0,1"}
        assert rows[1] == "0,0,1,0.5,0.5,500000000000.25,nan,inf,nan,nan,0,1"
        assert rows[13] == (
            "1,1,1,500000000000.25,500000000000.25,500000000000.25,nan,0.0,nan,nan,0,1"
        )
    elif command == "sweep-out-of-range":
        assert "lambda1 = 5e+199" in err
        assert out.splitlines()[1:] == ["0.5,4.0,-15.749999999999998,-31.499999999999996,6.75,"
                                        "64.5,32.25",
                                        "1.0,1.0,0.0,0.0,0.0,3.0,3.0",
                                        "5e+199,nan,nan,nan,nan,nan,nan",
                                        "1e+200,nan,nan,nan,nan,nan,nan"]
    elif command == "sweep":
        assert out.splitlines()[3:] == ["5e+199,1.414213562373095e-100,inf,inf,inf,inf,inf",
                                        "1e+200,1e-100,inf,inf,inf,inf,inf"]
        assert "lambda1 = 5e+199" in err
        # the lateral stretch lambda1^(-2 nu / (1 - nu)) leaves [1e-3, 1e3]
        # above lambda1 ~ 36.4; the outer scan points solve those closures
        # (the last 11 of 41 rows were NaN, and the sweep exited 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--model", "quadratic_hencky", "--E", "1",
                                     "--nu", "0.49", "--protocol", "equibiaxial",
                                     "--grid", "0.5:50:40")
        assert code == 0 and err == ""
        table = CurveTable.from_csv(out)
        rows = np.stack(list(vars(table).values()), axis=-1)
        assert rows.shape == (41, 7) and np.all(np.isfinite(rows))
        np.testing.assert_allclose(table.lambda_lateral, table.lambda1 ** (-0.98 / 0.51),
                                   rtol=1e-9)


@pytest.mark.parametrize("command", ["sweep", "moduli", "check", "scan", "rate-verify"])
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    # data/golden/help-<command>.txt were written at commit f691732, where
    # every model flag had its own add_argument call; the flags built from
    # materials.PARAMETER_NAMES must print the same help, byte for byte
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    golden = Path(__file__).parent / "data" / "golden" / f"help-{command}.txt"
    assert capsys.readouterr().out == golden.read_text()


SHARED_PARSER_ARGV = [
    ("check", *QH, "--at", "14"),  # usage error: --protocol is required
    ("check", *QH, "--protocol", "uniaxial", "--at", "14", "--expect-stable"),
    ("check", *QH, "--protocol", "uniaxial", "--at", "14"),
    ("sweep", *EXPH, "--protocol", "planar", "--grid", "0.8:1.6:4"),
    ("scan", *QH, "--grid", "0.5:3:3", "--pairs", "8"),
    ("rate-verify", *EXPH, "--cases", "3", "--seed", "4"),
]


def test_parser_shared_across_calls(capsys):
    # one process, one parser: a command must not see what an earlier one parsed
    forward = [run_cli(capsys, *argv) for argv in SHARED_PARSER_ARGV]
    backward = [run_cli(capsys, *argv) for argv in reversed(SHARED_PARSER_ARGV)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [1, 2, 0, 0, 0, 0]
    assert "required: --protocol" in forward[0][2]


def test_parser_built_at_most_once(monkeypatch, capsys):
    from corostab import cli

    build_parser = cli.build_parser
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    for _ in range(10):
        assert run_cli(capsys, "moduli", *QH, "--protocol", "uniaxial", "--at", "1.5")[0] == 0
    assert len(builds) <= 1


def test_rate_verify_energy_calls_independent_of_cases(monkeypatch, capsys):
    # the cases are evaluated as one stack, so the number of energy
    # evaluations per identity does not grow with --cases
    from corostab import materials, rates

    def count(cases):
        calls = []

        def counting_energy(model, F):
            calls.append(1)
            return materials.energy_from_F(model, F)

        monkeypatch.setattr(rates, "energy_from_F", counting_energy)
        code, _, err = run_cli(capsys, "rate-verify", *QH, "--cases", str(cases))
        assert code == 0, err
        return len(calls)

    assert count(1) == count(40)


def test_rate_verify_stacks_are_bounded(monkeypatch, capsys):
    # cases are stacked in blocks of _RATE_BLOCK, so memory stays flat at any
    # --cases; the blocks draw the same motions in the same order
    from corostab import cli

    sizes = []

    def recording_motion(F, Fdot, Fddot):
        sizes.append(F.shape[0])
        return MotionSample(F, Fdot, Fddot)

    monkeypatch.setattr(cli, "MotionSample", recording_motion)
    code, out, err = run_cli(capsys, "rate-verify", *QH, "--cases", "100", "--seed", "3")
    assert code == 0, err
    head = json.loads(out)["max_residuals"]
    sizes.clear()
    code, out, err = run_cli(capsys, "rate-verify", *QH, "--cases", "250", "--seed", "3")
    assert code == 0, err
    assert sizes == [cli._RATE_BLOCK, cli._RATE_BLOCK, 250 - 2 * cli._RATE_BLOCK]
    worst = json.loads(out)["max_residuals"]
    assert all(worst[k] >= head[k] for k in head)


@pytest.mark.parametrize("command", [
    ("sweep", "--protocol", "uniaxial", "--grid", "0.5:2:3"),
    ("scan", "--grid", "0.5:2:3"),
    ("check", "--protocol", "uniaxial", "--at", "1.5"),
    ("moduli", "--protocol", "uniaxial", "--at", "1.5"),
    ("rate-verify", "--cases", "2"),
], ids=["sweep", "scan", "check", "moduli", "rate-verify"])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, command):
    # a path that cannot be opened for writing is refused like an unreadable
    # --config: exit 1 with one line, no traceback
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, command[0], *QH, *command[1:], "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"corostab: error: cannot write '{path}': No such file or directory\n"
