"""CLI output against files frozen in ``data/golden``, one case per model
kind.

The sweep CSVs were written by ``corostab sweep`` with the arguments below at
commit 822703a, the last one that took the modulus from a 5-point Richardson
stencil.  Exact moduli must leave every other column byte-identical and move
the modulus columns only within the stencil's own error.

The ``check`` and ``moduli`` JSON lines and the ``scan`` JSON summaries were
written at commit 62853e8, before the per-state quantities were collapsed
onto one batched evaluation path; that change must not move a byte.  When
the sampled rank-one probe gave way to the exact minimum, ``lh_min_probe``
in the three compressible ``check`` files and the ``lh`` violations of
``quadratic_hencky-scan.json`` were rewritten, each value first checked
against the principal-axis oracle of ``oracles.py`` (a dense direction
search and the Hadeler copositivity certificate).  When the margins moved
onto one principal-frame block (ordered-force products from stress
differences without the volumetric term, the unimodular projection inside
the block for incompressible models, the smallest tangent eigenvalue from
the secular equation), ``be_margin`` and ``tangent_min_eig`` in four
``check`` files and the csp margins of ``quadratic_hencky-scan.json`` were
rewritten: at most 2.4e-16 relative for ``be_margin`` (one or two ulps;
old and new values are both within 3.4e-16 of 60-digit references) and
9.0e-15 for the csp margins.  Cutting the secular-equation bracket in 16
parts per pass instead of halving it moved ``tangent_min_eig`` of the
quadratic_hencky ``check`` file and six csp margins of its scan by one or
two ulps; old and new values are all within 6.4e-16 (check) and 5.3e-15
(scan) of 60-digit references.
"""

from pathlib import Path

import numpy as np
import pytest

from corostab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = [
    ("exp_hencky", ("--mu", "1", "--lambda-lame", "2", "--k", "1", "--khat", "1"),
     "equibiaxial", "0.5", "3"),
    ("quadratic_hencky", ("--E", "1", "--nu", "0.3"), "uniaxial", "0.5", "14"),
    ("neo_hooke_vol_iso", ("--mu", "1", "--kappa", "3"), "planar", "0.5", "3"),
    ("neo_hooke_incompressible", ("--mu", "1"), "uniaxial", "0.5", "3"),
    ("quadratic_hencky_incompressible", ("--mu", "1"), "equibiaxial", "0.5", "3"),
    ("exp_hencky_incompressible", ("--mu", "1", "--k", "1"), "planar", "0.5", "3"),
]

N_EXACT = 5  # lambda1, lambda_lateral, stress_driving, stress_biot, energy


@pytest.mark.parametrize("kind,params,protocol,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_sweep_matches_golden_csv(kind, params, protocol, lo, hi, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--model", kind, *params, "--protocol", protocol,
            "--lambda-min", lo, "--lambda-max", hi, "--steps", "9", "--out", str(out)]
    assert main(argv) == 0
    got = out.read_text().splitlines()
    want = (GOLDEN / f"{kind}-{protocol}.csv").read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        assert g[:N_EXACT] == w[:N_EXACT]
        np.testing.assert_allclose(
            [float(v) for v in g[N_EXACT:]], [float(v) for v in w[N_EXACT:]], rtol=1e-9, atol=0
        )


@pytest.mark.parametrize("kind,params,protocol,lo,hi", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("command,at", [("check", "2.5"), ("moduli", "0.7")])
def test_state_json_matches_golden(kind, params, protocol, lo, hi, command, at, tmp_path):
    out = tmp_path / "state.json"
    argv = [command, "--model", kind, *params, "--protocol", protocol, "--at", at,
            "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{kind}-{protocol}-{command}.json").read_bytes()


@pytest.mark.parametrize("kind,params,protocol,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_scan_summary_matches_golden(kind, params, protocol, lo, hi, tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--model", kind, *params, "--grid", "0.5:3:5", "--pairs", "16",
            "--out", str(out)]
    assert main(argv) == 0
    got = (tmp_path / "scan.json").read_bytes()
    assert got == (GOLDEN / f"{kind}-scan.json").read_bytes()
