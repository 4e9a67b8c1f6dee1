"""Sweep output against CSV frozen before the moduli became exact.

The files in ``data/golden`` were written by ``corostab sweep`` with the
arguments below at commit 822703a, the last one that took the modulus from a
5-point Richardson stencil.  Exact moduli must leave every other column
byte-identical and move the modulus columns only within the stencil's own
error.
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
