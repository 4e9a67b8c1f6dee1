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
(scan) of 60-digit references.  When the rank-one minimum moved onto the
block's split derivatives and shear scalars, ``lh_min_probe`` in the three
compressible ``check`` files and 55 ``lh`` margins of
``quadratic_hencky-scan.json`` moved by a few ulps; old and new values are
all within 3.9e-15 of the 60-digit Simpson-Spector minimum.  When every
closure moved onto one solve (a grid plus a window around the reference
lateral stretch, roots bisected on their grid cell), three lateral stretches
moved by one ulp, with the driving and Biot stress and the energy of their
rows: exp_hencky equibiaxial at lambda1 = 3 and neo_hooke_vol_iso planar at
1.4375 and 1.75.  Only those columns of those rows were rewritten; every
moved lateral stretch, old and new, is within 1.04 ulp of the 50-digit
mpmath root of the traction-free condition.

When the rank-one stage moved onto the six entries of each copositivity
matrix (vertices once per state, each edge once per sign of s_i s_j, values
written out instead of einsum), 15 of the 75 ``lh`` margins of
``quadratic_hencky-scan.json`` moved; no other byte of any file did.  With
the 60-digit Simpson-Spector minimum in brackets, per state (old -> new):

* [0.5, 1.75, 3.0], [1.75, 3.0, 0.5], [3.0, 0.5, 1.75]:
  -0.015490154696190602 -> -0.015490154696190606;
  [3.0, 1.75, 0.5]: -0.015490154696190602 -> -0.015490154696190604;
  [0.5, 3.0, 1.75], [1.75, 0.5, 3.0]:
  -0.015490154696190599 -> -0.015490154696190604
  (-0.015490154696190587093);
* [0.5, 3.0, 1.125], [1.125, 0.5, 3.0]:
  -0.003701123613385751 -> -0.003701123613385744;
  [3.0, 1.125, 0.5]: -0.003701123613385749 -> -0.003701123613385744;
  [3.0, 0.5, 1.125]: -0.0037011236133857473 -> -0.0037011236133857456
  (-0.0037011236133857375332);
* [0.5, 3.0, 2.375], [2.375, 0.5, 3.0], [3.0, 2.375, 0.5]:
  -0.027622462200134222 -> -0.027622462200134215 (-0.027622462200134195049);
* [1.125, 3.0, 3.0], [3.0, 1.125, 3.0]:
  -0.10049093270106994 -> -0.10049093270106993 (-0.10049093270106989058).

The largest change is 1.9e-15 relative; the old values are within 3.6e-15
of the reference, the new ones within 2.2e-15.

When the smallest tangent eigenvalue moved from a 16-part cut of its
secular bracket to Newton's method on the pole-cleared secular function,
``tangent_min_eig`` of two ``check`` files and 38 of the 84 csp margins of
``quadratic_hencky-scan.json`` moved; no count and no other byte did.  With
the 60-digit tangent eigenvalue in brackets (closed-form derivatives of W,
mpmath.eigsy of sym(G), the shear quotients), old -> new:

* exp_hencky equibiaxial ``check``: 4.8202744339869765 -> 4.820274433986977
  (4.8202744339869801059);
* quadratic_hencky uniaxial ``check``: 0.28502117876986494 ->
  0.285021178769865 (0.28502117876986509069);
* [0.5, 1.75, 2.375]: -0.028457629633433144 -> -0.028457629633433106;
  [0.5, 2.375, 1.75]: -0.028457629633433092 -> -0.028457629633433113;
  [1.75, 0.5, 2.375]: -0.02845762963343306 -> -0.02845762963343307;
  [1.75, 2.375, 0.5]: -0.028457629633433228 -> -0.028457629633433172;
  [2.375, 0.5, 1.75]: -0.028457629633433092 -> -0.02845762963343308;
  [2.375, 1.75, 0.5]: -0.028457629633433228 -> -0.02845762963343314
  (-0.028457629633433208986);
* [0.5, 1.75, 3.0], [3.0, 1.75, 0.5]:
  -0.19142560214520546 -> -0.19142560214520543;
  [0.5, 3.0, 1.75], [3.0, 0.5, 1.75]:
  -0.19142560214520538 -> -0.19142560214520535;
  [1.75, 3.0, 0.5]: -0.19142560214520546 -> -0.1914256021452054
  (-0.19142560214520539109);
* [0.5, 2.375, 2.375]: -0.21703696302253672 -> -0.21703696302253664
  (-0.21703696302253675373);
* [0.5, 3.0, 2.375], [3.0, 0.5, 2.375]:
  -0.3148195330339983 -> -0.31481953303399834;
  [2.375, 3.0, 0.5]: -0.31481953303399834 -> -0.3148195330339984
  (-0.31481953303399829131);
* [1.125, 1.125, 2.375]: -0.1309039335701602 -> -0.13090393357016022
  (-0.13090393357016019007);
* the six orderings of (1.125, 1.75, 2.375):
  -0.3022775397300889 -> -0.30227753973008886 (-0.30227753973008893522);
* the three orderings of (1.125, 2.375, 2.375):
  -0.34283664076611253 -> -0.3428366407661125 (-0.34283664076611241103);
* [1.125, 3.0, 1.125], [3.0, 1.125, 1.125]:
  -0.26248614889466393 -> -0.2624861488946639 (-0.26248614889466385745);
* [1.125, 3.0, 1.75], [1.75, 3.0, 1.125], [3.0, 1.125, 1.75]:
  -0.34148509575333125 -> -0.3414850957533312 (-0.34148509575333128424);
* the three orderings of (1.75, 1.75, 2.375):
  -0.33946709747602 -> -0.33946709747601994 (-0.33946709747601999195);
* the three orderings of (2.375, 2.375, 3.0):
  -0.2703328978162823 -> -0.2703328978162822 (-0.27033289781628229523);
* [3.0, 0.5, 3.0], [3.0, 3.0, 0.5]:
  -0.36720345337520377 -> -0.3672034533752037 (-0.36720345337520369118).

The largest change is 3.1e-15 relative; the old values are within 3.6e-15
of the reference, the new ones within 2.7e-15.  Against the 50-digit
eigenvalue of the same double-precision block, the old values are within
1.2 and the new ones within 0.73 eps times the block's largest entry.
"""

import json
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


def _first_difference(got, want, path="$"):
    """The first key path, in the order of ``want``, at which two parsed JSON
    values differ, with both values; None if they are the same."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in [*want, *(k for k in got if k not in want)]:
            if key not in got or key not in want:
                return f"{path}.{key}: got {got.get(key, '<absent>')!r}, want {want.get(key, '<absent>')!r}"
            found = _first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(got, list) and isinstance(want, list):
        for n, (g, w) in enumerate(zip(got, want)):
            found = _first_difference(g, w, f"{path}[{n}]")
            if found:
                return found
        return None if len(got) == len(want) else f"{path}: got {len(got)} items, want {len(want)}"
    return None if repr(got) == repr(want) else f"{path}: got {got!r}, want {want!r}"


def _assert_same_json_bytes(got, want):
    """Byte equality of two JSON-lines files; a failure names the first
    differing key path and both values."""
    if got != want:
        lines = zip(got.decode().splitlines(), want.decode().splitlines())
        found = next((f"line {n}: {d}" for n, (g, w) in enumerate(lines, 1)
                      if (d := _first_difference(json.loads(g), json.loads(w)))), None)
        offset = next(n for n, (g, w) in enumerate(zip(got + b"\0", want + b"\1")) if g != w)
        pytest.fail(found or f"bytes differ from offset {offset}")


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
    _assert_same_json_bytes(out.read_bytes(), (GOLDEN / f"{kind}-{protocol}-{command}.json").read_bytes())


@pytest.mark.parametrize("kind,params,protocol,lo,hi", CASES, ids=[c[0] for c in CASES])
def test_scan_summary_matches_golden(kind, params, protocol, lo, hi, tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--model", kind, *params, "--grid", "0.5:3:5", "--pairs", "16",
            "--out", str(out)]
    assert main(argv) == 0
    _assert_same_json_bytes((tmp_path / "scan.json").read_bytes(),
                            (GOLDEN / f"{kind}-scan.json").read_bytes())
