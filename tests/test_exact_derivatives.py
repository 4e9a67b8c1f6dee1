"""Finite-difference oracles for the exact stress derivatives.

Incremental moduli, log-strain tangents and tension-extension margins take
every stress derivative from ``MaterialModel.stress_jac``.  These tests check
that Jacobian and what is built from it against independent finite
differences of the stress itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corostab import stability as stab
from corostab.materials import StretchState, instantiate_model
from corostab.protocols import MODULUS_FACTOR, Protocol, driving_stress, incremental_moduli
from corostab.stability import be_te_check, hill_tangent, region_scan, tsts_tangent

from conftest import CATALOG_PARAMS

COMPRESSIBLE = ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso")
MODEL_PROTOCOLS = [
    (kind, proto)
    for kind in CATALOG_PARAMS
    for proto in (
        ("uniaxial", "equibiaxial", "planar", "hydrostatic")
        if kind in COMPRESSIBLE
        else ("uniaxial", "equibiaxial", "planar")
    )
]
MODELS = {k: instantiate_model(k, p) for k, p in CATALOG_PARAMS.items()}

ORACLE = settings(max_examples=12, deadline=None, derandomize=True)


@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_stress_jac_matches_central_difference(kind):
    m = MODELS[kind]
    rng = np.random.default_rng(60)
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=3)
        s, G = m.stress_jac(x)
        fd = np.zeros((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-6
            fd[:, j] = (m.stress_jac(x + e)[0] - m.stress_jac(x - e)[0]) / 2e-6
        np.testing.assert_allclose(G, fd, rtol=0, atol=1e-7 * (1.0 + np.max(np.abs(G))))
        np.testing.assert_array_equal(s, m.extra_tau(x) if m.incompressible else m.cauchy_principal(x))


def richardson_slope(f, x0, h):
    """5-point central difference at steps h and h/2, one Richardson level."""

    def d5(step):
        return (f(x0 - 2 * step) - 8 * f(x0 - step) + 8 * f(x0 + step) - f(x0 + 2 * step)) / (
            12.0 * step
        )

    return (16.0 * d5(h / 2) - d5(h)) / 15.0


@pytest.mark.parametrize("kind,proto", MODEL_PROTOCOLS)
@ORACLE
@given(lam1=st.floats(0.3, 4.0))
def test_modulus_matches_richardson_fd(kind, proto, lam1):
    m = MODELS[kind]
    p = Protocol.for_model(proto, m)
    value, closure = driving_stress(m, p, lam1)
    warm = {"equibiaxial": closure.lam3, "hydrostatic": lam1}.get(proto, closure.lam2)

    def f(l):
        return driving_stress(m, p, l, warm=warm)[0]

    fd = MODULUS_FACTOR[proto] * richardson_slope(f, lam1, 1e-4 * max(1.0, lam1))
    mod, mod_log = incremental_moduli(m, p, lam1)
    scale = 1.0 + abs(value) + abs(fd)
    assert abs(mod - fd) <= 1e-8 * scale, (mod, fd)
    assert mod_log == pytest.approx(lam1 * mod, rel=1e-14)
    # the closure a caller already holds gives the same modulus
    assert incremental_moduli(m, p, lam1, closure=closure) == (mod, mod_log)


def te_by_central_difference(m, lams):
    out = np.inf
    for i in range(3):
        h = 1e-6 * max(1.0, lams[i])
        lp, lm = lams.copy(), lams.copy()
        lp[i] += h
        lm[i] -= h
        d = (m.cauchy_principal(np.log(lp))[i] - m.cauchy_principal(np.log(lm))[i]) / (2.0 * h)
        out = min(out, d)
    return out


@pytest.mark.parametrize("kind", COMPRESSIBLE)
@ORACLE
@given(lams=st.lists(st.floats(0.3, 4.0), min_size=3, max_size=3))
def test_te_margin_matches_central_difference(kind, lams):
    m = MODELS[kind]
    lams = np.array(lams)
    fd = te_by_central_difference(m, lams)
    te = be_te_check(m, StretchState(*lams)).te_margin
    scale = 1.0 + np.max(np.abs(m.cauchy_principal(np.log(lams))))
    assert abs(te - fd) <= 1e-7 * scale, (te, fd)


def test_scan_te_column_matches_central_difference():
    m = MODELS["quadratic_hencky"]
    rep = region_scan(m, grid=(0.5, 3.0, 3), seed=0)
    for lams, te in zip(rep.states, rep.te_margin):
        assert te == pytest.approx(te_by_central_difference(m, lams.copy()), rel=1e-7, abs=1e-9)
        assert te == be_te_check(m, StretchState(*lams)).te_margin


def shear_entry(m, x1, mid, gap):
    """The 23 shear entry of the tangent at log-stretches (x1, mid +- gap/2)."""
    x = np.array([x1, mid + 0.5 * gap, mid - 0.5 * gap])
    if m.incompressible:
        x -= np.mean(x)
        return hill_tangent(m, np.diag(np.exp(x))).matrix[3, 3]  # dev_basis5 slot 23
    return tsts_tangent(m, np.diag(np.exp(x))).matrix[4, 4]  # basis6 slot 23


@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_shear_entry_continuous_across_coincidence(kind):
    # gaps on both sides of stability._COINCIDENT: below it the centred limit
    # is used, above it the divided difference; both must continue the value
    # at exact coincidence.  The entry itself varies by O(gap^2), about 2e-9
    # relative at gap = 1e-5; a bare divided difference would be off by about
    # 1e-6 relative at gap = 1e-9.
    assert 1e-7 < stab._COINCIDENT < 1e-5
    m = MODELS[kind]
    for x1, mid in ((0.4, -0.3), (-0.5, 0.6), (0.9, 0.9)):
        at = shear_entry(m, x1, mid, 0.0)
        for gap in (1e-9, 1e-7, 1e-5):
            assert shear_entry(m, x1, mid, gap) == pytest.approx(at, rel=1e-8, abs=1e-12), gap
