import numpy as np
import pytest

from corostab import materials as mat
from corostab import protocols as proto
from corostab.errors import ConfigurationError, SolverError, UsageError
from corostab.materials import instantiate_model
from corostab.protocols import (
    CurveTable,
    Protocol,
    driving_stress,
    incremental_moduli,
    lateral_closure,
    sweep,
)


@pytest.fixture(scope="module")
def qh():
    return instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.3})


@pytest.fixture(scope="module")
def exph():
    return instantiate_model("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0})


def protocol(kind, model):
    return Protocol.for_model(kind, model)


# --- protocol construction ----------------------------------------------------

def test_hydrostatic_incompressible_rejected():
    with pytest.raises(UsageError):
        Protocol("hydrostatic", "incompressible")


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        Protocol("simple_shear", "compressible")


def test_regime_mismatch_rejected(qh):
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    with pytest.raises(UsageError):
        lateral_closure(qh, Protocol("uniaxial", "incompressible"), 2.0)
    with pytest.raises(UsageError):
        lateral_closure(nh, Protocol("uniaxial", "compressible"), 2.0)


# --- closures ------------------------------------------------------------------

def test_quadratic_hencky_uniaxial_closure_closed_form(qh):
    # lateral solve reproduces lambda2 = lambda1^(-nu)
    p = protocol("uniaxial", qh)
    for lam1 in (0.5, 0.8, 1.0, 2.0, 5.0, 14.0):
        c = lateral_closure(qh, p, lam1)
        assert c.lam2 == pytest.approx(lam1 ** -0.3, abs=1e-8)
        assert c.lam2 == c.lam3
        assert abs(c.residual) <= 1e-10


def test_reference_state_closure(qh, exph):
    for m in (qh, exph):
        for kind in ("uniaxial", "equibiaxial", "planar", "hydrostatic"):
            c = lateral_closure(m, protocol(kind, m), 1.0)
            assert c.lam2 == pytest.approx(1.0, abs=1e-12)
            assert c.lam3 == pytest.approx(1.0, abs=1e-12)
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    c = lateral_closure(nh, protocol("uniaxial", nh), 1.0)
    assert c.pressure == pytest.approx(1.0)  # equilibrium pressure mu at identity
    val, _ = driving_stress(nh, protocol("uniaxial", nh), 1.0)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_incompressible_neo_hooke_closure():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    c = lateral_closure(nh, protocol("uniaxial", nh), 2.0)
    assert c.lam2 == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert c.pressure == pytest.approx(0.5, rel=1e-14)  # p = mu / lambda1


def test_incompressible_kinematics_unimodular():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    for kind in ("uniaxial", "equibiaxial", "planar"):
        for lam1 in (0.5, 1.3, 2.7):
            c = lateral_closure(nh, protocol(kind, nh), lam1)
            assert lam1 * c.lam2 * c.lam3 == pytest.approx(1.0, rel=1e-14)


def test_closure_lateral_stress_vanishes(exph):
    # solved condition is traction-free lateral Cauchy stress
    for kind, free in (("uniaxial", 1), ("equibiaxial", 2), ("planar", 1)):
        p = protocol(kind, exph)
        for lam1 in (0.6, 1.5, 3.0):
            c = lateral_closure(exph, p, lam1)
            st = mat.StretchState(lam1, c.lam2, c.lam3)
            ss = mat.principal_stresses(exph, st)
            scale = max(1.0, np.max(np.abs(ss.cauchy)))
            assert abs(ss.cauchy[free]) <= 1e-10 * scale


def test_equibiaxial_sets_lam2_to_lam1(exph):
    c = lateral_closure(exph, protocol("equibiaxial", exph), 1.7)
    assert c.lam2 == 1.7
    assert c.lam3 < 1.0


def test_planar_keeps_lam3_fixed(exph):
    c = lateral_closure(exph, protocol("planar", exph), 1.7)
    assert c.lam3 == 1.0


def test_cold_warm_consistency(exph, qh):
    rng = np.random.default_rng(31)
    for m in (exph, qh):
        p = protocol("uniaxial", m)
        for lam1 in (0.6, 1.4, 2.4, 3.6):
            cold = lateral_closure(m, p, lam1)
            warm = lateral_closure(m, p, lam1, warm=cold.lam2 * (1 + 1e-3 * rng.standard_normal()))
            assert warm.lam2 == pytest.approx(cold.lam2, abs=1e-9)


def test_unsolvable_closure_reports_scan():
    # an absurd driving stretch far outside the lateral scan window
    qh = instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.3})
    with pytest.raises((SolverError, ConfigurationError)):
        lateral_closure(qh, protocol("uniaxial", qh), 1e12)


# --- driving stresses and closed forms ------------------------------------------

def test_quadratic_hencky_sigma_closed_form(qh):
    p = protocol("uniaxial", qh)
    for lam1 in (0.5, 1.0, 2.0, 8.0, 14.0):
        val, _ = driving_stress(qh, p, lam1)
        closed = lam1 ** -0.4 * np.log(lam1)
        assert val == pytest.approx(closed, rel=1e-9, abs=1e-12)
    # frozen spot value at lambda1 = 2 (= 2^-0.4 log 2)
    assert driving_stress(qh, p, 2.0)[0] == pytest.approx(0.5253073323023416, rel=1e-12)


def test_incompressible_closed_forms():
    L = np.log
    cases = [
        ("neo_hooke_incompressible", {"mu": 1.0}, lambda l: l**2 - 1.0 / l),
        ("quadratic_hencky_incompressible", {"E": 1.0}, lambda l: L(l)),
        (
            "exp_hencky_incompressible",
            {"mu": 1.0, "k": 1.0},
            lambda l: L(l) * np.exp(1.5 * L(l) ** 2) * (np.sqrt(l) + 2.0 / l),
        ),
    ]
    for kind, params, closed in cases:
        m = instantiate_model(kind, params)
        p = protocol("uniaxial", m)
        for lam1 in np.linspace(0.5, 3.0, 23):
            val, _ = driving_stress(m, p, float(lam1))
            assert val == pytest.approx(closed(lam1), rel=1e-9, abs=1e-12), kind


def test_neo_hooke_incompressible_spot_value():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    val, _ = driving_stress(nh, protocol("uniaxial", nh), 2.0)
    assert val == pytest.approx(3.5, rel=1e-14)  # 4 - 1/2


def test_quadratic_hencky_incompressible_biot_peak():
    m = instantiate_model("quadratic_hencky_incompressible", {"E": 1.0})
    tab = sweep(m, protocol("uniaxial", m), 0.5, 5.0, 200, with_moduli=False)
    # T_biot = log(l)/l peaks at l = e
    np.testing.assert_allclose(
        tab.stress_biot, np.log(tab.lambda1) / tab.lambda1, rtol=1e-12, atol=1e-15
    )
    peak = tab.lambda1[np.argmax(tab.stress_biot)]
    spacing = np.max(np.diff(tab.lambda1))
    assert abs(peak - np.e) <= spacing


# --- sweeps ---------------------------------------------------------------------

def test_sweep_grid_contains_reference(qh):
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 4.0, 10, with_moduli=False)
    assert np.all(np.diff(tab.lambda1) > 0)
    i = int(np.argmin(np.abs(tab.lambda1 - 1.0)))
    assert tab.lambda1[i] == 1.0
    assert abs(tab.stress_driving[i]) <= 1e-10
    assert abs(tab.stress_biot[i]) <= 1e-10


def test_sweep_validates_grid(qh):
    p = protocol("uniaxial", qh)
    with pytest.raises(ConfigurationError):
        sweep(qh, p, -0.5, 2.0, 10)
    with pytest.raises(ConfigurationError):
        sweep(qh, p, 2.0, 0.5, 10)
    with pytest.raises(ConfigurationError):
        sweep(qh, p, 0.5, 2.0, 1)


def test_sweep_matches_pointwise_closed_form(qh):
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 4.0, 40, with_moduli=False)
    closed = tab.lambda1 ** -0.4 * np.log(tab.lambda1)
    np.testing.assert_allclose(tab.stress_driving, closed, rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(tab.lambda_lateral, tab.lambda1 ** -0.3, atol=1e-8)


def test_exp_hencky_sweeps_monotone_all_protocols(exph):
    for kind in ("uniaxial", "equibiaxial", "planar", "hydrostatic"):
        tab = sweep(exph, protocol(kind, exph), 0.5, 4.0, 60, with_moduli=False)
        assert np.all(np.diff(tab.stress_driving) > 0), kind


def test_incompressible_sweeps_monotone():
    for kind, params in (
        ("neo_hooke_incompressible", {"mu": 1.0}),
        ("quadratic_hencky_incompressible", {"mu": 1.0}),
        ("exp_hencky_incompressible", {"mu": 1.0, "k": 1.0}),
    ):
        m = instantiate_model(kind, params)
        tab = sweep(m, protocol("uniaxial", m), 0.5, 4.0, 60, with_moduli=False)
        assert np.all(np.diff(tab.stress_driving) > 0), kind


def test_energy_stress_consistency_uniaxial(qh, exph):
    # d/dl1 of the on-path energy equals the Biot driving stress when the
    # lateral faces are traction-free (exp-Hencky incompressible excluded:
    # its published stress is not the gradient of its energy)
    models = [
        qh,
        exph,
        instantiate_model("neo_hooke_vol_iso", {"mu": 1.0, "kappa": 1.0}),
        instantiate_model("neo_hooke_incompressible", {"mu": 1.0}),
        instantiate_model("quadratic_hencky_incompressible", {"mu": 1.0}),
    ]
    for m in models:
        p = protocol("uniaxial", m)

        def W(l):
            c = lateral_closure(m, p, l)
            return m.energy([l, c.lam2, c.lam3])

        for lam1 in (0.7, 1.3, 2.1):
            h = 1e-5 * lam1
            dW = (W(lam1 + h) - W(lam1 - h)) / (2 * h)
            val, c = driving_stress(m, p, lam1)
            biot = val / lam1 if m.incompressible else c.lam2 * c.lam3 * val
            assert dW == pytest.approx(biot, rel=1e-5, abs=1e-8), m.kind


def test_energy_column_matches_model(qh):
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 2.0, 7, with_moduli=False)
    mu, lam = qh.constants.mu, qh.constants.lam
    nu = 0.3
    # on-path energy (mu (1 + 2 nu^2) + lam/2 (1 - 2 nu)^2) log(l1)^2
    coef = mu * (1 + 2 * nu**2) + 0.5 * lam * (1 - 2 * nu) ** 2
    np.testing.assert_allclose(tab.energy, coef * np.log(tab.lambda1) ** 2, rtol=1e-9, atol=1e-12)


# --- moduli ---------------------------------------------------------------------

def test_modulus_at_identity_equals_young(catalog):
    for m in catalog.values():
        p = protocol("uniaxial", m)
        mod, mod_log = incremental_moduli(m, p, 1.0)
        assert mod == pytest.approx(m.young, abs=1e-4), m.kind
        assert mod_log == pytest.approx(mod, abs=1e-12)  # lambda1 = 1


def test_quadratic_hencky_modulus_closed_form(qh):
    p = protocol("uniaxial", qh)
    for lam1 in (0.5, 1.0, 2.0, 5.0, 12.0, 14.0):
        mod, mod_log = incremental_moduli(qh, p, lam1)
        closed = lam1 ** (2 * 0.3 - 2.0) * ((2 * 0.3 - 1.0) * np.log(lam1) + 1.0)
        assert mod == pytest.approx(closed, rel=1e-7, abs=1e-10)
        assert mod_log == pytest.approx(lam1 * closed, rel=1e-7, abs=1e-10)
    # sign change location
    assert incremental_moduli(qh, p, np.e**2.5 * 0.99)[0] > 0
    assert incremental_moduli(qh, p, np.e**2.5 * 1.01)[0] < 0


def test_modulus_factors(qh):
    # equibiaxial slope carries 1/2, hydrostatic 1/3
    lam1 = 1.4

    def slope(kind):
        p = protocol(kind, qh)
        h = 1e-5
        f = lambda l: driving_stress(qh, p, l)[0]
        return (f(lam1 + h) - f(lam1 - h)) / (2 * h)

    for kind, factor in (("uniaxial", 1.0), ("equibiaxial", 0.5),
                         ("planar", 1.0), ("hydrostatic", 1.0 / 3.0)):
        mod, _ = incremental_moduli(qh, protocol(kind, qh), lam1)
        assert mod == pytest.approx(factor * slope(kind), rel=1e-5), kind


def test_hydrostatic_modulus_is_bulk_at_identity(qh):
    mod, _ = incremental_moduli(qh, protocol("hydrostatic", qh), 1.0)
    assert mod == pytest.approx(qh.constants.bulk, abs=1e-4)


def test_modulus_positive_equivalence(qh):
    # E_incr > 0  <=>  E_incr_log > 0 across the sweep
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 14.0, 60)
    assert np.all(np.sign(tab.modulus_incr) == np.sign(tab.modulus_incr_log))


def test_modulus_exact_at_tiny_stretch(qh):
    # the exact slope needs no stencil room below lambda1: the closed form
    # E e^{-(1-2 nu) x} (1 - (1-2 nu) x) / lambda1 holds down to lambda1 = 1e-5
    lam1, nu = 1e-5, 0.3
    x = np.log(lam1)
    closed = qh.young * np.exp(-(1 - 2 * nu) * x) * (1 - (1 - 2 * nu) * x) / lam1
    mod, mod_log = incremental_moduli(qh, protocol("uniaxial", qh), lam1)
    assert mod == pytest.approx(closed, rel=1e-9)
    assert mod_log == pytest.approx(lam1 * closed, rel=1e-9)


# --- CSV ------------------------------------------------------------------------

def test_csv_round_trip(qh):
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 2.0, 9)
    text = tab.to_csv()
    back = CurveTable.from_csv(text)
    assert back.to_csv() == text
    np.testing.assert_array_equal(back.lambda1, tab.lambda1)
    np.testing.assert_array_equal(back.modulus_incr, tab.modulus_incr)


def test_csv_header_schema(qh):
    tab = sweep(qh, protocol("uniaxial", qh), 0.5, 2.0, 3, with_moduli=False)
    first = tab.to_csv().splitlines()[0]
    assert first == (
        "lambda1,lambda_lateral,stress_driving,stress_biot,energy,"
        "modulus_incr,modulus_incr_log"
    )


def test_csv_rejects_bad_header():
    with pytest.raises(ConfigurationError):
        CurveTable.from_csv("a,b,c\n1,2,3\n")
