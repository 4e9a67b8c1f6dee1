import json
import re
import warnings

import mpmath
import numpy as np
import pytest

from corostab import materials as mat
from corostab import protocols as proto
from corostab.cli import main
from corostab.errors import ConfigurationError, DomainError, SolverError, UsageError
from corostab.materials import instantiate_model
from corostab.protocols import (
    CurveTable,
    Protocol,
    driving_stress,
    incremental_moduli,
    lateral_closure,
    sweep,
)

from oracles import principal_stresses


@pytest.fixture(scope="module")
def qh():
    return instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.3})


@pytest.fixture(scope="module")
def exph():
    return instantiate_model("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0})


# --- protocol construction ----------------------------------------------------

def test_hydrostatic_incompressible_rejected():
    # the regime comes from the model, so the guard sits where the
    # incompressible kinematics are looked up
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    with pytest.raises(UsageError, match="hydrostatic"):
        lateral_closure(nh, Protocol("hydrostatic"), 2.0)
    with pytest.raises(UsageError, match="hydrostatic"):
        sweep(nh, Protocol("hydrostatic"), 0.5, 2.0, 5)


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        Protocol("simple_shear")


# --- closures ------------------------------------------------------------------

def test_quadratic_hencky_uniaxial_closure_closed_form(qh):
    # lateral solve reproduces lambda2 = lambda1^(-nu)
    p = Protocol("uniaxial")
    for lam1 in (0.5, 0.8, 1.0, 2.0, 5.0, 14.0):
        c = lateral_closure(qh, p, lam1)
        assert c.lam2 == pytest.approx(lam1 ** -0.3, abs=1e-8)
        assert c.lam2 == c.lam3
        assert abs(c.residual) <= 1e-10


def test_reference_state_closure(qh, exph):
    for m in (qh, exph):
        for kind in ("uniaxial", "equibiaxial", "planar", "hydrostatic"):
            c = lateral_closure(m, Protocol(kind), 1.0)
            assert c.lam2 == pytest.approx(1.0, abs=1e-12)
            assert c.lam3 == pytest.approx(1.0, abs=1e-12)
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    c = lateral_closure(nh, Protocol("uniaxial"), 1.0)
    assert c.pressure == pytest.approx(1.0)  # equilibrium pressure mu at identity
    val, _ = driving_stress(nh, Protocol("uniaxial"), 1.0)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_incompressible_neo_hooke_closure():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    c = lateral_closure(nh, Protocol("uniaxial"), 2.0)
    assert c.lam2 == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert c.pressure == pytest.approx(0.5, rel=1e-14)  # p = mu / lambda1


def test_incompressible_kinematics_unimodular():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    for kind in ("uniaxial", "equibiaxial", "planar"):
        for lam1 in (0.5, 1.3, 2.7):
            c = lateral_closure(nh, Protocol(kind), lam1)
            assert lam1 * c.lam2 * c.lam3 == pytest.approx(1.0, rel=1e-14)


def test_closure_lateral_stress_vanishes(exph):
    # solved condition is traction-free lateral Cauchy stress
    for kind, free in (("uniaxial", 1), ("equibiaxial", 2), ("planar", 1)):
        p = Protocol(kind)
        for lam1 in (0.6, 1.5, 3.0):
            c = lateral_closure(exph, p, lam1)
            st = mat.StretchState(lam1, c.lam2, c.lam3)
            ss = principal_stresses(exph, st)
            scale = max(1.0, np.max(np.abs(ss.cauchy)))
            assert abs(ss.cauchy[free]) <= 1e-10 * scale


def test_equibiaxial_sets_lam2_to_lam1(exph):
    c = lateral_closure(exph, Protocol("equibiaxial"), 1.7)
    assert c.lam2 == 1.7
    assert c.lam3 < 1.0


def test_planar_keeps_lam3_fixed(exph):
    c = lateral_closure(exph, Protocol("planar"), 1.7)
    assert c.lam3 == 1.0


def test_cold_warm_consistency(exph, qh):
    rng = np.random.default_rng(31)
    for m in (exph, qh):
        p = Protocol("uniaxial")
        for lam1 in (0.6, 1.4, 2.4, 3.6):
            cold = lateral_closure(m, p, lam1)
            warm = lateral_closure(m, p, lam1, warm=cold.lam2 * (1 + 1e-3 * rng.standard_normal()))
            # warm moves only the reference of the root choice: the same grid
            # cell's root, refined the same way
            assert warm.lam2 == cold.lam2
            assert warm.candidates == cold.candidates


# exp_hencky with several lateral roots near lambda1 = 1 in every solved protocol
FOLD = {"E": 1.0, "nu": -0.4, "k": 0.5, "khat": 2.0}


@pytest.mark.parametrize("kind,rows", [
    # the upper branch ends between 1.175 and 1.1875; a grid-only solve left
    # it at 1.175 for the lower root 0.6228
    ("uniaxial", {1.175: 1.1224385946, 1.1875: 0.6176150613}),
    # the upper branch ends between 1.4125 and 1.425; a grid-only solve left
    # it one row early
    ("planar", {1.4125: 1.2385891355, 1.425: 0.2023041236}),
])
def test_sweep_follows_its_branch_to_the_fold(kind, rows):
    # every closure lists each root of its state, a second root in the same
    # grid cell included (the sign change of dr/dy there splits the cell), so
    # the march stays on its branch to the fold; past the fold the nearest
    # remaining root is taken
    m = instantiate_model("exp_hencky", FOLD)
    tab = sweep(m, Protocol(kind), 0.5, 3.0, 201, with_moduli=False)
    for lam1, lateral in rows.items():
        (i,) = np.flatnonzero(np.isclose(tab.lambda1, lam1, rtol=0, atol=1e-12))
        assert tab.lambda_lateral[i] == pytest.approx(lateral, rel=1e-9), lam1


def test_close_roots_in_one_grid_cell_are_candidates():
    # the roots 1.01329 and 1.08311 lie in one 0.22-wide grid cell of
    # log(lateral) with one sign of the residual at both ends; the residual's
    # slope changes sign in the cell and the residual at the slope's root has
    # the other sign, which brackets both, and the one nearest 1 is chosen (a
    # 200,001-point scan finds the same three roots)
    m = instantiate_model("neo_hooke_vol_iso", {"mu": 1.14437, "kappa": 3.26721})
    c = lateral_closure(m, Protocol("uniaxial"), 0.326254)
    np.testing.assert_allclose(c.candidates, (0.4177216021, 1.0132881157, 1.0831167153),
                               rtol=0, atol=1e-9)
    assert c.lam2 == c.lam3 == c.candidates[1]


@pytest.mark.parametrize("kind,params,protocol,lam1,fold", [
    ("neo_hooke_vol_iso", {"mu": 1.14437, "kappa": 3.26721}, "uniaxial", 0.326254, False),
    ("exp_hencky", FOLD, "uniaxial", 1.175, True),
    ("exp_hencky", FOLD, "planar", 1.4125, True),
], ids=["close-roots", "fold-uniaxial", "fold-planar"])
def test_candidates_do_not_depend_on_the_reference(capsys, kind, params, protocol, lam1, fold):
    # the reference only chooses among the candidates, so a cold closure, a
    # sweep row and a closure warmed anywhere list the same roots; a lone
    # check or moduli at a fold row then equals its sweep row to the bit
    m = instantiate_model(kind, params)
    p = Protocol(protocol)
    cold = lateral_closure(m, p, lam1)
    assert len(cold.candidates) == 3
    for warm in (1e-3, 0.05, 3.0, 20.0, 1e3):
        assert lateral_closure(m, p, lam1, warm=warm).candidates == cold.candidates, warm
    if not fold:
        return
    flags = ["--model", kind, *(f"--{k}={v}" for k, v in params.items()), "--protocol", protocol]
    assert main(["sweep", *flags, "--grid", "0.5:3:201"]) == 0
    tab = CurveTable.from_csv(capsys.readouterr().out)
    (i,) = np.flatnonzero(tab.lambda1 == lam1)
    assert main(["check", *flags, "--at", str(lam1)]) == 0
    state = json.loads(capsys.readouterr().out)
    assert main(["moduli", *flags, "--at", str(lam1)]) == 0
    moduli = json.loads(capsys.readouterr().out)
    assert state["state"][1] == tab.lambda_lateral[i]
    for column in ("stress_driving", "stress_biot", "energy", "modulus_incr", "modulus_incr_log"):
        assert state[column] == getattr(tab, column)[i], column
    for column in ("modulus_incr", "modulus_incr_log"):
        assert moduli[column] == getattr(tab, column)[i], column


@pytest.mark.parametrize("E", [1.0, 1e300])
def test_reference_state_closes_at_any_stress_scale(E):
    # tau_f scales with E and its root does not: the reference state closes
    # at lateral stretch 1 at E = 1e300 as at E = 1
    m = instantiate_model("quadratic_hencky", {"E": E, "nu": 0.3})
    for kind in ("uniaxial", "equibiaxial", "planar"):
        c = lateral_closure(m, Protocol(kind), 1.0)
        assert (c.lam2, c.lam3) == (1.0, 1.0), kind


@pytest.mark.parametrize("kind,params", [
    ("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0}),
    ("quadratic_hencky", {"E": 1.0, "nu": 0.3}),
    ("neo_hooke_vol_iso", {"mu": 1.0, "kappa": 3.0}),
])
def test_single_states_equal_sweep_rows(kind, params):
    # one solve for both: a single state and the sweep row through it choose
    # the same grid root, refined on the same cell, so they agree to the bit
    # (separate cold and warm solvers differed in the last bits on 17 of
    # these 234 rows)
    m = instantiate_model(kind, params)
    for proto in ("uniaxial", "equibiaxial", "planar"):
        p = Protocol(proto)
        tab = sweep(m, p, 0.5, 3.0, 26)
        for i, lam1 in enumerate(tab.lambda1):
            stress, closure = driving_stress(m, p, float(lam1))
            assert stress == tab.stress_driving[i], (proto, lam1)
            assert (closure.lam2, closure.lam3)[proto == "equibiaxial"] == tab.lambda_lateral[i]
            assert incremental_moduli(m, p, float(lam1)) == (tab.modulus_incr[i],
                                                             tab.modulus_incr_log[i])


@pytest.mark.parametrize("stiffening", [{"k": 8.0, "khat": 1.0}, {"k": 1.0, "khat": 4.0}],
                         ids=["k8", "khat4"])
def test_library_closures_do_not_warn(stiffening):
    # the residual scan overflows exp(k x^2) far from the root and skips
    # those points without a numpy warning, outside the command line too
    m = instantiate_model("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, **stiffening})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = lateral_closure(m, Protocol("uniaxial"), 1.2)
        tab = sweep(m, Protocol("uniaxial"), 0.5, 3.0, 26)
    (i,) = np.flatnonzero(np.isclose(tab.lambda1, 1.2, rtol=0, atol=1e-12))
    assert c.lam2 == pytest.approx(tab.lambda_lateral[i], rel=1e-12)
    assert np.all(np.isfinite(tab.lambda_lateral))


def test_sweep_keeps_rows_past_an_unbracketed_closure():
    # lambda_3 = lambda1^(-2 nu / (1 - nu)) leaves the scanned lateral range
    # [1.64e-195, 6.09e+194] above lambda1 ~ 1e101: the three rows there are
    # NaN but for lambda1, the others solved
    m = instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.49})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = sweep(m, Protocol("equibiaxial"), 0.5, 1e120, 4)
    assert len(tab.lambda1) == 5 and np.all(np.isfinite(tab.lambda1))
    bad = np.isnan(tab.lambda_lateral)
    assert bad.tolist() == [False, False, True, True, True]
    for column in (tab.stress_driving, tab.stress_biot, tab.energy, tab.modulus_incr,
                   tab.modulus_incr_log):
        assert np.all(np.isnan(column[bad])) and np.all(np.isfinite(column[~bad]))
    with pytest.raises(SolverError, match=r"not bracketed.*\[1.64e-195, 6.09e\+194\]"):
        lateral_closure(m, Protocol("equibiaxial"), float(tab.lambda1[bad][0]))


def test_unsolvable_closure_reports_scan():
    # the lateral root lambda1^(-0.98/0.51) lies far past the scanned range;
    # the error carries the scan, one (stretch, residual) pair per grid point
    qh = instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.49})
    with pytest.raises(SolverError) as exc:
        lateral_closure(qh, Protocol("equibiaxial"), 1e120)
    assert len(exc.value.scan) == 84
    assert exc.value.scan[0][0] == pytest.approx(1.64e-195, rel=1e-2)
    # the residual is tau_f, which has no 1 / J to underflow where J leaves
    # the normal double range: one candidate, not also 6e194
    assert len(lateral_closure(qh, Protocol("uniaxial"), 2.0).candidates) == 1


def _mp_equibiaxial_root(m, lam1, lat):
    """50-digit lateral stretch closing equibiaxial tension at lam1: the
    closed form for quadratic_hencky, else the root of tau_3 on a bracket of
    +-1e-9 around log(lat), which must hold a sign change."""
    with mpmath.workdps(50):
        mu, lam = mpmath.mpf(m.constants.mu), mpmath.mpf(m.constants.lam)
        x1 = mpmath.log(lam1)
        if m.kind == "quadratic_hencky":
            return float(mpmath.exp(-2 * lam * x1 / (2 * mu + lam)))
        k, khat = mpmath.mpf(m.k), mpmath.mpf(m.khat)

        def tau3(y):
            s = 2 * x1 + y
            return (2 * mu * y * mpmath.exp(k * (2 * x1 * x1 + y * y))
                    + lam * s * mpmath.exp(khat * s * s))
        y0, d = mpmath.log(lat), mpmath.mpf(1e-9)
        assert tau3(y0 - d) * tau3(y0 + d) < 0
        return float(mpmath.exp(mpmath.findroot(tau3, (y0 - d, y0 + d), solver="anderson",
                                                verify=False)))


@pytest.mark.parametrize("kind,params,grid,outside", [
    ("quadratic_hencky", {"E": 1.0, "nu": 0.49}, (0.5, 50.0, 40), 11),
    ("exp_hencky", {"E": 1.0, "nu": -0.4, "k": 0.5, "khat": 2.0}, (0.1, 0.3, 3), 2),
], ids=["quadratic_hencky", "exp_hencky"])
def test_lateral_roots_past_1e3_are_solved(kind, params, grid, outside):
    # the rows whose lateral stretch lies outside [1e-3, 1e3] were NaN while
    # the scan stopped there: lambda1 >= 37.3 in the first sweep (the closed
    # form lambda1^(-0.98/0.51)), lambda1 = 0.1 and 0.2 in the second
    m = instantiate_model(kind, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = sweep(m, Protocol("equibiaxial"), *grid)
    assert np.all(np.isfinite(np.stack(list(vars(tab).values()))))
    lat = tab.lambda_lateral
    assert np.count_nonzero((lat < 1e-3) | (lat > 1e3)) == outside
    for lam1, value in zip(tab.lambda1, lat):
        assert value == pytest.approx(_mp_equibiaxial_root(m, lam1, value), rel=4e-15, abs=0.0)
        if kind == "quadratic_hencky":
            assert value == pytest.approx(lam1 ** (-0.98 / 0.51), rel=2e-15, abs=0.0)


def test_overflowing_state_is_a_domain_error_in_the_library():
    # mu lambda1^2 overflows at a representable stretch: incremental_moduli
    # returned (inf, inf) with five RuntimeWarnings and driving_stress inf;
    # both now fail the way the command line does
    m = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    message = ("protocol 'uniaxial': 1 of 1 states have a non-finite value, "
               "the first at lambda1 = 1e+200")
    for f in (driving_stress, incremental_moduli):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                f(m, Protocol("uniaxial"), 1e200)
        assert str(exc.value) == message


def test_incompressible_closure_reads_only_its_pressure():
    # at lambda1 = 1e200 the driving extra stress mu lambda1^2 overflows but
    # the pressure mu lambda2^2 = 1e-200 does not: no warning leaks.  At
    # lambda1 = 1e-80 the equibiaxial pressure mu lambda1^-4 overflows, a
    # DomainError naming the state and protocol
    m = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lateral_closure(m, Protocol("uniaxial"), 1e200).pressure == pytest.approx(
            1e-200, rel=1e-13)
        with pytest.raises(DomainError) as exc:
            lateral_closure(m, Protocol("equibiaxial"), 1e-80)
    assert str(exc.value) == ("protocol 'equibiaxial': 1 of 1 states have a non-finite value, "
                              "the first at lambda1 = 1e-80")


# --- driving stresses and closed forms ------------------------------------------

def test_quadratic_hencky_sigma_closed_form(qh):
    p = Protocol("uniaxial")
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
        p = Protocol("uniaxial")
        for lam1 in np.linspace(0.5, 3.0, 23):
            val, _ = driving_stress(m, p, float(lam1))
            assert val == pytest.approx(closed(lam1), rel=1e-9, abs=1e-12), kind


def test_neo_hooke_incompressible_spot_value():
    nh = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    val, _ = driving_stress(nh, Protocol("uniaxial"), 2.0)
    assert val == pytest.approx(3.5, rel=1e-14)  # 4 - 1/2


def test_quadratic_hencky_incompressible_biot_peak():
    m = instantiate_model("quadratic_hencky_incompressible", {"E": 1.0})
    tab = sweep(m, Protocol("uniaxial"), 0.5, 5.0, 200, with_moduli=False)
    # T_biot = log(l)/l peaks at l = e
    np.testing.assert_allclose(
        tab.stress_biot, np.log(tab.lambda1) / tab.lambda1, rtol=1e-12, atol=1e-15
    )
    peak = tab.lambda1[np.argmax(tab.stress_biot)]
    spacing = np.max(np.diff(tab.lambda1))
    assert abs(peak - np.e) <= spacing


# --- sweeps ---------------------------------------------------------------------

def test_sweep_grid_contains_reference(qh):
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 4.0, 10, with_moduli=False)
    assert np.all(np.diff(tab.lambda1) > 0)
    i = int(np.argmin(np.abs(tab.lambda1 - 1.0)))
    assert tab.lambda1[i] == 1.0
    assert abs(tab.stress_driving[i]) <= 1e-10
    assert abs(tab.stress_biot[i]) <= 1e-10


def test_sweep_validates_grid(qh):
    p = Protocol("uniaxial")
    with pytest.raises(ConfigurationError):
        sweep(qh, p, -0.5, 2.0, 10)
    with pytest.raises(ConfigurationError):
        sweep(qh, p, 2.0, 0.5, 10)
    with pytest.raises(ConfigurationError):
        sweep(qh, p, 0.5, 2.0, 1)


@pytest.mark.parametrize("lam_min,lam_max", [(0.5, np.inf), (np.nan, 2.0), (0.5, np.nan)],
                         ids=["inf", "nan-min", "nan-max"])
def test_sweep_refuses_a_non_finite_bound_up_front(qh, lam_min, lam_max):
    # the input check names the bound, not the first non-finite row's closure
    with pytest.raises(ConfigurationError, match=r"need 0 < lam_min < lam_max < inf"):
        sweep(qh, Protocol("uniaxial"), lam_min, lam_max, 4)


@pytest.mark.parametrize("lam1", [np.inf, np.nan, 0.0, -1.0])
def test_closure_refuses_a_stretch_that_is_not_positive_and_finite(qh, lam1):
    with pytest.raises(ConfigurationError, match="driving stretch must be positive and finite"):
        lateral_closure(qh, Protocol("uniaxial"), lam1)


@pytest.mark.parametrize("warm", [0.0, -1.0, np.nan, np.inf])
def test_closure_refuses_a_reference_that_is_not_positive_and_finite(qh, warm):
    with pytest.raises(ConfigurationError, match="reference lateral stretch must be positive"):
        lateral_closure(qh, Protocol("uniaxial"), 1.2, warm=warm)


def test_sweep_matches_pointwise_closed_form(qh):
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 4.0, 40, with_moduli=False)
    closed = tab.lambda1 ** -0.4 * np.log(tab.lambda1)
    np.testing.assert_allclose(tab.stress_driving, closed, rtol=1e-7, atol=1e-10)
    np.testing.assert_allclose(tab.lambda_lateral, tab.lambda1 ** -0.3, atol=1e-8)


def test_exp_hencky_sweeps_monotone_all_protocols(exph):
    for kind in ("uniaxial", "equibiaxial", "planar", "hydrostatic"):
        tab = sweep(exph, Protocol(kind), 0.5, 4.0, 60, with_moduli=False)
        assert np.all(np.diff(tab.stress_driving) > 0), kind


@pytest.mark.parametrize("kind,params,protocol,grid,first_bad", [
    ("neo_hooke_incompressible", {"mu": 1.0}, "uniaxial", (1e100, 1e160), "2.564102564102564e+158"),
    ("neo_hooke_vol_iso", {"mu": 1.0, "kappa": 3.0}, "hydrostatic", (1.0, 1e80),
     "2.564102564102564e+78"),
], ids=["incompressible", "hydrostatic"])
def test_sweep_past_the_double_range_warns_nothing(kind, params, protocol, grid, first_bad):
    # the stresses overflow past the first row: the library sweep leaked
    # numpy's overflow warnings, which only the CLI silenced.  The rows are
    # there, and the table's finite-column rule names the first bad one
    table = sweep(instantiate_model(kind, params), Protocol(protocol), *grid, 40)
    assert len(table.lambda1) == 40 and np.isfinite(table.stress_driving[0])
    message = f"'{protocol}': 39 of 40 states have a non-finite value, the first at lambda1 = "
    with pytest.raises(DomainError, match=re.escape(message + first_bad)):
        table.require_finite(protocol)


def test_incompressible_sweeps_monotone():
    for kind, params in (
        ("neo_hooke_incompressible", {"mu": 1.0}),
        ("quadratic_hencky_incompressible", {"mu": 1.0}),
        ("exp_hencky_incompressible", {"mu": 1.0, "k": 1.0}),
    ):
        m = instantiate_model(kind, params)
        tab = sweep(m, Protocol("uniaxial"), 0.5, 4.0, 60, with_moduli=False)
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
        p = Protocol("uniaxial")

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
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 2.0, 7, with_moduli=False)
    mu, lam = qh.constants.mu, qh.constants.lam
    nu = 0.3
    # on-path energy (mu (1 + 2 nu^2) + lam/2 (1 - 2 nu)^2) log(l1)^2
    coef = mu * (1 + 2 * nu**2) + 0.5 * lam * (1 - 2 * nu) ** 2
    np.testing.assert_allclose(tab.energy, coef * np.log(tab.lambda1) ** 2, rtol=1e-9, atol=1e-12)


# --- moduli ---------------------------------------------------------------------

def test_modulus_at_identity_equals_young(catalog):
    for m in catalog.values():
        p = Protocol("uniaxial")
        mod, mod_log = incremental_moduli(m, p, 1.0)
        assert mod == pytest.approx(m.young, abs=1e-4), m.kind
        assert mod_log == pytest.approx(mod, abs=1e-12)  # lambda1 = 1


def test_quadratic_hencky_modulus_closed_form(qh):
    p = Protocol("uniaxial")
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
        p = Protocol(kind)
        h = 1e-5
        f = lambda l: driving_stress(qh, p, l)[0]
        return (f(lam1 + h) - f(lam1 - h)) / (2 * h)

    for kind, factor in (("uniaxial", 1.0), ("equibiaxial", 0.5),
                         ("planar", 1.0), ("hydrostatic", 1.0 / 3.0)):
        mod, _ = incremental_moduli(qh, Protocol(kind), lam1)
        assert mod == pytest.approx(factor * slope(kind), rel=1e-5), kind


def test_hydrostatic_modulus_is_bulk_at_identity(qh):
    mod, _ = incremental_moduli(qh, Protocol("hydrostatic"), 1.0)
    assert mod == pytest.approx(qh.constants.bulk, abs=1e-4)


def test_modulus_positive_equivalence(qh):
    # E_incr > 0  <=>  E_incr_log > 0 across the sweep
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 14.0, 60)
    assert np.all(np.sign(tab.modulus_incr) == np.sign(tab.modulus_incr_log))


def test_modulus_exact_at_tiny_stretch(qh):
    # the exact slope needs no stencil room below lambda1: the closed form
    # E e^{-(1-2 nu) x} (1 - (1-2 nu) x) / lambda1 holds down to lambda1 = 1e-5
    lam1, nu = 1e-5, 0.3
    x = np.log(lam1)
    closed = qh.young * np.exp(-(1 - 2 * nu) * x) * (1 - (1 - 2 * nu) * x) / lam1
    mod, mod_log = incremental_moduli(qh, Protocol("uniaxial"), lam1)
    assert mod == pytest.approx(closed, rel=1e-9)
    assert mod_log == pytest.approx(lam1 * closed, rel=1e-9)


# --- CSV ------------------------------------------------------------------------

def test_csv_round_trip(qh):
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 2.0, 9)
    text = tab.to_csv()
    back = CurveTable.from_csv(text)
    assert back.to_csv() == text
    np.testing.assert_array_equal(back.lambda1, tab.lambda1)
    np.testing.assert_array_equal(back.modulus_incr, tab.modulus_incr)


def test_csv_header_schema(qh):
    tab = sweep(qh, Protocol("uniaxial"), 0.5, 2.0, 3, with_moduli=False)
    first = tab.to_csv().splitlines()[0]
    assert first == (
        "lambda1,lambda_lateral,stress_driving,stress_biot,energy,"
        "modulus_incr,modulus_incr_log"
    )


def test_csv_rejects_bad_header():
    with pytest.raises(ConfigurationError):
        CurveTable.from_csv("a,b,c\n1,2,3\n")
