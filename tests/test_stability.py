import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corostab import materials as mat
from corostab import stability as stab
from corostab import tensor3 as t3
from corostab.errors import DomainError, SolverError, UsageError
from corostab.materials import StretchState, instantiate_model
from corostab.protocols import PROTOCOL_KINDS, Protocol, incremental_moduli, lateral_closure
from corostab.stability import (
    be_te_check,
    hill_tangent,
    lh_ellipticity_probe,
    region_scan,
    tsts_tangent,
    two_point_monotonicity,
)

from conftest import random_rotation, random_spd
from oracles import (
    dense_rank_one_search,
    expm_sym,
    kirchhoff_extra_from_B,
    principal_axis_tensor,
    quadratic_hencky_rank_one_form,
    rank_one_form,
    sqrtm_spd,
    strongly_elliptic_above,
)


def diag_V(l1, l2, l3):
    return np.diag([float(l1), float(l2), float(l3)])


# --- small-strain limits ---------------------------------------------------------

def test_small_strain_eigenvalues_compressible(compressible_models):
    for m in compressible_models:
        tan = tsts_tangent(m, np.eye(3))
        mu, lam = m.constants.mu, m.constants.lam
        expected = np.sort([3.0 * lam + 2.0 * mu] + [2.0 * mu] * 5)
        np.testing.assert_allclose(tan.eigenvalues, expected, atol=1e-4)
        # matrix symmetric by construction
        np.testing.assert_allclose(tan.matrix, tan.matrix.T, atol=1e-9 * max(1, t3.norm(tan.matrix)))


def test_small_strain_eigenvalues_incompressible(incompressible_models):
    # deviatoric tangent: five shear-like eigenvalues 2*mu (the sixth direction
    # is the volume constraint)
    for m in incompressible_models:
        tan = hill_tangent(m, np.eye(3))
        np.testing.assert_allclose(tan.eigenvalues, [2.0 * m.mu] * 5, atol=1e-4)


def test_exp_hencky_identity_values():
    m = instantiate_model("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0})
    tan = tsts_tangent(m, np.eye(3))
    np.testing.assert_allclose(tan.eigenvalues, [2, 2, 2, 2, 2, 8], atol=1e-4)


def test_tangent_usage_errors(catalog):
    with pytest.raises(UsageError):
        tsts_tangent(catalog["neo_hooke_incompressible"], np.eye(3))
    with pytest.raises(UsageError):
        hill_tangent(catalog["exp_hencky"], np.eye(3))
    with pytest.raises(DomainError):
        tsts_tangent(catalog["exp_hencky"], np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        hill_tangent(catalog["neo_hooke_incompressible"], np.diag([2.0, 1.0, 1.0]))


# --- quadratic-form equivalence ---------------------------------------------------

def test_quadratic_form_equivalence(catalog):
    # <d/ds sigma(exp(log V + s H)), H> at 0 equals vec6(H)^T M vec6(H); the
    # symmetrization only discards the skew part invisible to the form.
    # Incompressible models: the extra stress on unimodular V along trace-free
    # H, in dev_basis5 coordinates.
    rng = np.random.default_rng(40)
    for m in catalog.values():
        for _ in range(10):
            V = random_spd(rng, scale=0.7)
            H = t3.sym(rng.standard_normal((3, 3)))
            if m.incompressible:
                V /= np.linalg.det(V) ** (1.0 / 3.0)
                H -= np.trace(H) / 3.0 * np.eye(3)
                tan = hill_tangent(m, V)
                stress_of_B = kirchhoff_extra_from_B
            else:
                tan = tsts_tangent(m, V)
                stress_of_B = mat.cauchy_from_B
            H /= t3.norm(H)
            Y = t3.logm_spd(V)
            h = 1e-7

            def stress_at(s):
                return stress_of_B(m, expm_sym(2.0 * (Y + s * H)))

            direct = t3.inner((stress_at(h) - stress_at(-h)) / (2 * h), H)
            if m.incompressible:
                v = np.array([t3.inner(H, E) for E in stab.dev_basis5()])
            else:
                v = t3.vec6(H)
            quad = float(v @ tan.matrix @ v)
            assert direct == pytest.approx(quad, rel=1e-5, abs=1e-6), m.kind


# --- positivity / violation landscapes --------------------------------------------

def test_exp_hencky_tangent_positive_on_grid(catalog):
    m = catalog["exp_hencky"]
    for l1 in (0.5, 1.0, 2.0, 3.0):
        for l2 in (0.5, 1.5, 3.0):
            for l3 in (0.7, 2.4):
                tan = tsts_tangent(m, diag_V(l1, l2, l3))
                assert tan.min_eigenvalue > 0.0, (l1, l2, l3)


def test_neo_hooke_vol_iso_violation_exists(catalog):
    m = catalog["neo_hooke_vol_iso"]
    tan = tsts_tangent(m, diag_V(3.0, 0.5, 0.5))
    assert tan.min_eigenvalue < -1e-2


def test_quadratic_hencky_violation_exists(catalog):
    tan = tsts_tangent(catalog["quadratic_hencky"], diag_V(3.0, 3.0, 3.0))
    assert tan.min_eigenvalue < -1e-2


# Smallest eigenvalue of the exp_hencky (mu 1, lambda 2, k 1, khat 1) tangent
# and its ordered-force margin from 60-digit mpmath (the full sym(G) and the
# shear quotients, eigenvalues by mpmath.eigsy), with a scan grid holding each
# state.  Up to (30, 30, 30) the vol-vol entry of the normal block reaches
# ~1e45 against ~1e15 for the deviatoric entries.
_LARGE_STRETCH_EXACT = {
    (15.25, 15.25, 15.25): (2648248.60786, 0.0, (15.25, 15.25, 1)),
    (10.0, 10.0, 10.0): (16172.8021875, 0.0, (10.0, 10.0, 1)),
    (15.25, 15.25, 30.0): (84952374.611, 847834358.5077, (0.5, 30.0, 3)),
    (15.25, 30.0, 30.0): (2725161803.4, 27197424674.62, (0.5, 30.0, 3)),
    (30.0, 30.0, 30.0): (87419649994.5, 0.0, (0.5, 30.0, 3)),
    (0.5, 30.0, 30.0): (80248599.6329, 9692679817.22, (0.5, 30.0, 3)),
    (0.5, 0.5, 30.0): (47595.3154389, 8897587.465416, (0.5, 30.0, 3)),
    (2.0, 1.3, 0.7): (2.16152872905, 0.6518047543821, (0.7, 2.0, 14)),
}


@pytest.mark.parametrize("state", list(_LARGE_STRETCH_EXACT))
def test_margins_exact_at_any_stress_scale(catalog, state):
    # a dense eigensolve of the tangent lost the deviatoric eigenvalues to the
    # volumetric entry (-3.46e11 at 15.25^3), and differences of full Cauchy
    # stresses lost the ordered-force products (-0.0 at (15.25, 30, 30))
    m = catalog["exp_hencky"]
    csp, be, grid = _LARGE_STRETCH_EXACT[state]
    assert tsts_tangent(m, diag_V(*state)).min_eigenvalue == pytest.approx(csp, rel=1e-8)
    assert be_te_check(m, StretchState(*state)).be_margin == pytest.approx(be, rel=1e-8)
    rep = region_scan(m, grid=grid, pairs=0)
    (n,) = np.flatnonzero(np.all(rep.states == state, axis=-1))
    assert rep.csp_min_eig[n] == pytest.approx(csp, rel=1e-8)
    assert rep.be_margin[n] == pytest.approx(be, rel=1e-8)


def test_tangent_off_diagonal_state(catalog):
    # a rotated state must give the rotated-invariant spectrum
    m = catalog["exp_hencky"]
    rng = np.random.default_rng(41)
    V = diag_V(1.8, 0.9, 1.2)
    Q = random_rotation(rng)
    a = tsts_tangent(m, V).eigenvalues
    b = tsts_tangent(m, Q @ V @ Q.T).eigenvalues
    np.testing.assert_allclose(a, b, atol=1e-6)


# --- two-point monotonicity --------------------------------------------------------

def test_two_point_zero_for_equal_states(catalog):
    V = diag_V(1.3, 0.8, 1.1)
    assert two_point_monotonicity(catalog["exp_hencky"], V, V) == 0.0


def test_two_point_worked_pair(catalog):
    # <B1 - B2, log B1 - log B2> = 3 ln 4 for B1 = diag(4,1,1), B2 = I;
    # realized through the incompressible Neo-Hooke Kirchhoff identity
    B1, B2 = np.diag([4.0, 1.0, 1.0]), np.eye(3)
    val = t3.inner(B1 - B2, t3.logm_spd(B1) - t3.logm_spd(B2))
    assert val == pytest.approx(3.0 * np.log(4.0), abs=1e-12)


def test_neo_hooke_incompressible_hill_identity():
    # tau = -p I + mu B gives <tau1 - tau2, logV1 - logV2> = mu/2 <B1-B2, logB1-logB2>
    m = instantiate_model("neo_hooke_incompressible", {"mu": 1.0})
    rng = np.random.default_rng(42)
    for _ in range(50):
        B1 = random_spd(rng, scale=1.0)
        B2 = random_spd(rng, scale=1.0)
        B1 /= np.linalg.det(B1) ** (1.0 / 3.0)
        B2 /= np.linalg.det(B2) ** (1.0 / 3.0)
        V1, V2 = sqrtm_spd(B1), sqrtm_spd(B2)
        val = two_point_monotonicity(m, V1, V2, measure="kirchhoff")
        expected = 0.5 * m.mu * t3.inner(B1 - B2, t3.logm_spd(B1) - t3.logm_spd(B2))
        assert val == pytest.approx(expected, rel=1e-10, abs=1e-12)
        if t3.norm(B1 - B2) > 1e-10:
            assert val > 0.0


def test_two_point_measure_validation(catalog):
    V = diag_V(1.2, 1.0, 1.0 / 1.2)
    with pytest.raises(UsageError):
        two_point_monotonicity(catalog["exp_hencky"], V, V, measure="biot")
    with pytest.raises(UsageError):
        two_point_monotonicity(catalog["neo_hooke_incompressible"], V, V, measure="cauchy")
    with pytest.raises(DomainError):
        two_point_monotonicity(
            catalog["neo_hooke_incompressible"], diag_V(2.0, 1.0, 1.0), np.eye(3),
            measure="kirchhoff",
        )


def test_pointwise_implies_two_point_sampled(catalog):
    # when the tangent min eigenvalue exceeds delta along the segment between
    # log V1 and log V2, the two-point value is >= delta |logV1 - logV2|^2
    m = catalog["exp_hencky"]
    rng = np.random.default_rng(43)
    for _ in range(10):
        Y1 = t3.sym(rng.standard_normal((3, 3))) * 0.5
        Y2 = t3.sym(rng.standard_normal((3, 3))) * 0.5
        delta = np.inf
        for t in np.linspace(0.025, 0.975, 20):
            Yt = (1 - t) * Y1 + t * Y2
            delta = min(delta, tsts_tangent(m, expm_sym(Yt)).min_eigenvalue)
        assert delta > 0.0
        val = two_point_monotonicity(m, expm_sym(Y1), expm_sym(Y2))
        gap = t3.norm(Y1 - Y2) ** 2
        assert val >= delta * gap * (1.0 - 1e-6) - 1e-12


# --- ordered-force / tension-extension ----------------------------------------------

def test_be_te_identity_state(catalog):
    r = be_te_check(catalog["exp_hencky"], StretchState(1.0, 1.0, 1.0))
    assert r.be_ok and r.te_ok
    assert r.be_margin == 0.0  # vacuous: no distinct stretch pairs
    assert r.te_margin > 0.0


def test_be_te_exp_hencky_grid(catalog):
    m = catalog["exp_hencky"]
    rng = np.random.default_rng(44)
    for _ in range(40):
        lams = np.exp(rng.uniform(np.log(0.5), np.log(3.0), size=3))
        r = be_te_check(m, StretchState(*lams))
        assert r.be_ok and r.te_ok, lams


def test_be_shear_block_consequence(catalog):
    # wherever the tangent is positive and the stretches are distinct, the
    # principal-stress differences are ordered like the log stretches
    m = catalog["exp_hencky"]
    rng = np.random.default_rng(45)
    for _ in range(25):
        lams = np.exp(rng.uniform(-0.6, 1.0, size=3))
        if len(set(np.round(lams, 12))) < 3:
            continue
        assert tsts_tangent(m, diag_V(*lams)).min_eigenvalue > 0
        sig = mat.principal_stresses(m, StretchState(*lams)).cauchy
        x = np.log(lams)
        for i in range(3):
            for j in range(i + 1, 3):
                assert (sig[i] - sig[j]) / (x[i] - x[j]) > 0.0


def test_te_failure_matches_negative_modulus(catalog):
    # beyond the modulus zero-crossing the uniaxial state carries a negative
    # tension-extension margin in the driving direction
    m = catalog["quadratic_hencky"]
    p = Protocol("uniaxial")
    lam1 = 13.0  # e^2.5 ~ 12.18
    mod, _ = incremental_moduli(m, p, lam1)
    assert mod < 0.0
    c = lateral_closure(m, p, lam1)
    r = be_te_check(m, StretchState(lam1, c.lam2, c.lam3))
    assert not r.te_ok
    assert r.te_margin < 0.0


def _compressible_model(draw):
    kind = draw(st.sampled_from(("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso")))
    positive = st.floats(0.2, 3.0)
    if kind == "neo_hooke_vol_iso":
        params = {"mu": draw(positive), "kappa": draw(st.floats(0.2, 10.0))}
    else:
        params = {"E": draw(positive), "nu": draw(st.floats(-0.5, 0.45))}
        if kind == "exp_hencky":
            params.update(k=draw(st.floats(0.1, 1.5)), khat=draw(st.floats(0.1, 1.5)))
    return instantiate_model(kind, params)


@st.composite
def _closure_cases(draw):
    """A compressible model with random parameters, a protocol and lambda1."""
    return (_compressible_model(draw), draw(st.sampled_from(PROTOCOL_KINDS)),
            draw(st.floats(0.2, 5.0)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_closure_cases())
def test_csp_implies_moduli_be_and_te(case):
    # the paper's central result: where the tangent is positive definite at a
    # solved protocol state, the incremental modulus is positive and the
    # ordered-force and tension-extension inequalities hold
    m, kind, lam1 = case
    protocol = Protocol(kind)
    try:
        c = lateral_closure(m, protocol, lam1)
    except SolverError:  # no traction-free lateral state (some nu < 0 exp_hencky)
        assume(False)
    block = stab.principal_block(m, [lam1, c.lam2, c.lam3])
    if block.csp > stab.HOLD_MARGIN:
        assert incremental_moduli(m, protocol, lam1, closure=c)[0] > 0.0
        assert block.be > stab.HOLD_MARGIN
        assert block.te > stab.HOLD_MARGIN


def test_be_te_rejects_incompressible(catalog):
    with pytest.raises(UsageError):
        be_te_check(catalog["neo_hooke_incompressible"], StretchState(1.0, 1.0, 1.0))


# --- rank-one probe -------------------------------------------------------------------

def test_probe_positive_at_identity(compressible_models):
    for m in compressible_models:
        r = lh_ellipticity_probe(m, StretchState(1.0, 1.0, 1.0))
        assert r.value > 0.0, m.kind


def test_probe_finds_quadratic_hencky_witness(catalog):
    # along the uniaxial closure family the rank-one minimum turns negative
    # past the crossing lambda1* ~ 3.469 (see test_ac6_lh_ellipticity_witness);
    # the probe must find a witness there
    m = catalog["quadratic_hencky"]
    st = StretchState(4.0, 4.0**-0.3, 4.0**-0.3)
    r = lh_ellipticity_probe(m, st)
    assert r.value < 0.0
    assert abs(np.linalg.norm(r.xi) - 1.0) < 1e-9
    assert abs(np.linalg.norm(r.eta) - 1.0) < 1e-9
    # witness replays as a violation through the principal-axis tensor
    A = quadratic_hencky_rank_one_form(1.0, 0.3, st.as_array())
    replay = rank_one_form(A, r.xi, r.eta)
    assert replay < 0.0
    assert replay == pytest.approx(r.value, rel=1e-6, abs=1e-10)


@st.composite
def _rank_one_cases(draw):
    """A compressible model with random parameters, stretches that are
    distinct, two coincident or all three coincident (in random order), and
    two random rotations."""
    m = _compressible_model(draw)
    x0 = draw(st.floats(-1.5, 1.5))
    gaps = st.floats(0.05, 1.5)
    pattern = draw(st.sampled_from(("distinct", "two", "three")))
    if pattern == "distinct":
        x = [x0, x0 + draw(gaps), x0 - draw(gaps)]
    elif pattern == "two":
        x = [x0, x0, x0 + draw(st.sampled_from((-1.0, 1.0))) * draw(gaps)]
    else:
        x = [x0, x0, x0]
    lams = np.exp(np.array(draw(st.permutations(x))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return m, lams, random_rotation(rng), random_rotation(rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_rank_one_cases())
def test_rank_one_minimum_is_exact(case):
    # the value is attained by its witness, is no larger than a dense search
    # of the eta octant, and passes the Hadeler copositivity certificate
    # (no direction lies below it); rotating F = R1 diag(lams) R2 leaves it
    # unchanged and rotates the witness
    m, lams, R1, R2 = case
    _, W1, W2 = mat.energy_and_derivatives(m, lams)
    A = principal_axis_tensor(W1, W2, lams)
    scale = np.max(np.abs(A))
    diag = lh_ellipticity_probe(m, lams)
    rot = lh_ellipticity_probe(m, R1 @ np.diag(lams) @ R2)
    assert rot.value == pytest.approx(diag.value, abs=1e-9 * scale)
    for r, xi, eta in ((diag, diag.xi, diag.eta), (rot, R1.T @ rot.xi, R2 @ rot.eta)):
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-12)
        assert rank_one_form(A, xi, eta) == pytest.approx(r.value, abs=1e-8 * scale)
    assert diag.value <= dense_rank_one_search(A) + 1e-10 * scale
    assert strongly_elliptic_above(A, diag.value - 1e-9 * scale)


@pytest.mark.parametrize("kind", ["exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"])
def test_rank_one_minimum_certified_on_grid(catalog, kind):
    # the catalog parameters reach minimizers of every kind (axis pairs,
    # vertices, edges and interior points of the simplex) on this grid
    m = catalog[kind]
    axis = np.exp(np.linspace(-2.0, 2.0, 7))
    states = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    for lams in states:
        _, W1, W2 = mat.energy_and_derivatives(m, lams)
        A = principal_axis_tensor(W1, W2, lams)
        scale = np.max(np.abs(A))
        r = lh_ellipticity_probe(m, lams)
        assert rank_one_form(A, r.xi, r.eta) == pytest.approx(r.value, abs=1e-10 * scale)
        assert strongly_elliptic_above(A, r.value - 1e-9 * scale), lams


def test_probe_rejects_inverted_deformation(catalog):
    with pytest.raises(DomainError):
        lh_ellipticity_probe(catalog["exp_hencky"], np.diag([1.0, 1.0, -1.0]))


def test_rank_one_stencil_hand_value():
    # for a quadratic energy mu/2 |F|^2 the rank-one second derivative is
    # exactly mu |xi x eta|^2 = mu for unit vectors; validates the 5-point
    # stencil coefficients against a hand evaluation
    mu = 0.7
    rng = np.random.default_rng(46)
    F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(3)
    eta /= np.linalg.norm(eta)
    X = np.outer(xi, eta)
    h = 1e-3

    def W(s):
        G = F + s * X
        return 0.5 * mu * np.sum(G * G)

    val = (-W(-2 * h) + 16 * W(-h) - 30 * W(0.0) + 16 * W(h) - W(2 * h)) / (12 * h * h)
    assert val == pytest.approx(mu, rel=1e-9)


def test_probe_rejects_incompressible(catalog):
    with pytest.raises(UsageError):
        lh_ellipticity_probe(catalog["neo_hooke_incompressible"], StretchState(1, 1, 1))


def test_probe_accepts_matrix_input(catalog):
    r = lh_ellipticity_probe(catalog["exp_hencky"], np.eye(3))
    assert r.value > 0.0


# --- region scanner ---------------------------------------------------------------------

def test_region_scan_exp_hencky_clean(catalog):
    rep = region_scan(catalog["exp_hencky"], grid=(0.5, 3.0, 5), seed=0)
    assert rep.violation_count("csp") == 0
    assert rep.violation_count("be") == 0
    assert rep.violation_count("te") == 0
    assert rep.violation_count("tsts_m_plus") == 0
    assert rep.violation_count("hill") == 0
    assert np.all(rep.csp_min_eig > 0)


def test_region_scan_quadratic_hencky_verdicts(catalog):
    rep = region_scan(catalog["quadratic_hencky"], grid=(0.5, 3.0, 5), seed=0)
    assert rep.violation_count("csp") >= 1
    assert rep.violation_count("hill") == 0


def test_region_scan_neo_hooke_verdicts(catalog):
    rep = region_scan(catalog["neo_hooke_vol_iso"], grid=(0.5, 3.0, 5), seed=0)
    assert rep.violation_count("csp") >= 1
    assert rep.violation_count("hill") == 0


def test_region_scan_witness_replays(catalog):
    m = catalog["neo_hooke_vol_iso"]
    rep = region_scan(m, grid=(0.5, 3.0, 5), seed=0)
    w = next(v for v in rep.violations if v["check"] == "csp")
    tan = tsts_tangent(m, diag_V(*w["state"]))
    assert tan.min_eigenvalue < stab.WITNESS_MARGIN
    assert tan.min_eigenvalue == pytest.approx(w["margin"], rel=1e-6, abs=1e-9)


def test_region_scan_pair_witness_replays(catalog):
    m = catalog["quadratic_hencky"]
    rep = region_scan(m, grid=(0.5, 2.0, 3), seed=0)
    pair_witnesses = [v for v in rep.violations if v["check"] == "tsts_m_plus"]
    assert pair_witnesses  # the grid corners violate two-point monotonicity
    w = pair_witnesses[0]
    val = two_point_monotonicity(m, diag_V(*w["state"]), diag_V(*w["state2"]), measure="cauchy")
    assert val < stab.WITNESS_MARGIN
    assert val == pytest.approx(w["margin"], rel=1e-9)


def test_region_scan_single_point_identity(catalog):
    rep = region_scan(catalog["exp_hencky"], grid=(1.0, 1.0, 1), seed=0)
    assert rep.violation_count() == 0
    assert len(rep.states) == 1
    assert len(rep.pair_indices) == 0


def test_region_scan_deterministic(catalog):
    a = region_scan(catalog["quadratic_hencky"], grid=(0.5, 3.0, 4), seed=7)
    b = region_scan(catalog["quadratic_hencky"], grid=(0.5, 3.0, 4), seed=7)
    assert a.to_csv() == b.to_csv()
    assert a.to_json_summary() == b.to_json_summary()


def test_region_scan_incompressible(catalog):
    # Hill tangent margins on det-normalized states; all three incompressible
    # models are monotone there
    for kind in ("neo_hooke_incompressible", "quadratic_hencky_incompressible",
                 "exp_hencky_incompressible"):
        rep = region_scan(catalog[kind], grid=(0.5, 2.0, 4), seed=0)
        assert rep.violation_count("hill") == 0
        assert np.all(np.isnan(rep.te_margin))


def test_region_scan_csv_and_json_schema(catalog):
    rep = region_scan(catalog["exp_hencky"], grid=(0.5, 2.0, 3), seed=0)
    lines = rep.to_csv().splitlines()
    assert lines[0] == (
        "i1,i2,i3,lambda1,lambda2,lambda3,csp_min_eig,be_margin,te_margin,"
        "lh_min_probe,tsts_m_plus_ok,hill_ok"
    )
    assert len(lines) == 1 + 27
    payload = json.loads(rep.to_json_summary())
    assert payload["model"] == "exp_hencky"
    assert payload["grid"] == [0.5, 2.0, 3]
    assert set(payload["counts"]["violations"]) == {"csp", "be", "te", "lh", "tsts_m_plus", "hill"}
    for v in payload["violations"]:
        assert v["check"] in ("csp", "be", "te", "lh", "tsts_m_plus", "hill")
        assert len(v["state"]) == 3
