import dataclasses
import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corostab import materials as mat
from corostab import protocols as prot
from corostab import stability as stab
from corostab import tensor3 as t3
from corostab.errors import DomainError, SolverError, UsageError
from corostab.materials import StretchState, instantiate_model
from corostab.protocols import (PROTOCOL_KINDS, Protocol, incremental_moduli, lateral_closure,
                                solved_state)
from corostab.stability import (
    be_te_check,
    hill_tangent,
    lh_ellipticity_probe,
    region_scan,
    tsts_tangent,
    two_point_monotonicity,
)

from conftest import CATALOG_PARAMS, random_rotation, random_spd
from oracles import (
    dense_rank_one_search,
    expm_sym,
    inner,
    kirchhoff_extra_from_B,
    lab_frame_two_point,
    logm_spd,
    norm,
    principal_axis_tensor,
    principal_stresses,
    quadratic_hencky_rank_one_form,
    rank_one_form,
    sqrtm_spd,
    strongly_elliptic_above,
    stretch_derivatives,
    vec6,
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
        np.testing.assert_allclose(tan.matrix, tan.matrix.T, atol=1e-9 * max(1, norm(tan.matrix)))


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
    with pytest.raises(DomainError, match="hill_tangent needs det V = 1, got log det V = 0.69"):
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
            H /= norm(H)
            Y = logm_spd(V)
            h = 1e-7

            def stress_at(s):
                return stress_of_B(m, expm_sym(2.0 * (Y + s * H)))

            direct = inner((stress_at(h) - stress_at(-h)) / (2 * h), H)
            if m.incompressible:
                v = np.array([inner(H, E) for E in stab.dev_basis5()])
            else:
                v = vec6(H)
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


# Smallest eigenvalue of the exp_hencky (mu 1, lambda 2, k 1, khat 1) tangent,
# its ordered-force margin and its rank-one minimum from 60-digit mpmath (the
# full sym(G) and the shear quotients, eigenvalues by mpmath.eigsy; the
# Simpson-Spector candidates of the principal-axis moduli, with the stretch
# derivatives of W by mpmath.diff), with a scan grid holding each state.  Up
# to (30, 30, 30) the vol-vol entry of the normal block reaches ~1e45 against
# ~1e15 for the deviatoric entries.
_LARGE_STRETCH_EXACT = {
    (15.25, 15.25, 15.25): (2648248.60786, 0.0, 20192895.6349436, (15.25, 15.25, 1)),
    (10.0, 10.0, 10.0): (16172.8021875, 0.0, 80864.0109375992, (10.0, 10.0, 1)),
    (15.25, 15.25, 30.0): (84952374.611, 847834358.5077, 600854516.88146, (0.5, 30.0, 3)),
    (15.25, 30.0, 30.0): (2725161803.4, 27197424674.62, 20779358750.8979, (0.5, 30.0, 3)),
    (30.0, 30.0, 30.0): (87419649994.5, 0.0, 1311294749917.27, (0.5, 30.0, 3)),
    (0.5, 30.0, 30.0): (80248599.6329, 9692679817.22, 20062149.9082242, (0.5, 30.0, 3)),
    (0.5, 0.5, 30.0): (47595.3154389, 8897587.465416, 2514.14115938491, (0.5, 30.0, 3)),
    (2.0, 1.3, 0.7): (2.16152872905, 0.6518047543821, 0.733633056880242, (0.7, 2.0, 14)),
}


@pytest.mark.parametrize("state", list(_LARGE_STRETCH_EXACT))
def test_margins_exact_at_any_stress_scale(catalog, state):
    # a dense eigensolve of the tangent lost the deviatoric eigenvalues to the
    # volumetric entry (-3.46e11 at 15.25^3), differences of full Cauchy
    # stresses lost the ordered-force products (-0.0 at (15.25, 30, 30)), and
    # the rank-one form with the volumetric term in every entry of its
    # copositivity matrices lost the minimum (-2^39 at 15.25^3)
    m = catalog["exp_hencky"]
    csp, be, lh, grid = _LARGE_STRETCH_EXACT[state]
    assert tsts_tangent(m, diag_V(*state)).min_eigenvalue == pytest.approx(csp, rel=1e-8)
    assert be_te_check(m, StretchState(*state)).be_margin == pytest.approx(be, rel=1e-8)
    assert lh_ellipticity_probe(m, StretchState(*state)).value == pytest.approx(lh, rel=1e-8)
    rep = region_scan(m, grid=grid, pairs=0)
    (n,) = np.flatnonzero(np.all(rep.states == state, axis=-1))
    assert rep.csp_min_eig[n] == pytest.approx(csp, rel=1e-8)
    assert rep.be_margin[n] == pytest.approx(be, rel=1e-8)
    assert rep.lh_min[n] == pytest.approx(lh, rel=1e-8)


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
    val = inner(B1 - B2, logm_spd(B1) - logm_spd(B2))
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
        expected = 0.5 * m.mu * inner(B1 - B2, logm_spd(B1) - logm_spd(B2))
        assert val == pytest.approx(expected, rel=1e-10, abs=1e-12)
        if norm(B1 - B2) > 1e-10:
            assert val > 0.0


def test_two_point_measure_validation(catalog):
    V = diag_V(1.2, 1.0, 1.0 / 1.2)
    with pytest.raises(UsageError):
        two_point_monotonicity(catalog["exp_hencky"], V, V, measure="biot")
    with pytest.raises(UsageError):
        two_point_monotonicity(catalog["neo_hooke_incompressible"], V, V, measure="cauchy")
    with pytest.raises(DomainError, match="two_point_monotonicity needs det V = 1, got log det V"):
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
        gap = norm(Y1 - Y2) ** 2
        assert val >= delta * gap * (1.0 - 1e-6) - 1e-12


def _non_coaxial_pairs(rng, n, unimodular):
    """Pairs V1 = exp(Y), V2 = exp(Y + sep H) with random symmetric Y, unit H
    and separations sep from 1e-8 to 1; trace-free Y and H if unimodular."""
    for sep in np.geomspace(1e-8, 1.0, n):
        Y, H = (t3.sym(rng.standard_normal((3, 3))) for _ in range(2))
        if unimodular:
            Y, H = (A - np.trace(A) / 3.0 * np.eye(3) for A in (Y, H))
        yield expm_sym(0.4 * Y), expm_sym(0.4 * Y + sep * H / norm(H))


def _pair_roundoff(law, V1, V2):
    """eps (|s1| + |s2|)(|Y1| + |Y2|), the roundoff scale of a pair value."""
    (d1, _), (d2, _) = np.linalg.eigh(V1), np.linalg.eigh(V2)
    x1, x2 = np.log(d1), np.log(d2)
    size = np.linalg.norm
    return np.finfo(float).eps * (size(law(x1)) + size(law(x2))) * (size(x1) + size(x2))


def _two_point_law(m, measure):
    if m.incompressible:
        return m.extra_tau
    return m.kirchhoff_principal if measure == "kirchhoff" else m.cauchy_principal


_MEASURES = [(kind, "kirchhoff") for kind in CATALOG_PARAMS] + [
    (kind, "cauchy") for kind in ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso")
]


@pytest.mark.parametrize("kind, measure", _MEASURES)
def test_two_point_principal_frame_matches_lab_frame(catalog, kind, measure):
    # the principal-frame pair value against the stress and log tensors
    # built in the lab frame, on non-coaxial pairs
    m = catalog[kind]
    law = _two_point_law(m, measure)
    rng = np.random.default_rng(46)
    for V1, V2 in _non_coaxial_pairs(rng, 40, m.incompressible):
        val = two_point_monotonicity(m, V1, V2, measure=measure)
        ref = lab_frame_two_point(law, V1, V2)
        assert abs(val - ref) <= 32.0 * _pair_roundoff(law, V1, V2), (kind, measure)


def _mp_exp_hencky_tau(x):
    # Kirchhoff stress of exp_hencky at mu 1, lambda 2, k 1, khat 1
    q, t = sum(xi * xi for xi in x), sum(x)
    return [2 * xi * mpmath.exp(q) + 2 * t * mpmath.exp(t * t) for xi in x]


_MP_LAWS = {
    ("exp_hencky", "cauchy"): lambda x: [t / mpmath.exp(sum(x)) for t in _mp_exp_hencky_tau(x)],
    ("exp_hencky", "kirchhoff"): _mp_exp_hencky_tau,
    ("neo_hooke_incompressible", "kirchhoff"): lambda x: [mpmath.exp(2 * xi) for xi in x],
}


@pytest.mark.parametrize("kind, measure", list(_MP_LAWS))
def test_two_point_exact_to_roundoff(catalog, kind, measure):
    # 50-digit values of <S1 - S2, log V1 - log V2> at the float pairs,
    # eigenvectors by mpmath.eigsy; Cauchy, compressible Kirchhoff and
    # incompressible extra stress
    m = catalog[kind]
    mp_law = _MP_LAWS[(kind, measure)]

    def tensors(V):
        d, Q = mpmath.eigsy(mpmath.matrix(V.tolist()))
        x = [mpmath.log(d[i]) for i in range(3)]
        return Q * mpmath.diag(mp_law(x)) * Q.T, Q * mpmath.diag(x) * Q.T

    rng = np.random.default_rng(47)
    with mpmath.workdps(50):
        for V1, V2 in _non_coaxial_pairs(rng, 5, m.incompressible):
            (S1, Y1), (S2, Y2) = tensors(V1), tensors(V2)
            exact = mpmath.fsum((S1[i, j] - S2[i, j]) * (Y1[i, j] - Y2[i, j])
                                for i in range(3) for j in range(3))
            val = two_point_monotonicity(m, V1, V2, measure=measure)
            bound = 32.0 * _pair_roundoff(_two_point_law(m, measure), V1, V2)
            assert abs(val - float(exact)) <= bound, (kind, measure)


def test_coaxial_pair_values_are_the_scan_sums(catalog):
    # with P = I the pair value is the sum the scan's pair checks have always
    # taken, to the bit
    rng = np.random.default_rng(48)
    m = catalog["exp_hencky"]
    x1, x2 = rng.uniform(-1.0, 1.0, size=(2, 128, 3))
    s1, s2 = m.cauchy_principal(x1), m.cauchy_principal(x2)
    vals = stab._pair_values(s1, x1, s2, x2, np.eye(3))
    np.testing.assert_array_equal(vals, np.sum((s1 - s2) * (x1 - x2), axis=-1))


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
        sig = principal_stresses(m, StretchState(*lams)).cauchy
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
        c, row = solved_state(m, protocol, lam1)
    except (SolverError, DomainError):
        # no traction-free lateral state, or one whose stress, energy or
        # modulus is beyond the double range (some nu < 0 exp_hencky)
        assume(False)
    block = stab.principal_block(m, [lam1, c.lam2, c.lam3])
    if block.csp > stab.HOLD_MARGIN:
        assert row.modulus_incr[0] > 0.0
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
    W1, W2 = stretch_derivatives(m, lams)
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
        W1, W2 = stretch_derivatives(m, lams)
        A = principal_axis_tensor(W1, W2, lams)
        scale = np.max(np.abs(A))
        r = lh_ellipticity_probe(m, lams)
        assert rank_one_form(A, r.xi, r.eta) == pytest.approx(r.value, abs=1e-10 * scale)
        assert strongly_elliptic_above(A, r.value - 1e-9 * scale), lams


def test_rank_one_shear_modulus_exact_at_coincidence(catalog):
    # at this state the rank-one minimum is the 12 shear modulus A_1212, with
    # x_2 - x_1 at the coincidence switch of the block's shear scalar; 60-digit
    # mpmath gives 518.011270632631.  Taken from the stretch derivatives W_i,
    # W_ij with its own coincident limit it was off by 1.2e-6 relative
    lams = np.exp([-1.0, -1.0 + 1e-6, -1.5])
    value = lh_ellipticity_probe(catalog["exp_hencky"], lams).value
    assert value == pytest.approx(518.011270632631, rel=1e-9)


@pytest.mark.parametrize("kind", ["exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"])
def test_probe_is_the_block_minimum(catalog, kind):
    # stretches are evaluated in their order, never re-sorted by an SVD, so
    # the probe's value is the block's lh to the bit
    m = catalog[kind]
    rng = np.random.default_rng(47)
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=3)
        x[rng.integers(3)] = x[rng.integers(3)]  # two coincident stretches, sometimes
        st = StretchState(*np.exp(x))
        lh = stab.principal_block(m, st.as_array()).lh
        assert lh_ellipticity_probe(m, st).value == lh
        assert lh_ellipticity_probe(m, st.as_array()).value == lh


def _state_samples(seed):
    """The 13^3 scan grid, then random states with two or three coincident
    stretches among them, in random order."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=(300, 3))
    x[::2, 1] = x[::2, 0]
    x[::5, 2] = x[::5, 1]
    return np.concatenate([stab._grid_states((0.5, 3.0, 13))[1], rng.permuted(np.exp(x), axis=1)])


@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_state_alone_is_its_batch_row(catalog, kind):
    # ``check`` evaluates its state alone, ``scan`` a grid: every field of
    # the block, the energy and the stress law must be the same bits either
    # way; so must every curve column of ``check``/``moduli`` (one row) and
    # ``sweep`` (all rows)
    m = catalog[kind]
    states = _state_samples(48)
    x = np.log(states)
    batch = stab.principal_block(m, states)
    ghat, energy, (s, G) = m.ghat(x), m.energy(states), m.stress_jac(x)
    for n, lams in enumerate(states):
        alone = stab.principal_block(m, lams)
        for name in ("normal", "shear", "csp", "be", "te", "lh"):
            assert getattr(alone, name).tobytes() == getattr(batch, name)[n].tobytes(), (name, lams)
        s_n, G_n = m.stress_jac(x[n])
        assert m.ghat(x[n]).tobytes() == ghat[n].tobytes(), lams
        assert m.energy(lams).tobytes() == energy[n].tobytes(), lams
        assert (s_n.tobytes(), G_n.tobytes()) == (s[n].tobytes(), G[n].tobytes()), lams
    lam1s = np.linspace(0.4, 2.6, 12)
    for protocol_kind in PROTOCOL_KINDS:
        if m.incompressible and protocol_kind == "hydrostatic":  # kinematically impossible
            continue
        protocol = Protocol(protocol_kind)
        closures = [lateral_closure(m, protocol, lam1) for lam1 in lam1s]
        lams = [[lam1, c.lam2, c.lam3] for lam1, c in zip(lam1s, closures)]
        rows = prot._curve_rows(m, protocol, lams)
        for n, lam1 in enumerate(lam1s):
            row = prot._curve_rows(m, protocol, lams[n:n + 1])
            for f in dataclasses.fields(rows):
                got, want = getattr(row, f.name), getattr(rows, f.name)[n:n + 1]
                assert got.tobytes() == want.tobytes(), (protocol_kind, f.name, lam1)


def _secular_test_blocks(catalog):
    """Random blocks (a vol-vol entry up to 1e20 times the rest, zero
    couplings, coincident dev-dev poles) and the 13^3 scan blocks."""
    rng = np.random.default_rng(49)
    N = rng.standard_normal((5000, 3, 3))
    N = N + np.swapaxes(N, -1, -2)
    N[::5, 2, 2] *= 1e20
    N[::7, 0, 2] = N[::7, 2, 0] = 0.0
    N[::11, 0, 1] = N[::11, 1, 0] = 0.0
    N[::13, 1, 1] = N[::13, 0, 0]
    return [N, stab.principal_block(catalog["exp_hencky"], _state_samples(50)).normal]


def _secular_error(got, N):
    """Errors of the ascending roots ``got`` against 50-digit mpmath.eigsy,
    in units of eps max(|root|, |b|, largest (dev, dev) entry)."""
    with mpmath.workdps(50):
        ref = sorted(mpmath.eigsy(mpmath.matrix(N.tolist()))[0])
    scale = max(np.hypot(N[0, 2], N[1, 2]), np.max(np.abs(N[:2, :2])))
    return [float(abs(mpmath.mpf(g) - e)) / (np.finfo(float).eps * max(abs(float(e)), scale))
            for g, e in zip(got, ref)]


def test_normal_eigenvalues_match_a_50_digit_reference(catalog):
    # every root within 2 eps of the block's scale of the 50-digit value
    # (the worst of these is 1.1 eps), the same iteration for every k, and a
    # lone block the bits of its batch row
    random, scan = _secular_test_blocks(catalog)
    # every 7th random block and those with coincident poles (every 143rd),
    # every 11th scan block
    subsets = (np.union1d(np.arange(0, 5000, 7), np.arange(0, 5000, 143)), range(0, len(scan), 11))
    for N, rows in zip((random, scan), subsets):
        roots = stab._normal_eigenvalues(N, 3)
        for k in (1, 2):
            assert stab._normal_eigenvalues(N, k).tobytes() == roots[..., :k].tobytes()
        for n in rows:
            assert max(_secular_error(roots[n], N[n])) <= 2.0, (n, N[n].tolist())
            for k in (1, 3):
                assert stab._normal_eigenvalues(N[n], k).tobytes() == roots[n, :k].tobytes()


def test_normal_eigenvalues_of_non_finite_blocks():
    # a NaN or infinite entry returns at once under the callers' errstate:
    # NaN roots for a NaN entry, a non-finite smallest root for an infinite
    # one, so the margin witnesses nothing; finite rows keep their bits
    rng = np.random.default_rng(51)
    N = rng.standard_normal((72, 3, 3))
    N = N + np.swapaxes(N, -1, -2)
    for n in range(0, 72, 2):
        i, j = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))[n // 2 % 6]
        N[n, i, j] = N[n, j, i] = (np.nan, np.inf, -np.inf)[n // 24]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 2, 3):
            roots = stab._normal_eigenvalues(N, k)
            assert np.all(np.isnan(roots[:24:2]))
            assert not np.any(np.isfinite(roots[::2, 0]))
            assert not np.any(stab._witnesses(roots[::2, 0]))
            assert np.all(np.isfinite(roots[1::2]))
            for n in range(1, 72, 2):
                assert stab._normal_eigenvalues(N[n], k).tobytes() == roots[n].tobytes()


def test_csp_exact_where_block_entries_pass_1e154():
    # the equibiaxial closure of this model at lambda1 = 2, whose block
    # entries reach 1.8e155: their squares overflow unless the block is
    # scaled first.  50-digit mpmath.eigsy of the block gives
    # -1.8532099600190292e155; unscaled squares gave -2.11e155
    m = mat.ExponentiatedHencky(mat.ElasticConstants(1.0, -0.5), 0.5, 0.5625)
    block = stab.principal_block(m, [2.0, 2.0, 8.5783370318817e-12])
    assert max(_secular_error([block.csp], block.normal)) <= 2.0
    assert block.csp == pytest.approx(-1.8532099600190292e155, rel=1e-15)


def test_probe_rejects_inverted_deformation(catalog):
    with pytest.raises(DomainError):
        lh_ellipticity_probe(catalog["exp_hencky"], np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(DomainError):  # three stretches must be positive
        lh_ellipticity_probe(catalog["exp_hencky"], [1.0, -1.0, -1.0])


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


def test_region_scan_past_the_double_range_warns_nothing(catalog):
    # exp(k |x|^2) overflows at every state: the library scan leaked numpy's
    # overflow warning.  No margin is finite, so none is a violation
    rep = region_scan(catalog["exp_hencky"], grid=(1e-100, 1e100, 3))
    assert len(rep.states) == 27 and rep.violations == []
    assert not np.any(np.isfinite(rep.csp_min_eig)) and not np.any(np.isfinite(rep.lh_min))
    assert not np.any(rep.tsts_m_plus_ok | rep.hill_ok)


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


def test_violation_count_names_the_known_checks(catalog):
    rep = region_scan(catalog["quadratic_hencky"], grid=(0.5, 3.0, 5), seed=0)
    assert rep.violation_count() == sum(rep.violation_count(c) for c in rep.counts)
    with pytest.raises(UsageError, match="'cps'; known checks: csp, be, te, lh, tsts_m_plus, hill"):
        rep.violation_count("cps")


def _scan_by_loops(m, rep, pairs):
    """The report ``region_scan`` gave, with its bookkeeping redone by the
    loops it once ran: one size-2 draw per pair, redrawn when a = b; the
    violations state by state (csp, be, te, lh), then pair by pair
    (tsts_m_plus, hill); each count by a rescan of the list.  The margins
    are the report's own, the pair values those of the scan's formulas."""
    states, x = rep.states, np.log(rep.states)
    n_states = len(states)
    rng = np.random.default_rng(rep.seed)
    n_pairs = min(pairs, n_states * (n_states - 1) // 2)
    pair_idx = np.empty((n_pairs, 2), dtype=int)
    k = 0
    while k < n_pairs:
        a, b = rng.integers(0, n_states, size=2)
        if a != b:
            pair_idx[k] = (a, b)
            k += 1
    first, second = pair_idx.T
    xu = x - np.mean(x, axis=-1, keepdims=True)
    tau_u = stab._principal_law(m, "kirchhoff")(xu)
    hill_vals = stab._pair_values(tau_u[first], xu[first], tau_u[second], xu[second], np.eye(3))
    if m.incompressible:
        tsts_vals = hill_vals
    else:
        sig = stab._principal_law(m, "cauchy")(x)
        tsts_vals = stab._pair_values(sig[first], x[first], sig[second], x[second], np.eye(3))

    tsts_ok = np.ones(n_states, dtype=bool)
    hill_ok = np.ones(n_states, dtype=bool)
    violations = []
    margins = {"csp": rep.csp_min_eig, "be": rep.be_margin, "te": rep.te_margin, "lh": rep.lh_min}
    for n in range(n_states):
        for check, margin in margins.items():
            if margin[n] < stab.WITNESS_MARGIN:
                violations.append(
                    {"check": check, "state": [float(v) for v in states[n]], "margin": float(margin[n])}
                )
    for k in range(n_pairs):
        a, b = pair_idx[k]
        for check, vals, ok in (("tsts_m_plus", tsts_vals, tsts_ok), ("hill", hill_vals, hill_ok)):
            witness = vals[k] < stab.WITNESS_MARGIN
            if witness or not np.isfinite(vals[k]):
                ok[a] = ok[b] = False
            if witness:
                violations.append(
                    {
                        "check": check,
                        "state": [float(v) for v in states[a]],
                        "state2": [float(v) for v in states[b]],
                        "margin": float(vals[k]),
                    }
                )
    checks = ("csp", "be", "te", "lh", "tsts_m_plus", "hill")
    counts = {c: sum(1 for v in violations if v["check"] == c) for c in checks}
    return dataclasses.replace(rep, tsts_m_plus_ok=tsts_ok, hill_ok=hill_ok, pair_indices=pair_idx,
                               violations=violations, counts=counts)


def _assert_scan_is_the_loops(m, grid, seed, pairs=128):
    rep = region_scan(m, grid=grid, seed=seed, pairs=pairs)
    want = _scan_by_loops(m, rep, pairs)
    for name in ("pair_indices", "tsts_m_plus_ok", "hill_ok"):
        got, ref = getattr(rep, name), getattr(want, name)
        assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), name
    assert rep.violations == want.violations
    assert rep.counts == want.counts
    assert rep.to_csv() == want.to_csv()
    assert rep.to_json_summary() == want.to_json_summary()
    return rep


@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_scan_bookkeeping_is_the_loops(catalog, kind):
    # the pair draw, the violation lists, the ok columns and the counts of
    # region_scan against the loops, on grids of 1 to 2197 states
    m = catalog[kind]
    for n, seeds in ((1, [0]), (2, range(5)), (3, range(4)), (5, range(3)), (11, (0, 9)), (13, (0, 4))):
        for seed in seeds:
            _assert_scan_is_the_loops(m, (0.5, 3.0, n), seed)
    _assert_scan_is_the_loops(m, (0.5, 3.0, 2), 3, pairs=10_000)  # every pair of 8 states
    _assert_scan_is_the_loops(m, (0.5, 3.0, 11), 2, pairs=3000)
    _assert_scan_is_the_loops(m, (0.01, 3.0, 5), 0, pairs=3000)  # pairs failing both checks
    # Cauchy stresses (and, but for quadratic_hencky, Kirchhoff ones) overflow
    # at the states with two stretches 1e-300: a non-finite pair value is no
    # witness but clears its column for both states
    with np.errstate(all="ignore"):
        for seed in range(3):
            rep = _assert_scan_is_the_loops(m, (1e-300, 3.0, 5), seed)
            if kind != "quadratic_hencky_incompressible":
                assert np.sum(~rep.tsts_m_plus_ok) > 2 * rep.violation_count("tsts_m_plus")


def test_integer_draws_do_not_depend_on_chunking():
    # region_scan draws its pairs in chunks: Generator.integers takes 32-bit
    # outputs from a buffer kept in the bit generator, so one batched draw
    # gives the values of many small ones.  At n = 2**31 + 1 about half of the
    # bounded draws are rejected and redrawn
    n = 2**31 + 1
    one_by_one, batched = np.random.default_rng(11), np.random.default_rng(11)
    singles = [one_by_one.integers(0, n) for _ in range(2001)]
    assert np.array_equal(singles, batched.integers(0, n, size=2001))
    pairs = [one_by_one.integers(0, n, size=2) for _ in range(1000)]
    assert np.array_equal(pairs, batched.integers(0, n, size=(1000, 2)))
