import numpy as np
import pytest

from corostab import rates
from corostab.errors import DomainError, InvalidInputError, UsageError
from corostab.protocols import Protocol, lateral_closure
from corostab.rates import (
    MotionSample,
    csp_rate_form,
    energy_second_time_derivative,
    first_piola_fd,
    power_identity,
    second_order_work_identity,
)

from oracles import motion_from_stretch_path



def const_path(value):
    return (lambda t: value, lambda t: 0.0, lambda t: 0.0)


def exp_path(rate=1.0):
    import math

    return (
        lambda t: math.exp(rate * t),
        lambda t: rate * math.exp(rate * t),
        lambda t: rate * rate * math.exp(rate * t),
    )


def poly_path(c0, c1, c2=0.0, c3=0.0):
    return (
        lambda t: c0 + c1 * t + c2 * t * t + c3 * t**3,
        lambda t: c1 + 2 * c2 * t + 3 * c3 * t * t,
        lambda t: 2 * c2 + 6 * c3 * t,
    )


def random_diagonal_motion(rng, spread=0.5):
    paths = [
        poly_path(
            1.0 + rng.uniform(-spread, spread),
            rng.uniform(-spread, spread),
            rng.uniform(-spread, spread) / 2,
            rng.uniform(-spread, spread) / 6,
        )
        for _ in range(3)
    ]
    t = rng.uniform(0.1, 0.6)
    return motion_from_stretch_path(paths, t)


def random_general_motion(rng, spread=0.4):
    F = np.eye(3) + spread * rng.standard_normal((3, 3)) / 3.0
    while np.linalg.det(F) < 0.3:
        F = np.eye(3) + spread * rng.standard_normal((3, 3)) / 3.0
    Fd = spread * rng.standard_normal((3, 3))
    Fdd = spread * rng.standard_normal((3, 3))
    return MotionSample(F=F, Fdot=Fd, Fddot=Fdd)


# --- motion construction -----------------------------------------------------------

def test_constant_path_is_reference():
    m = motion_from_stretch_path([const_path(1.0)] * 3, 0.3)
    np.testing.assert_array_equal(m.F, np.eye(3))
    np.testing.assert_array_equal(m.L, np.zeros((3, 3)))
    assert m.is_diagonal


def test_exponential_path_constant_L():
    for t in (0.0, 0.4, 1.1):
        m = motion_from_stretch_path([exp_path(1.0), const_path(1.0), const_path(1.0)], t)
        np.testing.assert_allclose(m.L, np.diag([1.0, 0.0, 0.0]), atol=1e-14)
        np.testing.assert_array_equal(0.5 * (m.L - m.L.T), np.zeros((3, 3)))  # no spin


def test_incompressible_uniaxial_path_unimodular():
    paths = [
        poly_path(1.0, 1.0),
        (lambda t: (1 + t) ** -0.5, lambda t: -0.5 * (1 + t) ** -1.5, lambda t: 0.75 * (1 + t) ** -2.5),
        (lambda t: (1 + t) ** -0.5, lambda t: -0.5 * (1 + t) ** -1.5, lambda t: 0.75 * (1 + t) ** -2.5),
    ]
    for t in (0.0, 0.5, 1.5):
        m = motion_from_stretch_path(paths, t)
        assert m.J == pytest.approx(1.0, rel=1e-14)


def test_motion_validation():
    with pytest.raises(DomainError):
        motion_from_stretch_path([const_path(-1.0), const_path(1.0), const_path(1.0)], 0.0)
    with pytest.raises(DomainError):
        MotionSample(F=-np.eye(3), Fdot=np.zeros((3, 3)), Fddot=np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        MotionSample(F=np.full((3, 3), np.nan), Fdot=np.zeros((3, 3)), Fddot=np.zeros((3, 3)))


def stack_motions(motions, shape):
    return MotionSample(
        *(np.stack([getattr(m, name) for m in motions]).reshape(shape + (3, 3))
          for name in ("F", "Fdot", "Fddot"))
    )


@pytest.mark.parametrize("kind", ["exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"])
def test_identities_broadcast_over_stacked_motions(catalog, kind):
    # one call over a (2, 3) stack of motions gives each motion's single-call value
    model = catalog[kind]
    rng = np.random.default_rng(59)
    general = [random_general_motion(rng) for _ in range(6)]
    diagonal = [random_diagonal_motion(rng) for _ in range(6)]
    identities = [
        lambda m: (first_piola_fd(model, m.F), rates.cauchy_of_F(model, m.F)),
        lambda m: power_identity(model, m),
        lambda m: second_order_work_identity(model, m),
        lambda m: (energy_second_time_derivative(model, m),),
    ]
    cases = [(fn, motions) for fn in identities for motions in (general, diagonal)]
    cases.append((lambda m: csp_rate_form(model, m), diagonal))
    for fn, motions in cases:
        batched = [np.reshape(v, (6,) + np.shape(v)[2:]) for v in fn(stack_motions(motions, (2, 3)))]
        for k, m in enumerate(motions):
            for b, single in zip(batched, fn(m)):
                assert b[k].shape == np.shape(single)
                assert np.all(np.abs(b[k] - single) <= 1e-9 * np.maximum(1.0, np.abs(single)))
    assert stack_motions(diagonal, (6,)).is_diagonal
    assert not stack_motions(diagonal[:5] + general[:1], (6,)).is_diagonal


def test_stacked_motion_validation():
    rng = np.random.default_rng(60)
    motions = [random_general_motion(rng) for _ in range(4)]
    F = np.stack([m.F for m in motions])
    inverted = F.copy()
    inverted[2] = np.diag([-1.0, 1.0, 1.0]) @ F[2]  # one motion with det F < 0
    with pytest.raises(DomainError):
        MotionSample(F=inverted, Fdot=F, Fddot=F)
    with pytest.raises(InvalidInputError):
        MotionSample(F=F, Fdot=F[:3], Fddot=F)
    with pytest.raises(InvalidInputError):
        MotionSample(F=F[..., :2], Fdot=F[..., :2], Fddot=F[..., :2])


# --- principal rate form -----------------------------------------------------------

def test_csp_rate_form_constant_path(catalog):
    m = motion_from_stretch_path([const_path(1.3), const_path(0.9), const_path(1.1)], 0.0)
    lhs, rhs, res = csp_rate_form(catalog["exp_hencky"], m)
    assert lhs == 0.0 and rhs == 0.0 and res == 0.0


def test_csp_rate_form_exp_hencky_closure_path(catalog):
    # uniaxial closure path lambda1(t) = 1 + t; lateral derivatives by finite
    # differences of the closure
    model = catalog["exp_hencky"]
    p = Protocol("uniaxial")

    def lat(l1):
        return lateral_closure(model, p, l1).lam2

    h = 1e-4
    t0 = 0.5

    def lam2(t):
        return lat(1.0 + t)

    paths = [
        poly_path(1.0, 1.0),
        (
            lam2,
            lambda t: (lam2(t + h) - lam2(t - h)) / (2 * h),
            lambda t: (lam2(t + h) - 2 * lam2(t) + lam2(t - h)) / (h * h),
        ),
    ]
    paths.append(paths[1])
    m = motion_from_stretch_path(paths, t0)
    lhs, rhs, res = csp_rate_form(model, m)
    assert lhs > 0.0
    assert res <= 1e-6 * max(1.0, abs(lhs))


def test_csp_rate_form_quadratic_hencky_negative_region(catalog):
    # on the closure branch lambda2 = lambda1^(-nu) the sum form turns
    # negative past the modulus zero crossing
    model = catalog["quadratic_hencky"]
    nu = 0.3
    t0 = 13.0  # path lambda1(t) = t, beyond e^2.5

    lam1 = poly_path(0.0, 1.0)
    lam2 = (
        lambda t: t**-nu,
        lambda t: -nu * t ** (-nu - 1),
        lambda t: nu * (nu + 1) * t ** (-nu - 2),
    )
    m = motion_from_stretch_path([lam1, lam2, lam2], t0)
    lhs, rhs, res = csp_rate_form(model, m)
    assert lhs < 0.0
    assert res <= 1e-6 * max(1.0, abs(lhs))


def test_csp_rate_form_random_paths_agree(catalog):
    rng = np.random.default_rng(53)
    for kind in ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"):
        model = catalog[kind]
        for _ in range(20):
            m = random_diagonal_motion(rng)
            lhs, rhs, res = csp_rate_form(model, m)
            assert res <= 1e-6 * max(1.0, abs(lhs))


def test_csp_rate_form_requires_diagonal(catalog):
    rng = np.random.default_rng(54)
    m = random_general_motion(rng)
    with pytest.raises(UsageError):
        csp_rate_form(catalog["exp_hencky"], m)
    with pytest.raises(UsageError):
        csp_rate_form(
            catalog["neo_hooke_incompressible"],
            motion_from_stretch_path([const_path(1.0)] * 3, 0.0),
        )


# --- work identities ----------------------------------------------------------------

def test_power_identity_random_motions(catalog):
    rng = np.random.default_rng(55)
    for kind in ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"):
        model = catalog[kind]
        for _ in range(20):
            m = random_general_motion(rng)
            lhs, rhs, res = power_identity(model, m)
            assert res <= 1e-8 * max(1.0, abs(lhs))


def cof(X):
    """Cofactor matrix from 2x2 minors, Cof(X) = det(X) X^-T without an
    inverse: the oracle for the first Piola stress S1 = sigma Cof F."""
    C = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            m = X[np.ix_([k for k in range(3) if k != i], [k for k in range(3) if k != j])]
            C[i, j] = (-1) ** (i + j) * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return C


def test_first_piola_matches_analytic(catalog):
    # S1 = sigma Cof F cross-check against the FD construction
    rng = np.random.default_rng(56)
    for _ in range(10):
        m = random_general_motion(rng)
        model = catalog["quadratic_hencky"]
        S1_fd = first_piola_fd(model, m.F)
        S1_an = rates.cauchy_of_F(model, m.F) @ cof(m.F)
        np.testing.assert_allclose(S1_fd, S1_an, atol=1e-8 * max(1.0, np.max(np.abs(S1_an))))


def test_second_order_work_constant_motion(catalog):
    m = MotionSample(F=np.diag([1.2, 0.9, 1.05]), Fdot=np.zeros((3, 3)), Fddot=np.zeros((3, 3)))
    ref, spat, res = second_order_work_identity(catalog["exp_hencky"], m)
    assert ref == pytest.approx(0.0, abs=1e-10)
    assert spat == pytest.approx(0.0, abs=1e-10)


def test_second_order_work_pure_stretch(catalog):
    m = motion_from_stretch_path([exp_path(1.0), const_path(1.0), const_path(1.0)], 0.0)
    model = catalog["quadratic_hencky"]
    ref, spat, res = second_order_work_identity(model, m)
    direct = energy_second_time_derivative(model, m)
    assert ref == pytest.approx(direct, rel=1e-5, abs=1e-8)
    assert spat == pytest.approx(direct, rel=1e-5, abs=1e-8)


def test_second_order_work_three_way_random(catalog):
    rng = np.random.default_rng(57)
    for kind in ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso"):
        model = catalog[kind]
        for _ in range(15):
            m = random_general_motion(rng)
            ref, spat, res = second_order_work_identity(model, m)
            direct = energy_second_time_derivative(model, m)
            scale = max(1.0, abs(direct))
            assert abs(ref - direct) <= 1e-5 * scale
            assert abs(spat - direct) <= 1e-5 * scale
            assert res <= 2e-5 * scale


def test_second_order_work_no_acceleration_term(catalog):
    # with Fddot = 0 the referential route is the pure second derivative along Fdot
    rng = np.random.default_rng(58)
    model = catalog["exp_hencky"]
    m0 = random_general_motion(rng)
    m = MotionSample(F=m0.F, Fdot=m0.Fdot, Fddot=np.zeros((3, 3)))
    ref, _, _ = second_order_work_identity(model, m)
    only_quad = rates._d2_along(model, m.F, m.Fdot)
    assert ref == pytest.approx(only_quad, rel=1e-12)
