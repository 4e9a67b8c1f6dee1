import itertools

import numpy as np
import pytest

from corostab import materials as mat
from corostab import rates
from corostab.errors import ConfigurationError, DomainError, UsageError
from corostab.materials import StretchState, instantiate_model
from corostab.stability import (
    be_te_check,
    hill_tangent,
    lh_ellipticity_probe,
    tsts_tangent,
    two_point_monotonicity,
)

from conftest import CATALOG_PARAMS, random_rotation
from oracles import kirchhoff_extra_from_B, norm, principal_stresses, stretch_derivatives


def fd_gradient(f, x0, h=1e-6):
    """Central-difference gradient of scalar f on R^3."""
    g = np.zeros(3)
    for i in range(3):
        hp = max(h, h * abs(x0[i]))
        xp, xm = x0.copy(), x0.copy()
        xp[i] += hp
        xm[i] -= hp
        g[i] = (f(xp) - f(xm)) / (2.0 * hp)
    return g


# --- elastic constants -------------------------------------------------------

def test_constants_round_trip():
    c = mat.ElasticConstants(mu=0.71, lam=1.3)
    back = mat.ElasticConstants.from_young_poisson(c.young, c.poisson)
    assert back.mu == pytest.approx(c.mu, abs=1e-14)
    assert back.lam == pytest.approx(c.lam, abs=1e-14)


def test_constants_examples():
    # mu = k = khat = 1, lam = 2 gives nu = 1/3 and E = 8/3
    c = mat.ElasticConstants(1.0, 2.0)
    assert c.poisson == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert c.young == pytest.approx(8.0 / 3.0, abs=1e-14)
    c2 = mat.ElasticConstants.from_young_poisson(1.0, 0.3)
    assert c2.mu == pytest.approx(1.0 / 2.6, abs=1e-15)
    assert c2.lam == pytest.approx(0.3 / (1.3 * 0.4), abs=1e-15)


def test_constants_constraints():
    with pytest.raises(ConfigurationError):
        mat.ElasticConstants(-1.0, 2.0)
    with pytest.raises(ConfigurationError):
        mat.ElasticConstants(0.1, -1.0)  # 2 mu + 3 lam < 0
    with pytest.raises(ConfigurationError):
        mat.ElasticConstants.from_young_poisson(1.0, 0.5)


# --- instantiation -----------------------------------------------------------

def test_instantiate_catalog():
    for kind, params in CATALOG_PARAMS.items():
        m = instantiate_model(kind, params)
        assert m.kind == kind


def test_instantiate_rejects_mixed_parameterization():
    # a mix is named as such, not as a stray parameter of the first set
    with pytest.raises(ConfigurationError, match="give exactly one of"):
        instantiate_model("quadratic_hencky", {"mu": 1, "lambda_lame": 1, "E": 1, "nu": 0.3})
    with pytest.raises(ConfigurationError, match="give exactly one of"):
        instantiate_model("neo_hooke_incompressible", {"mu": 1, "E": 3})


def test_instantiate_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        instantiate_model("quadratic_hencky", {"mu": -1, "lambda_lame": 1})
    with pytest.raises(ConfigurationError):
        instantiate_model("exp_hencky", {"mu": 1, "lambda_lame": 1, "k": 0, "khat": 1})
    with pytest.raises(ConfigurationError):
        instantiate_model("no_such_model", {"mu": 1})
    with pytest.raises(ConfigurationError):
        instantiate_model("quadratic_hencky", {"mu": 1, "lambda_lame": 1, "zeta": 3})
    with pytest.raises(ConfigurationError):
        instantiate_model("exp_hencky", {"mu": 1, "lambda_lame": 1, "k": 1})


# The catalog table of the README: per kind, the parameterizations of which a
# map gives exactly one, and the parameters every one of them also needs.  A
# map is accepted exactly when it holds one parameterization, the extras and
# nothing else.
README_CATALOG = {
    "exp_hencky": ([{"mu", "lambda_lame"}, {"E", "nu"}], {"k", "khat"}),
    "quadratic_hencky": ([{"mu", "lambda_lame"}, {"E", "nu"}], set()),
    "neo_hooke_vol_iso": ([{"mu", "kappa"}, {"E", "nu"}, {"mu", "lambda_lame"}], set()),
    "neo_hooke_incompressible": ([{"mu"}, {"E"}], set()),
    "quadratic_hencky_incompressible": ([{"mu"}, {"E"}], set()),
    "exp_hencky_incompressible": ([{"mu"}, {"E"}], {"k"}),
}
CATALOG_CLASSES = {
    "exp_hencky": mat.ExponentiatedHencky,
    "quadratic_hencky": mat.QuadraticHencky,
    "neo_hooke_vol_iso": mat.NeoHookeVolIso,
    "neo_hooke_incompressible": mat.NeoHookeIncompressible,
    "quadratic_hencky_incompressible": mat.QuadraticHenckyIncompressible,
    "exp_hencky_incompressible": mat.ExponentiatedHenckyIncompressible,
}
# one valid value per name; zeta is no parameter of any kind
MAP_VALUES = {"mu": 1.0, "lambda_lame": 2.0, "E": 2.5, "nu": 0.3, "k": 1.0, "khat": 1.5,
              "kappa": 3.0, "zeta": 4.0}


def follows_readme_rule(kind, keys):
    if kind not in README_CATALOG:
        return False
    sets, extras = README_CATALOG[kind]
    given = [names for names in sets if names <= keys]
    return len(given) == 1 and keys == given[0] | extras


def implied_parameters(kind, p):
    """``parameters()`` of the model an accepted map ``p`` gives: (E, nu) ->
    (mu, lambda) by the small-strain relations, E -> mu = E / 3 on J = 1, and
    kappa = lambda + 2 mu / 3 for the Neo-Hooke split."""
    if {"E", "nu"} <= p.keys():
        E, nu = p["E"], p["nu"]
        mu, lam = E / (2.0 * (1.0 + nu)), E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    else:
        mu, lam = (p["mu"] if "mu" in p else p["E"] / 3.0), p.get("lambda_lame")
    if kind == "neo_hooke_vol_iso":
        base = {"mu": mu, "kappa": p["kappa"] if "kappa" in p else lam + 2.0 * mu / 3.0}
    elif kind.endswith("_incompressible"):
        base = {"mu": mu}
    else:
        base = {"mu": mu, "lambda_lame": lam}
    return {**base, **{name: p[name] for name in README_CATALOG[kind][1]}}


def test_every_parameter_map_follows_the_catalog_rule():
    # each kind and an unknown one, times every subset of the parameter names
    # and zeta: 7 * 2^8 = 1,792 maps, of which the README's rule accepts 13
    assert mat.PARAMETER_NAMES == tuple(MAP_VALUES)[:-1]
    accepted = 0
    for kind in [*README_CATALOG, "no_such_kind"]:
        for r in range(len(MAP_VALUES) + 1):
            for keys in itertools.combinations(MAP_VALUES, r):
                p = {name: MAP_VALUES[name] for name in keys}
                if not follows_readme_rule(kind, set(keys)):
                    with pytest.raises(ConfigurationError):
                        instantiate_model(kind, p)
                    continue
                accepted += 1
                m = instantiate_model(kind, p)
                assert type(m) is CATALOG_CLASSES[kind]
                want = implied_parameters(kind, p)
                assert m.parameters().keys() == want.keys()
                assert m.parameters() == pytest.approx(want, rel=1e-15, abs=0.0)
    assert accepted == 13


# per kind, the scalar fields of its class (every one a modulus or an
# exponent) with valid values; the ElasticConstants field checks itself
SCALAR_FIELDS = {
    "exp_hencky": {"k": 1.0, "khat": 1.5},
    "quadratic_hencky": {},
    "neo_hooke_vol_iso": {"mu": 1.0, "kappa": 3.0},
    "neo_hooke_incompressible": {"mu": 1.0},
    "quadratic_hencky_incompressible": {"mu": 1.0},
    "exp_hencky_incompressible": {"mu": 1.0, "k": 1.0},
}
BAD_VALUES = (0.0, -1.0, np.nan, np.inf, -np.inf)


def _direct(kind, fields):
    cls = CATALOG_CLASSES[kind]
    if kind in ("exp_hencky", "quadratic_hencky"):
        return cls(mat.ElasticConstants(1.0, 2.0), **fields)
    return cls(**fields)


@pytest.mark.parametrize("kind", list(SCALAR_FIELDS))
def test_every_scalar_parameter_is_finite_and_positive(kind):
    # direct construction and instantiate_model reject each scalar field at
    # each bad value, naming the field; nan and inf had passed for k, khat,
    # kappa and the incompressible mu
    for name, value in itertools.product(SCALAR_FIELDS[kind], BAD_VALUES):
        fields = {**SCALAR_FIELDS[kind], name: value}
        with pytest.raises(ConfigurationError, match=rf"0 < {name} < inf \({name} = "):
            _direct(kind, fields)
        extra = {"mu": 1.0, "lambda_lame": 2.0} if kind == "exp_hencky" else {}
        with pytest.raises(ConfigurationError, match=rf"0 < {name} < inf \({name} = "):
            instantiate_model(kind, {**extra, **fields})
    # every parameter of every parameterization: no NaN or infinity passes
    sets, extras = README_CATALOG[kind]
    for given, value in itertools.product(sets, (np.nan, np.inf, -np.inf)):
        p = {n: MAP_VALUES[n] for n in (*given, *extras)}
        for name in p:
            with pytest.raises(ConfigurationError):
                instantiate_model(kind, {**p, name: value})


def test_parameters_and_young_of_each_kind():
    # literals: (E, nu) = (1, 0.3) gives mu = 1/2.6, lambda = 0.3/0.52; the
    # Neo-Hooke split has lambda = kappa - 2 mu / 3 and E = 9 kappa mu /
    # (3 kappa + mu); every incompressible kind has E = 3 mu
    want = {
        "exp_hencky": ({"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0},
                       2.6666666666666665),
        "quadratic_hencky": ({"mu": 0.3846153846153846, "lambda_lame": 0.5769230769230769}, 1.0),
        "neo_hooke_vol_iso": ({"mu": 1.0, "kappa": 1.0}, 2.25),
        "neo_hooke_incompressible": ({"mu": 1.0}, 3.0),
        "quadratic_hencky_incompressible": ({"mu": 1.0}, 3.0),
        "exp_hencky_incompressible": ({"mu": 1.0, "k": 1.0}, 3.0),
    }
    for kind, params in CATALOG_PARAMS.items():
        m = instantiate_model(kind, params)
        assert m.parameters() == want[kind][0], kind
        assert list(m.parameters()) == list(want[kind][0]), kind
        assert m.young == pytest.approx(want[kind][1], rel=1e-15, abs=0.0), kind


def test_neo_hooke_parameterizations_agree():
    a = instantiate_model("neo_hooke_vol_iso", {"mu": 1.0, "kappa": 2.0})
    b = instantiate_model("neo_hooke_vol_iso", {"mu": 1.0, "lambda_lame": 2.0 - 2.0 / 3.0})
    assert a.kappa == pytest.approx(b.kappa, abs=1e-14)


# --- reference state ---------------------------------------------------------

def test_reference_normalization(catalog):
    for m in catalog.values():
        assert m.energy([1.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
        grad, _ = stretch_derivatives(m, np.ones(3))
        if m.incompressible:
            # the unconstrained gradient at the reference is a pure pressure,
            # absorbed by the volume constraint
            np.testing.assert_allclose(grad - grad[0], np.zeros(3), atol=1e-15)
        else:
            np.testing.assert_allclose(grad, np.zeros(3), atol=1e-15)


def test_zero_stress_at_identity(catalog):
    st = StretchState(1.0, 1.0, 1.0)
    for m in catalog.values():
        # equilibrium pressure at the reference makes a free face traction-free
        p = float(m.extra_tau(np.zeros(3))[0]) if m.incompressible else None
        ss = principal_stresses(m, st, pressure=p)
        np.testing.assert_allclose(ss.cauchy, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(ss.biot, np.zeros(3), atol=1e-15)


# --- energies against worked values ------------------------------------------

def test_quadratic_hencky_energy_value():
    m = instantiate_model("quadratic_hencky", {"mu": 1.0, "lambda_lame": 2.0})
    # mu*(log e)^2 + (lam/2)*(log e)^2 = 1 + 1
    assert m.energy([np.e, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)


def test_exp_hencky_offset_subtracted():
    m = instantiate_model("exp_hencky", {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0})
    assert m.energy_offset == pytest.approx(1.0 + 1.0, abs=1e-15)
    assert m.energy([1.0, 1.0, 1.0]) == 0.0


# --- derivative oracles ------------------------------------------------------

@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_gradient_matches_finite_differences(kind, catalog):
    m = catalog[kind]
    rng = np.random.default_rng(20)
    for _ in range(25):
        lams = np.exp(rng.uniform(-0.8, 0.8, size=3))
        grad, hess = stretch_derivatives(m, lams)

        def g_of_lams(v):
            return m.energy(v)

        fd = fd_gradient(g_of_lams, lams)
        np.testing.assert_allclose(grad, fd, atol=1e-6 * (1.0 + np.max(np.abs(grad))))
        # ghat_hess is symmetric to the bit
        np.testing.assert_allclose(hess, hess.T, atol=0)


@pytest.mark.parametrize("kind", list(CATALOG_PARAMS))
def test_hessian_matches_finite_differences(kind, catalog):
    m = catalog[kind]
    rng = np.random.default_rng(21)
    for _ in range(10):
        lams = np.exp(rng.uniform(-0.6, 0.6, size=3))
        _, hess = stretch_derivatives(m, lams)

        def grad_of_lams(v):
            return stretch_derivatives(m, v)[0]

        fd = np.zeros((3, 3))
        for j in range(3):
            h = 1e-6 * max(1.0, lams[j])
            vp, vm = lams.copy(), lams.copy()
            vp[j] += h
            vm[j] -= h
            fd[:, j] = (grad_of_lams(vp) - grad_of_lams(vm)) / (2.0 * h)
        scale = 1.0 + np.max(np.abs(hess))
        np.testing.assert_allclose(hess, 0.5 * (fd + fd.T), atol=2e-5 * scale)


def test_richter_consistency(catalog):
    # lambda_i dg/dlambda_i equals the log-space gradient of ghat (FD check)
    rng = np.random.default_rng(22)
    for m in catalog.values():
        for _ in range(10):
            x = rng.uniform(-0.7, 0.7, size=3)
            lams = np.exp(x)
            grad, _ = stretch_derivatives(m, lams)
            tau_route1 = lams * grad
            tau_route2 = fd_gradient(lambda y: float(m.ghat(y)), x)
            np.testing.assert_allclose(
                tau_route1, tau_route2, rtol=1e-6, atol=1e-6 * (1 + np.max(np.abs(tau_route1)))
            )


# --- stress measures ---------------------------------------------------------

def test_exp_hencky_published_cauchy_formula(catalog):
    # sigma_i = (1/J){2 mu e^(k sum log^2) log l_i + lam e^(khat log^2 J) log J}
    m = catalog["exp_hencky"]
    mu, lam, k, khat = 1.0, 2.0, 1.0, 1.0

    def published(lams):
        lams = np.asarray(lams, dtype=float)
        J = np.prod(lams)
        x = np.log(lams)
        return (2 * mu * np.exp(k * np.sum(x * x)) * x + lam * np.exp(khat * np.log(J) ** 2) * np.log(J)) / J

    for lams in ([1.5, 1.0, 1.0], [0.8, 1.2, 1.05], [2.0, 0.5, 1.3]):
        ss = principal_stresses(m, StretchState(*lams))
        np.testing.assert_allclose(ss.cauchy, published(lams), rtol=1e-12)


def test_stress_measure_web(catalog):
    rng = np.random.default_rng(23)
    for m in catalog.values():
        if m.incompressible:
            continue
        for _ in range(20):
            lams = np.exp(rng.uniform(-0.8, 0.8, size=3))
            st = StretchState(*lams)
            ss = principal_stresses(m, st)
            np.testing.assert_allclose(ss.kirchhoff, st.J * ss.cauchy, rtol=1e-12)
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                expected = lams[j] * lams[k] * ss.cauchy[i]
                assert ss.biot[i] == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_incompressible_stress_relations(catalog):
    rng = np.random.default_rng(24)
    for m in catalog.values():
        if not m.incompressible:
            continue
        for _ in range(20):
            x12 = rng.uniform(-0.6, 0.6, size=2)
            lams = np.exp([x12[0], x12[1], -x12.sum()])  # J = 1
            st = StretchState(*lams)
            ss = principal_stresses(m, st, pressure=0.37)
            np.testing.assert_allclose(ss.kirchhoff, ss.cauchy, rtol=0, atol=0)
            np.testing.assert_allclose(ss.biot, ss.cauchy / lams, rtol=1e-14)
            # sigma_i = lambda_i * T_i at J = 1
            np.testing.assert_allclose(lams * ss.biot, ss.cauchy, rtol=1e-14)


def test_quadratic_hencky_two_route_consistency(catalog):
    # (1/J)(2 mu log l_i + lam log J) against tau_i / J from the gradient
    m = catalog["quadratic_hencky"]
    mu, lam = m.constants.mu, m.constants.lam
    rng = np.random.default_rng(25)
    for _ in range(20):
        lams = np.exp(rng.uniform(-0.9, 0.9, size=3))
        st = StretchState(*lams)
        ss = principal_stresses(m, st)
        direct = (2 * mu * np.log(lams) + lam * np.log(st.J)) / st.J
        np.testing.assert_allclose(ss.cauchy, direct, rtol=1e-12)


def test_permutation_equivariance(catalog):
    lams = np.array([1.7, 0.8, 1.1])
    for m in catalog.values():
        p = 0.1 if m.incompressible else None
        base = principal_stresses(m, StretchState(*lams), pressure=p)
        for perm in itertools.permutations(range(3)):
            pl = lams[list(perm)]
            ss = principal_stresses(m, StretchState(*pl), pressure=p)
            np.testing.assert_allclose(ss.cauchy, base.cauchy[list(perm)], rtol=1e-12)
            assert ss.energy == pytest.approx(base.energy, rel=1e-12)


# --- tensor routes -----------------------------------------------------------

def test_cauchy_from_B_identity(catalog):
    for m in catalog.values():
        if m.incompressible:
            continue
        np.testing.assert_allclose(mat.cauchy_from_B(m, np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def neo_hooke_cauchy_closed_form(mu, kappa, B):
    """Closed tensor form of the vol-iso Neo-Hooke Cauchy stress,
    mu det(B)^(-5/6) dev(B) + kappa (sqrt(det B) - 1) I."""
    detB = np.linalg.det(B)
    devB = B - np.trace(B) / 3.0 * np.eye(3)
    return mu * detB ** (-5.0 / 6.0) * devB + kappa * (np.sqrt(detB) - 1.0) * np.eye(3)


def test_neo_hooke_closed_form_vs_spectral():
    m = instantiate_model("neo_hooke_vol_iso", {"mu": 1.0, "kappa": 2.0})
    B = np.diag([4.0, 1.0, 1.0])
    byhand = 4.0 ** (-5.0 / 6.0) * np.diag([2.0, -1.0, -1.0]) + 2.0 * np.eye(3)
    np.testing.assert_allclose(neo_hooke_cauchy_closed_form(1.0, 2.0, B), byhand, rtol=1e-14)
    np.testing.assert_allclose(mat.cauchy_from_B(m, B), byhand, rtol=1e-10)
    rng = np.random.default_rng(26)
    for _ in range(30):
        from conftest import random_spd

        B = random_spd(rng, scale=1.0)
        closed = neo_hooke_cauchy_closed_form(m.mu, m.kappa, B)
        spectral = mat.cauchy_from_B(m, B)
        assert np.max(np.abs(closed - spectral)) <= 1e-10 * max(1.0, norm(closed))


def test_cauchy_from_B_rotation_equivariance(catalog):
    from conftest import random_spd

    rng = np.random.default_rng(27)
    for m in catalog.values():
        fn = kirchhoff_extra_from_B if m.incompressible else mat.cauchy_from_B
        for _ in range(100):
            B = random_spd(rng, scale=1.0)
            Q = random_rotation(rng)
            lhs = fn(m, Q @ B @ Q.T)
            rhs = Q @ fn(m, B) @ Q.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, norm(rhs))


def test_cauchy_from_B_rejects_non_spd(catalog):
    with pytest.raises(DomainError):
        mat.cauchy_from_B(catalog["exp_hencky"], np.diag([1.0, -0.5, 1.0]))


def test_energy_from_F_matches_principal(catalog):
    rng = np.random.default_rng(28)
    for m in catalog.values():
        for _ in range(20):
            lams = np.exp(rng.uniform(-0.7, 0.7, size=3))
            Q = random_rotation(rng)
            R = random_rotation(rng)
            F = Q @ np.diag(lams) @ R  # polar parts must not matter
            assert mat.energy_from_F(m, F) == pytest.approx(m.energy(lams), rel=1e-10, abs=1e-12)


def test_energy_from_F_rejects_flipped():
    m = instantiate_model("quadratic_hencky", {"E": 1.0, "nu": 0.3})
    with pytest.raises(DomainError):
        mat.energy_from_F(m, -np.eye(3))


def test_stretch_state_validation():
    with pytest.raises(DomainError):
        StretchState(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        StretchState(1.0, np.inf, 1.0)


# --- the regime rule ------------------------------------------------------------

_X0, _I3 = np.zeros(3), np.eye(3)
_REST = rates.MotionSample(_I3, np.zeros((3, 3)), np.zeros((3, 3)))

# every entry point that refuses a model of the other regime: whether it needs
# an incompressible model, and a call at the reference state
REGIME_ENTRIES = {
    "extra_tau": (True, lambda m: m.extra_tau(_X0)),
    "extra_tau_jac": (True, lambda m: m.extra_tau_jac(_X0)),
    "hill_tangent": (True, lambda m: hill_tangent(m, _I3)),
    "kirchhoff_principal": (False, lambda m: m.kirchhoff_principal(_X0)),
    "cauchy_from_B": (False, lambda m: mat.cauchy_from_B(m, _I3)),
    "csp_rate_form": (False, lambda m: rates.csp_rate_form(m, _REST)),
    "first_piola_fd": (False, lambda m: rates.first_piola_fd(m, _I3)),
    "power_identity": (False, lambda m: rates.power_identity(m, _REST)),
    "second_order_work_identity": (False, lambda m: rates.second_order_work_identity(m, _REST)),
    "energy_second_time_derivative": (False,
                                      lambda m: rates.energy_second_time_derivative(m, _REST)),
    "tsts_tangent": (False, lambda m: tsts_tangent(m, _I3)),
    "two_point_monotonicity": (False, lambda m: two_point_monotonicity(m, _I3, _I3, "cauchy")),
    "be_te_check": (False, lambda m: be_te_check(m, StretchState(1.0, 1.0, 1.0))),
    "lh_ellipticity_probe": (False, lambda m: lh_ellipticity_probe(m, StretchState(1.0, 1.0, 1.0))),
}


@pytest.mark.parametrize("entry", list(REGIME_ENTRIES))
def test_wrong_regime_is_refused_by_the_rule(catalog, entry):
    incompressible, call = REGIME_ENTRIES[entry]
    for m in catalog.values():
        if m.incompressible == incompressible:
            call(m)  # the rule lets the right regime through
            continue
        regime = "incompressible" if m.incompressible else "compressible"
        with pytest.raises(UsageError) as exc:
            call(m)
        assert str(exc.value).startswith(f"model '{m.kind}' is {regime}; ")
