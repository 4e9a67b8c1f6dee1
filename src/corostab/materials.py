"""Catalog of isotropic hyperelastic energies in principal-stretch form.

Every model is defined through the energy ``ghat(x)`` in logarithmic stretch
coordinates x_i = log(lambda_i).  For compressible models the principal
Kirchhoff stresses are the gradient of ghat, which fixes every other stress
measure:

    tau_i   = d ghat / d x_i          (Kirchhoff)
    sigma_i = tau_i / J               (Cauchy),  J = exp(x_1 + x_2 + x_3)
    T_i     = tau_i / lambda_i        (Biot)

Incompressible models live on the unimodular manifold J = 1 and expose an
*extra* principal Kirchhoff stress t_i with sigma_i = tau_i = -p + t_i, the
pressure p being a boundary-condition unknown.  The extra-stress formulas are
the published ones for each model; they coincide with the gradient of ghat
for the Neo-Hooke and quadratic-Hencky models but the exponentiated-Hencky
variant uses the Biot-type rule t_i = d g / d lambda_i.

Incremental moduli come from ``stress_jac``: the principal stress law s(x)
(Cauchy if compressible, extra Kirchhoff if incompressible) together with
its exact Jacobian G_ij = d s_i / d x_j.  The stability checks read the same
derivatives with the volumetric term kept apart (``ghat_grad_split``,
``ghat_hess_split``).

Energies are normalized so the reference state has zero energy; the shift
does not affect any stress.
"""

from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .tensor3 import eig_sym

__all__ = [
    "ElasticConstants",
    "ExponentiatedHencky",
    "ExponentiatedHenckyIncompressible",
    "MaterialModel",
    "MODEL_KINDS",
    "NeoHookeIncompressible",
    "NeoHookeVolIso",
    "QuadraticHencky",
    "QuadraticHenckyIncompressible",
    "StressState",
    "StretchState",
    "cauchy_from_B",
    "energy_and_derivatives",
    "energy_from_F",
    "instantiate_model",
    "principal_stresses",
]


@dataclass(frozen=True)
class ElasticConstants:
    """Isotropic small-strain constants (mu, lambda) with mu > 0 and
    2*mu + 3*lambda > 0."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.lam)):
            raise ConfigurationError("elastic constants must be finite")
        if self.mu <= 0.0:
            raise ConfigurationError(f"violated constraint mu > 0 (mu = {self.mu})")
        if 2.0 * self.mu + 3.0 * self.lam <= 0.0:
            raise ConfigurationError(
                f"violated constraint 2*mu + 3*lambda > 0 (mu = {self.mu}, lambda = {self.lam})"
            )

    @classmethod
    def from_young_poisson(cls, young, poisson):
        if not -1.0 < poisson < 0.5:
            raise ConfigurationError(f"violated constraint -1 < nu < 1/2 (nu = {poisson})")
        mu = young / (2.0 * (1.0 + poisson))
        lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
        return cls(mu, lam)

    @property
    def young(self):
        return self.mu * (3.0 * self.lam + 2.0 * self.mu) / (self.lam + self.mu)

    @property
    def poisson(self):
        return self.lam / (2.0 * (self.lam + self.mu))

    @property
    def bulk(self):
        return (2.0 * self.mu + 3.0 * self.lam) / 3.0


@dataclass(frozen=True)
class StretchState:
    """Principal stretches of a diagonal deformation, all > 0."""

    lam1: float
    lam2: float
    lam3: float

    def __post_init__(self):
        lams = (self.lam1, self.lam2, self.lam3)
        if not all(np.isfinite(v) and v > 0.0 for v in lams):
            raise DomainError(f"principal stretches must be positive and finite, got {lams}")

    @property
    def J(self):
        return self.lam1 * self.lam2 * self.lam3

    def as_array(self):
        return np.array([self.lam1, self.lam2, self.lam3])

    def log(self):
        return np.log(self.as_array())


@dataclass(frozen=True)
class StressState:
    """Principal stresses in the three measures, plus the energy value.
    ``pressure`` is set only for incompressible models."""

    cauchy: np.ndarray
    kirchhoff: np.ndarray
    biot: np.ndarray
    energy: float
    pressure: float | None = None


class MaterialModel:
    """Common interface of all catalog models.

    Subclasses provide ``ghat`` on log-stretch arrays of shape (..., 3).
    Compressible ones split its gradient and Hessian off the volumetric
    term: ``ghat_grad_split`` gives (iso, v) with ghat_grad = iso + v 1 and
    ``ghat_hess_split`` (iso, c) with ghat_hess = iso + c 11^T.
    Incompressible ones provide ``ghat_grad``/``ghat_hess`` directly, plus
    ``extra_tau`` and its Jacobian ``extra_tau_jac``.  All methods
    broadcast over leading axes.
    """

    kind: ClassVar[str]
    incompressible: ClassVar[bool]

    def ghat(self, x):
        raise NotImplementedError

    def ghat_grad(self, x):
        iso, v = self.ghat_grad_split(x)
        return iso + v[..., None]

    def ghat_hess(self, x):
        iso, c = self.ghat_hess_split(x)
        return iso + c[..., None, None]

    def extra_tau(self, x):
        raise UsageError(f"model '{self.kind}' is compressible; no extra stress")

    def extra_tau_jac(self, x):
        raise UsageError(f"model '{self.kind}' is compressible; no extra stress")

    @property
    def energy_offset(self):
        return float(self.ghat(np.zeros(3)))

    def energy(self, lams):
        x = np.log(np.asarray(lams, dtype=float))
        return self.ghat(x) - self.energy_offset

    # -- derived stress routes (compressible only) --

    def kirchhoff_principal(self, x):
        if self.incompressible:
            raise UsageError(
                f"model '{self.kind}' is incompressible; principal stresses need a pressure"
            )
        return self.ghat_grad(x)

    def cauchy_principal(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x, axis=-1)
        return self.kirchhoff_principal(x) * np.exp(-s)[..., None]

    def stress_jac(self, x):
        """Principal stress law s(x) and its Jacobian G_ij = d s_i / d x_j,
        shapes (..., 3) and (..., 3, 3).

        Compressible: s is the Cauchy stress sigma = tau / J and
        G = J^-1 (H - tau (x) 1) with tau = ghat_grad, H = ghat_hess (the
        -tau_i term is d(1/J)/dx_j = -1/J).  Incompressible models override
        this with the extra stress and ``extra_tau_jac``.
        """
        x = np.asarray(x, dtype=float)
        tau = self.kirchhoff_principal(x)
        inv_J = np.exp(-np.sum(x, axis=-1))[..., None]
        return tau * inv_J, inv_J[..., None] * (self.ghat_hess(x) - tau[..., :, None])

    def parameters(self) -> dict:
        raise NotImplementedError

    @property
    def young(self):
        raise NotImplementedError


def _eye33(x):
    return np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)).copy()


@dataclass(frozen=True)
class ExponentiatedHencky(MaterialModel):
    """W = mu/k * exp(k |log V|^2) + lam/(2*khat) * exp(khat (log det V)^2)."""

    constants: ElasticConstants
    k: float
    khat: float

    kind: ClassVar[str] = "exp_hencky"
    incompressible: ClassVar[bool] = False

    def __post_init__(self):
        if self.k <= 0.0 or self.khat <= 0.0:
            raise ConfigurationError(
                f"violated constraint k, khat > 0 (k = {self.k}, khat = {self.khat})"
            )

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        mu, lam = self.constants.mu, self.constants.lam
        q = np.sum(x * x, axis=-1)
        s = np.sum(x, axis=-1)
        return mu / self.k * np.exp(self.k * q) + lam / (2.0 * self.khat) * np.exp(
            self.khat * s * s
        )

    def ghat_grad_split(self, x):
        x = np.asarray(x, dtype=float)
        mu, lam = self.constants.mu, self.constants.lam
        q = np.sum(x * x, axis=-1)
        s = np.sum(x, axis=-1)
        return 2.0 * mu * x * np.exp(self.k * q)[..., None], lam * s * np.exp(self.khat * s * s)

    def ghat_hess_split(self, x):
        x = np.asarray(x, dtype=float)
        mu, lam = self.constants.mu, self.constants.lam
        q = np.sum(x * x, axis=-1)
        s = np.sum(x, axis=-1)
        iso = 2.0 * mu * np.exp(self.k * q)[..., None, None] * (
            _eye33(x) + 2.0 * self.k * x[..., :, None] * x[..., None, :]
        )
        return iso, lam * (1.0 + 2.0 * self.khat * s * s) * np.exp(self.khat * s * s)

    def parameters(self):
        return {
            "mu": self.constants.mu,
            "lambda_lame": self.constants.lam,
            "k": self.k,
            "khat": self.khat,
        }

    @property
    def young(self):
        return self.constants.young


@dataclass(frozen=True)
class QuadraticHencky(MaterialModel):
    """W = mu |log V|^2 + lam/2 * tr(log V)^2."""

    constants: ElasticConstants

    kind: ClassVar[str] = "quadratic_hencky"
    incompressible: ClassVar[bool] = False

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        mu, lam = self.constants.mu, self.constants.lam
        s = np.sum(x, axis=-1)
        return mu * np.sum(x * x, axis=-1) + 0.5 * lam * s * s

    def ghat_grad_split(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.constants.mu * x, self.constants.lam * np.sum(x, axis=-1)

    def ghat_hess_split(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.constants.mu * _eye33(x), np.full(x.shape[:-1], self.constants.lam)

    def parameters(self):
        return {"mu": self.constants.mu, "lambda_lame": self.constants.lam}

    @property
    def young(self):
        return self.constants.young


@dataclass(frozen=True)
class NeoHookeVolIso(MaterialModel):
    """W = mu/2 (|F|^2 / det(F)^(2/3) - 3) + kappa/2 (det F - 1)^2.

    The small-strain constants are (mu, kappa - 2 mu / 3)."""

    mu: float
    kappa: float

    kind: ClassVar[str] = "neo_hooke_vol_iso"
    incompressible: ClassVar[bool] = False

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ConfigurationError(f"violated constraint mu > 0 (mu = {self.mu})")
        if self.kappa <= 0.0:
            raise ConfigurationError(f"violated constraint kappa > 0 (kappa = {self.kappa})")

    @property
    def constants(self):
        return ElasticConstants(self.mu, self.kappa - 2.0 * self.mu / 3.0)

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        b = np.exp(2.0 * x)
        s = np.sum(x, axis=-1)
        iso = 0.5 * self.mu * (np.sum(b, axis=-1) * np.exp(-2.0 * s / 3.0) - 3.0)
        J = np.exp(s)
        return iso + 0.5 * self.kappa * (J - 1.0) ** 2

    def ghat_grad_split(self, x):
        x = np.asarray(x, dtype=float)
        b = np.exp(2.0 * x)
        s = np.sum(x, axis=-1)
        bbar = np.sum(b, axis=-1)[..., None] / 3.0
        J = np.exp(s)
        iso = self.mu * np.exp(-2.0 * s / 3.0)[..., None] * (b - bbar)
        return iso, self.kappa * (J - 1.0) * J

    def ghat_hess_split(self, x):
        x = np.asarray(x, dtype=float)
        b = np.exp(2.0 * x)
        s = np.sum(x, axis=-1)
        B = np.sum(b, axis=-1)
        J = np.exp(s)
        pre = (self.mu * np.exp(-2.0 * s / 3.0))[..., None, None]
        bi = b[..., :, None]
        bj = b[..., None, :]
        iso = pre * (
            2.0 * b[..., :, None] * np.eye(3)
            - (2.0 / 3.0) * (bi + bj)
            + (2.0 / 9.0) * B[..., None, None]
        )
        return iso, self.kappa * (2.0 * J * J - J)

    def parameters(self):
        return {"mu": self.mu, "kappa": self.kappa}

    @property
    def young(self):
        return self.constants.young


class _IncompressibleModel(MaterialModel):
    """Extra stress t = ghat_grad with Jacobian ghat_hess unless a model
    publishes another rule."""

    incompressible: ClassVar[bool] = True

    def extra_tau(self, x):
        return self.ghat_grad(x)

    def extra_tau_jac(self, x):
        return self.ghat_hess(x)

    def stress_jac(self, x):
        return self.extra_tau(x), self.extra_tau_jac(x)

    @property
    def young(self):
        # All three incompressible models have uniaxial slope 3*mu at identity.
        return 3.0 * self.mu


@dataclass(frozen=True)
class NeoHookeIncompressible(_IncompressibleModel):
    """W = mu/2 (tr B - 3) on det F = 1; extra stress t_i = mu lambda_i^2."""

    mu: float

    kind: ClassVar[str] = "neo_hooke_incompressible"

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ConfigurationError(f"violated constraint mu > 0 (mu = {self.mu})")

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.mu * (np.sum(np.exp(2.0 * x), axis=-1) - 3.0)

    def ghat_grad(self, x):
        return self.mu * np.exp(2.0 * np.asarray(x, dtype=float))

    def ghat_hess(self, x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape[:-1] + (3, 3))
        b = 2.0 * self.mu * np.exp(2.0 * x)
        h[..., 0, 0], h[..., 1, 1], h[..., 2, 2] = b[..., 0], b[..., 1], b[..., 2]
        return h

    def parameters(self):
        return {"mu": self.mu}


@dataclass(frozen=True)
class QuadraticHenckyIncompressible(_IncompressibleModel):
    """W = mu |log V|^2 on det F = 1; extra stress t_i = 2 mu log(lambda_i)."""

    mu: float

    kind: ClassVar[str] = "quadratic_hencky_incompressible"

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ConfigurationError(f"violated constraint mu > 0 (mu = {self.mu})")

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        return self.mu * np.sum(x * x, axis=-1)

    def ghat_grad(self, x):
        return 2.0 * self.mu * np.asarray(x, dtype=float)

    def ghat_hess(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.mu * _eye33(x)

    def parameters(self):
        return {"mu": self.mu}


@dataclass(frozen=True)
class ExponentiatedHenckyIncompressible(_IncompressibleModel):
    """W = mu/k exp(k |log V|^2) on det F = 1.

    The extra stress follows the published Biot-type rule
    t_i = d g / d lambda_i = 2 mu log(lambda_i)/lambda_i * exp(k |log V|^2),
    which is what the uniaxial closed form tau_1 = mu log(l1)
    exp(3/2 k log(l1)^2) (sqrt(l1) + 2/l1) requires; the Kirchhoff gradient of
    ghat would give 3 mu log(l1) exp(...) instead.
    """

    mu: float
    k: float

    kind: ClassVar[str] = "exp_hencky_incompressible"

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ConfigurationError(f"violated constraint mu > 0 (mu = {self.mu})")
        if self.k <= 0.0:
            raise ConfigurationError(f"violated constraint k > 0 (k = {self.k})")

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        return self.mu / self.k * np.exp(self.k * np.sum(x * x, axis=-1))

    def ghat_grad(self, x):
        x = np.asarray(x, dtype=float)
        q = np.sum(x * x, axis=-1)
        return 2.0 * self.mu * x * np.exp(self.k * q)[..., None]

    def ghat_hess(self, x):
        x = np.asarray(x, dtype=float)
        q = np.sum(x * x, axis=-1)
        e = np.exp(self.k * q)[..., None, None]
        return 2.0 * self.mu * e * (
            _eye33(x) + 2.0 * self.k * x[..., :, None] * x[..., None, :]
        )

    def extra_tau(self, x):
        x = np.asarray(x, dtype=float)
        q = np.sum(x * x, axis=-1)
        return 2.0 * self.mu * x * np.exp(-x) * np.exp(self.k * q)[..., None]

    def extra_tau_jac(self, x):
        # t_i = 2 mu w_i exp(k q) with w_i = x_i exp(-x_i), w_i' = (1 - x_i) exp(-x_i)
        x = np.asarray(x, dtype=float)
        e = np.exp(-x)
        q = np.sum(x * x, axis=-1)
        pre = 2.0 * self.mu * np.exp(self.k * q)[..., None, None]
        return pre * (
            ((1.0 - x) * e)[..., :, None] * _eye33(x)
            + 2.0 * self.k * (x * e)[..., :, None] * x[..., None, :]
        )

    def parameters(self):
        return {"mu": self.mu, "k": self.k}


MODEL_KINDS = (
    "exp_hencky",
    "quadratic_hencky",
    "neo_hooke_vol_iso",
    "neo_hooke_incompressible",
    "quadratic_hencky_incompressible",
    "exp_hencky_incompressible",
)


def _constants_from_params(kind, params):
    """Resolve (mu, lambda) from exactly one of the accepted parameterizations."""
    has_lame = "mu" in params and "lambda_lame" in params
    has_young = "E" in params and "nu" in params
    if has_lame and has_young:
        raise ConfigurationError(
            f"model '{kind}': give either (mu, lambda_lame) or (E, nu), not both"
        )
    if has_lame:
        return ElasticConstants(params["mu"], params["lambda_lame"]), {"mu", "lambda_lame"}
    if has_young:
        return ElasticConstants.from_young_poisson(params["E"], params["nu"]), {"E", "nu"}
    raise ConfigurationError(
        f"model '{kind}': missing parameters, need (mu, lambda_lame) or (E, nu)"
    )


def _reject_extras(kind, params, used):
    extras = set(params) - used
    if extras:
        raise ConfigurationError(f"model '{kind}': unknown parameter(s) {sorted(extras)}")


def instantiate_model(kind: str, parameters: Mapping[str, float]) -> MaterialModel:
    """Build a validated catalog model from a kind name and a numeric map.

    Compressible kinds accept (mu, lambda_lame) or (E, nu); the Neo-Hooke
    split additionally accepts (mu, kappa).  Incompressible kinds accept mu
    or E (= 3 mu).  Mixed parameterizations are rejected.
    """
    params = {k: float(v) for k, v in dict(parameters).items()}
    if kind == "exp_hencky":
        constants, used = _constants_from_params(kind, params)
        for name in ("k", "khat"):
            if name not in params:
                raise ConfigurationError(f"model '{kind}': missing parameter '{name}'")
        _reject_extras(kind, params, used | {"k", "khat"})
        return ExponentiatedHencky(constants, params["k"], params["khat"])
    if kind == "quadratic_hencky":
        constants, used = _constants_from_params(kind, params)
        _reject_extras(kind, params, used)
        return QuadraticHencky(constants)
    if kind == "neo_hooke_vol_iso":
        if "kappa" in params:
            if not {"mu", "kappa"} <= set(params) or "E" in params or "nu" in params:
                raise ConfigurationError(
                    f"model '{kind}': kappa parameterization needs exactly (mu, kappa)"
                )
            _reject_extras(kind, params, {"mu", "kappa"})
            return NeoHookeVolIso(params["mu"], params["kappa"])
        constants, used = _constants_from_params(kind, params)
        _reject_extras(kind, params, used)
        return NeoHookeVolIso(constants.mu, constants.bulk)
    if kind in ("neo_hooke_incompressible", "quadratic_hencky_incompressible",
                "exp_hencky_incompressible"):
        if "mu" in params and "E" in params:
            raise ConfigurationError(f"model '{kind}': give either mu or E, not both")
        if "mu" in params:
            mu, used = params["mu"], {"mu"}
        elif "E" in params:
            mu, used = params["E"] / 3.0, {"E"}
        else:
            raise ConfigurationError(f"model '{kind}': missing parameter 'mu' (or 'E')")
        if kind == "neo_hooke_incompressible":
            _reject_extras(kind, params, used)
            return NeoHookeIncompressible(mu)
        if kind == "quadratic_hencky_incompressible":
            _reject_extras(kind, params, used)
            return QuadraticHenckyIncompressible(mu)
        if "k" not in params:
            raise ConfigurationError(f"model '{kind}': missing parameter 'k'")
        _reject_extras(kind, params, used | {"k"})
        return ExponentiatedHenckyIncompressible(mu, params["k"])
    raise ConfigurationError(f"unknown model kind '{kind}' (known: {', '.join(MODEL_KINDS)})")


def energy_and_derivatives(model: MaterialModel, lams):
    """Energy W and its first and second derivatives W_i, W_ij with respect to
    the principal stretches, batched over stretches of shape (..., 3).

    Derivatives are analytic via the log-space gradient g and Hessian H of
    ghat: W_i = g_i / l_i and W_ij = (H_ij - delta_ij g_i) / (l_i l_j).
    The Hessian is symmetrized to kill roundoff asymmetry.
    """
    lams = np.asarray(lams, dtype=float)
    x = np.log(lams)
    g = model.ghat_grad(x)
    W2 = (model.ghat_hess(x) - g[..., None] * np.eye(3)) / (lams[..., :, None] * lams[..., None, :])
    return model.ghat(x) - model.energy_offset, g / lams, 0.5 * (W2 + np.swapaxes(W2, -1, -2))


def principal_stresses(model, state: StretchState, pressure=None) -> StressState:
    """All three principal stress measures at a stretch state.

    Compressible models take no pressure; incompressible ones require it and
    use sigma_i = tau_i = -p + t_i with the model's extra stress t_i.
    """
    x = state.log()
    if model.incompressible:
        if pressure is None:
            raise UsageError(f"model '{model.kind}' is incompressible; pressure required")
        t = model.extra_tau(x)
        sigma = t - pressure
        # J = 1: Kirchhoff == Cauchy and T_i = sigma_i / lambda_i
        return StressState(
            cauchy=sigma,
            kirchhoff=sigma.copy(),
            biot=sigma / state.as_array(),
            energy=float(model.energy(state.as_array())),
            pressure=float(pressure),
        )
    if pressure is not None:
        raise UsageError(f"model '{model.kind}' is compressible; pressure must not be given")
    tau = model.kirchhoff_principal(x)
    J = state.J
    return StressState(
        cauchy=tau / J,
        kirchhoff=tau,
        biot=tau / state.as_array(),
        energy=float(model.energy(state.as_array())),
        pressure=None,
    )


def _spd_log_stretches(B):
    """Eigen data of SPD B: log-stretches x = log(sqrt(eigenvalues)), frame."""
    d, Q = eig_sym(B)
    if np.any(d[..., -1] <= 0.0):
        raise DomainError("B must be positive definite")
    return 0.5 * np.log(d), Q


def cauchy_from_B(model, B) -> np.ndarray:
    """Cauchy stress tensor from the left Cauchy-Green tensor, by the spectral
    route.  Broadcasts over stacked (..., 3, 3) input.  Compressible only."""
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; its Cauchy stress needs a pressure"
        )
    x, Q = _spd_log_stretches(B)
    sig = model.cauchy_principal(x)
    return np.einsum("...ik,...k,...jk->...ij", Q, sig, Q)


def energy_from_F(model, F) -> np.ndarray:
    """Energy density at a deformation gradient (det F > 0 required); works on
    stacked (..., 3, 3) input.  Isotropy makes this a function of F F^T only."""
    F = np.asarray(F, dtype=float)
    if np.any(np.linalg.det(F) <= 0.0):
        raise DomainError("deformation gradient must have positive determinant")
    B = np.einsum("...ik,...jk->...ij", F, F)
    d = np.linalg.eigvalsh(B)
    x = 0.5 * np.log(d)
    return model.ghat(x) - model.energy_offset
