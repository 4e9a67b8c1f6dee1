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
its exact Jacobian G_ij = d s_i / d x_j.  The stability checks, the rank-one
minimum included, read the same derivatives with the volumetric term kept
apart (``ghat_grad_split``, ``ghat_hess_split``).

Energies are normalized so the reference state has zero energy; the shift
does not affect any stress.
"""

from dataclasses import dataclass, fields
from collections.abc import Mapping
from numbers import Real
from typing import ClassVar

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
    "PARAMETER_NAMES",
    "QuadraticHencky",
    "QuadraticHenckyIncompressible",
    "StretchState",
    "cauchy_from_B",
    "energy_from_F",
    "instantiate_model",
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


class MaterialModel:
    """Common interface of all catalog models.

    Subclasses provide ``ghat`` on log-stretch arrays of shape (..., 3).
    Compressible ones split its gradient and Hessian off the volumetric
    term: ``ghat_grad_split`` gives (iso, v) with ghat_grad = iso + v 1 and
    ``ghat_hess_split`` (iso, c) with ghat_hess = iso + c 11^T.
    Incompressible ones provide ``ghat_grad``/``ghat_hess`` directly, plus
    ``extra_tau`` and its Jacobian ``extra_tau_jac``.  All methods
    broadcast over leading axes.

    Subclasses are dataclasses whose fields are the parameters.  Every
    scalar field is a modulus or an exponent and must be finite and > 0; an
    ``ElasticConstants`` field checks its own rule.  ``parameters()`` and
    ``young`` read the fields.
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

    def require(self, incompressible, need):
        """The one regime rule: raise a UsageError "model '<kind>' is
        (in)compressible; <need>" unless the model's regime is
        ``incompressible``."""
        if self.incompressible != incompressible:
            regime = "incompressible" if self.incompressible else "compressible"
            raise UsageError(f"model '{self.kind}' is {regime}; {need}")

    def extra_tau(self, x):
        self.require(True, "no extra stress")

    def extra_tau_jac(self, x):
        self.require(True, "no extra stress")

    @property
    def energy_offset(self):
        return float(self.ghat(np.zeros(3)))

    def energy(self, lams):
        x = np.log(np.asarray(lams, dtype=float))
        return self.ghat(x) - self.energy_offset

    # -- derived stress routes (compressible only) --

    def kirchhoff_principal(self, x):
        self.require(False, "principal stresses need a pressure")
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

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, ElasticConstants) and not (np.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"violated constraint 0 < {f.name} < inf ({f.name} = {v})")

    def parameters(self) -> dict:
        """The fields by name, an ElasticConstants field as mu and lambda_lame."""
        params = {}
        for f in fields(self):
            v = getattr(self, f.name)
            params.update({"mu": v.mu, "lambda_lame": v.lam} if isinstance(v, ElasticConstants)
                          else {f.name: v})
        return params

    @property
    def young(self):
        return self.constants.young


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


@dataclass(frozen=True)
class NeoHookeVolIso(MaterialModel):
    """W = mu/2 (|F|^2 / det(F)^(2/3) - 3) + kappa/2 (det F - 1)^2.

    The small-strain constants are (mu, kappa - 2 mu / 3)."""

    mu: float
    kappa: float

    kind: ClassVar[str] = "neo_hooke_vol_iso"
    incompressible: ClassVar[bool] = False

    @property
    def constants(self):
        return ElasticConstants(self.mu, self.kappa - 2.0 * self.mu / 3.0)

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        b = np.exp(2.0 * x)
        s = np.sum(x, axis=-1)
        iso = 0.5 * self.mu * (np.sum(b, axis=-1) * np.exp(-2.0 * s / 3.0) - 3.0)
        dJ = np.exp(s) - 1.0
        # a product: on a lone state dJ is a numpy scalar, whose ** 2 calls the
        # C pow and can round apart from the batch's square
        return iso + 0.5 * self.kappa * (dJ * dJ)

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


@dataclass(frozen=True)
class QuadraticHenckyIncompressible(_IncompressibleModel):
    """W = mu |log V|^2 on det F = 1; extra stress t_i = 2 mu log(lambda_i)."""

    mu: float

    kind: ClassVar[str] = "quadratic_hencky_incompressible"

    def ghat(self, x):
        x = np.asarray(x, dtype=float)
        return self.mu * np.sum(x * x, axis=-1)

    def ghat_grad(self, x):
        return 2.0 * self.mu * np.asarray(x, dtype=float)

    def ghat_hess(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.mu * _eye33(x)


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


def _constants(p):
    """Small-strain constants of a checked map holding (mu, lambda_lame) or (E, nu)."""
    if "E" in p:
        return ElasticConstants.from_young_poisson(p["E"], p["nu"])
    return ElasticConstants(p["mu"], p["lambda_lame"])


def _mu_of(p):
    """mu of a checked map holding mu or E; E = 3 mu at J = 1."""
    return p["mu"] if "mu" in p else p["E"] / 3.0


def _neo_hooke_vol_iso(p):
    if "kappa" in p:
        return NeoHookeVolIso(p["mu"], p["kappa"])
    c = _constants(p)
    return NeoHookeVolIso(c.mu, c.bulk)


_LAME, _YOUNG, _MU, _E = ("mu", "lambda_lame"), ("E", "nu"), ("mu",), ("E",)

# The one table of accepted parameters, per kind: the parameterizations, of
# which exactly one is given, the parameters every one of them also needs, and
# the builder of the model from a map checked against both.
_CATALOG = {
    "exp_hencky": ((_LAME, _YOUNG), ("k", "khat"),
                   lambda p: ExponentiatedHencky(_constants(p), p["k"], p["khat"])),
    "quadratic_hencky": ((_LAME, _YOUNG), (), lambda p: QuadraticHencky(_constants(p))),
    "neo_hooke_vol_iso": ((("mu", "kappa"), _LAME, _YOUNG), (), _neo_hooke_vol_iso),
    "neo_hooke_incompressible": ((_MU, _E), (), lambda p: NeoHookeIncompressible(_mu_of(p))),
    "quadratic_hencky_incompressible": ((_MU, _E), (),
                                        lambda p: QuadraticHenckyIncompressible(_mu_of(p))),
    "exp_hencky_incompressible": ((_MU, _E), ("k",),
                                  lambda p: ExponentiatedHenckyIncompressible(_mu_of(p), p["k"])),
}

MODEL_KINDS = tuple(_CATALOG)
# every parameter name of the table, in the order of first appearance
PARAMETER_NAMES = tuple(dict.fromkeys(
    name for sets, extras, _ in _CATALOG.values() for names in (*sets, extras) for name in names
))


def instantiate_model(kind: str, parameters: Mapping[str, float]) -> MaterialModel:
    """Build a validated catalog model from a kind name and a numeric map.

    The map holds exactly one of the kind's parameterizations in ``_CATALOG``
    (compressible kinds: (mu, lambda_lame) or (E, nu), the Neo-Hooke split
    also (mu, kappa); incompressible kinds: mu or E = 3 mu), the parameters
    the kind also needs (k and khat for exp_hencky, k for
    exp_hencky_incompressible) and nothing else.  Any other map, an unknown
    kind, a value that is not a real number (a bool or a numeric string is
    not) or one outside a model's constraints is a ConfigurationError.
    """
    if not isinstance(kind, str) or kind not in _CATALOG:
        raise ConfigurationError(f"unknown model kind '{kind}' (known: {', '.join(MODEL_KINDS)})")
    if not isinstance(parameters, Mapping):
        raise ConfigurationError(
            f"model '{kind}': parameters must map names to numbers, got {parameters!r}"
        )
    params = {}
    for name, value in parameters.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ConfigurationError(
                f"model '{kind}': parameter '{name}' must be a number, got {value!r}"
            )
        params[name] = float(value)
    sets, extras, build = _CATALOG[kind]
    given = [names for names in sets if params.keys() >= set(names)]
    if len(given) != 1:
        options = " or ".join(f"({', '.join(names)})" for names in sets)
        raise ConfigurationError(
            f"model '{kind}': give exactly one of {options}, got {sorted(params)}"
        )
    missing = [name for name in extras if name not in params]
    if missing:
        raise ConfigurationError(f"model '{kind}': missing parameter(s) {missing}")
    unknown = params.keys() - {*given[0], *extras}
    if unknown:
        raise ConfigurationError(f"model '{kind}': unknown parameter(s) {sorted(unknown)}")
    return build(params)


def _spd_log_stretches(B):
    """Eigen data of SPD B: log-stretches x = log(sqrt(eigenvalues)), frame."""
    d, Q = eig_sym(B)
    if np.any(d[..., -1] <= 0.0):
        raise DomainError("B must be positive definite")
    return 0.5 * np.log(d), Q


def cauchy_from_B(model, B) -> np.ndarray:
    """Cauchy stress tensor from the left Cauchy-Green tensor, by the spectral
    route.  Broadcasts over stacked (..., 3, 3) input.  Compressible only."""
    model.require(False, "its Cauchy stress needs a pressure")
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
