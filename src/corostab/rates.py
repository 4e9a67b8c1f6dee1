"""Kinematics of homogeneous motions and the rate identities of ``rate-verify``.

A MotionSample carries (F, Fdot, Fddot) at one instant; every rate or
second-derivative identity evaluated here depends on the motion only through
those three tensors, so nearby times are reconstructed by second-order Taylor
expansion without loss.  For diagonal motions the spin vanishes and every
corotational rate collapses to the material time derivative, which is what
makes the principal-stress rate form checkable.

The three tensors may be stacked, shape (..., 3, 3).  The identities
broadcast over the stack and return one value per motion (0-d for a single
motion), so a batch of motions costs one pass over each identity.

Energy-based quantities (first Piola stress, rank-two derivative along the
velocity) are obtained by finite differences on the energy in matrix
directions, deliberately independent of the analytic stress formulas they are
tested against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, UsageError
from .materials import MaterialModel, cauchy_from_B, energy_from_F
from .tensor3 import sym

__all__ = [
    "MotionSample",
    "cauchy_of_F",
    "csp_rate_form",
    "energy_second_time_derivative",
    "first_piola_fd",
    "power_identity",
    "second_order_work_identity",
]

_HT = 1e-6  # time step for first-order stress rates (with one Richardson level)


def _frobenius(A):
    return np.linalg.norm(A, axis=(-2, -1))


def _contract(A, B):
    """<A, B> over the last two axes."""
    return np.sum(A * B, axis=(-2, -1))


@dataclass(frozen=True)
class MotionSample:
    """Deformation gradient and its first two time derivatives at an instant,
    for one motion (3, 3) or a stack of motions (..., 3, 3) of equal shape."""

    F: np.ndarray
    Fdot: np.ndarray
    Fddot: np.ndarray

    def __post_init__(self):
        for name in ("F", "Fdot", "Fddot"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[-2:] != (3, 3) or not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} must be a finite (..., 3, 3) tensor stack")
            object.__setattr__(self, name, arr)
        if not self.F.shape == self.Fdot.shape == self.Fddot.shape:
            raise InvalidInputError(
                f"F, Fdot and Fddot must have one shape, got {self.F.shape}, "
                f"{self.Fdot.shape} and {self.Fddot.shape}"
            )
        if np.any(np.linalg.det(self.F) <= 0.0):
            raise DomainError("motion requires det F > 0")

    @property
    def J(self):
        return np.linalg.det(self.F)

    @property
    def L(self):
        return self.Fdot @ np.linalg.inv(self.F)

    @property
    def D(self):
        return sym(self.L)

    @property
    def is_diagonal(self):
        """True when every motion of the stack is diagonal."""
        def peak(A):
            return np.max(np.abs(A), axis=(-2, -1))

        scale = np.maximum(1.0, np.maximum(peak(self.F), peak(self.Fdot)))
        off = sum(peak(A - A * np.eye(3)) for A in (self.F, self.Fdot, self.Fddot))
        return bool(np.all(off <= 1e-12 * scale))

    def F_at(self, s):
        """Second-order Taylor reconstruction of F(t + s); ``s`` broadcasts
        against the stack shape."""
        s = np.asarray(s, dtype=float)[..., None, None]
        return self.F + s * self.Fdot + 0.5 * s * s * self.Fddot


def cauchy_of_F(model: MaterialModel, F):
    F = np.asarray(F, dtype=float)
    return cauchy_from_B(model, F @ np.swapaxes(F, -1, -2))


def _dt_richardson(f, h=_HT):
    """d/ds f(s) at s = 0, central differences at h and h/2 combined."""
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _fd5_steps(h):
    """Steps -2h, -h, 0, h, 2h on a new leading axis, for a step h per motion."""
    return np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).reshape((5,) + (1,) * np.ndim(h)) * h


def _fd5(W, h):
    """5-point second derivative at 0 from the values at ``_fd5_steps(h)``."""
    return (-W[0] + 16 * W[1] - 30 * W[2] + 16 * W[3] - W[4]) / (12.0 * h * h)


# the refusal of every rate identity for an incompressible model
_NEEDS_STRESS = "rate identities need the pointwise stress, which requires a pressure history"


def csp_rate_form(model: MaterialModel, motion: MotionSample):
    """Both routes to <d sigma / dt, D> for a diagonal motion.

    lhs differentiates the principal Cauchy stresses in time by central
    differences along the (Taylor-reconstructed) stretch path; rhs applies the
    chain rule through the model's exact stress Jacobian (``stress_jac``) and
    sums d_t[sigma_i] * lamdot_i / lam_i.  Returns (lhs, rhs, |lhs - rhs|).
    """
    model.require(False, _NEEDS_STRESS)
    if not motion.is_diagonal:
        raise UsageError("the principal rate form needs a diagonal motion")
    lam, lamd, lamdd = (
        np.diagonal(A, axis1=-2, axis2=-1) for A in (motion.F, motion.Fdot, motion.Fddot)
    )
    rate = lamd / lam

    def sigma_p(s):
        lam_s = lam + s * lamd + 0.5 * s * s * lamdd
        return model.cauchy_principal(np.log(lam_s))

    sig_dot = _dt_richardson(sigma_p)
    lhs = np.sum(sig_dot * rate, axis=-1)

    # chain rule: d sigma_i / d lam_j = G_ij / lam_j, G = d sigma / d log(lam)
    dsig_dlam = model.stress_jac(np.log(lam))[1] / lam[..., None, :]
    sig_dot_chain = np.einsum("...ij,...j->...i", dsig_dlam, lamd)
    rhs = np.sum(sig_dot_chain * rate, axis=-1)
    return lhs, rhs, np.abs(lhs - rhs)


def first_piola_fd(model: MaterialModel, F):
    """First Piola stress D_F W by central differences on the energy in the
    nine matrix directions (one Richardson level)."""
    model.require(False, _NEEDS_STRESS)
    F = np.asarray(F, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.max(np.abs(F), axis=(-2, -1)))[..., None]
    steps = h * np.array([1.0, -1.0, 0.5, -0.5])
    units = np.eye(9).reshape(9, 1, 3, 3)
    # (..., 9, 4, 3, 3): F moved by each step along each matrix direction
    pert = F[..., None, None, :, :] + steps[..., None, :, None, None] * units
    W = energy_from_F(model, pert)
    d1 = (W[..., 0] - W[..., 1]) / (2.0 * h)
    d2 = (W[..., 2] - W[..., 3]) / h
    return ((4.0 * d2 - d1) / 3.0).reshape(F.shape)


def _d2_along(model, F, X):
    """5-point second derivative of s -> W(F + s X) at s = 0."""
    h = 1e-3 * (1.0 + _frobenius(F)) / np.maximum(1.0, _frobenius(X))
    W = energy_from_F(model, F + _fd5_steps(h)[..., None, None] * X)
    return _fd5(W, h)


def power_identity(model: MaterialModel, motion: MotionSample):
    """<S1, Fdot> against J <sigma, D>; returns (lhs, rhs, |lhs - rhs|)."""
    model.require(False, _NEEDS_STRESS)
    S1 = first_piola_fd(model, motion.F)
    lhs = _contract(S1, motion.Fdot)
    sig = cauchy_of_F(model, motion.F)
    rhs = motion.J * _contract(sig, motion.D)
    return lhs, rhs, np.abs(lhs - rhs)


def second_order_work_identity(model: MaterialModel, motion: MotionSample):
    """Referential and spatial forms of the second time derivative of the
    energy density (per unit reference volume) for a homogeneous motion.

    referential = D^2 W(F).(Fdot, Fdot) + <S1, Fddot>, both factors by finite
    differences on the energy; spatial = J (<sigma_dot, D> + <sigma, Ddot> +
    <sigma, D> tr D) with sigma from the constitutive law and sigma_dot by
    time differencing.  Returns (referential, spatial, |difference|).
    """
    model.require(False, _NEEDS_STRESS)
    F = motion.F
    ref = _d2_along(model, F, motion.Fdot) + _contract(first_piola_fd(model, F), motion.Fddot)

    Finv = np.linalg.inv(F)
    L = motion.Fdot @ Finv
    D = sym(L)
    Ddot = sym(motion.Fddot @ Finv - L @ L)
    sig = cauchy_of_F(model, F)

    sig_dot = _dt_richardson(lambda s: cauchy_of_F(model, motion.F_at(s)))
    trD = np.trace(D, axis1=-2, axis2=-1)
    spatial = motion.J * (_contract(sig_dot, D) + _contract(sig, Ddot) + _contract(sig, D) * trD)
    return ref, spatial, np.abs(ref - spatial)


def energy_second_time_derivative(model: MaterialModel, motion: MotionSample):
    """Direct 5-point second derivative of t -> W(F(t)) on the Taylor path;
    independent oracle for both routes of second_order_work_identity."""
    model.require(False, _NEEDS_STRESS)
    rate = np.maximum(1.0, _frobenius(motion.Fdot) + _frobenius(motion.Fddot))
    h = 1e-3 * (1.0 + _frobenius(motion.F)) / rate
    W = energy_from_F(model, motion.F_at(_fd5_steps(h)))
    return _fd5(W, h)
