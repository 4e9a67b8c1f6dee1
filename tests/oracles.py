"""Test-side reference implementations, written with numpy alone.

They share no code with the package except the model kernels they are
handed (and the MotionSample container that `motion_from_stretch_path`
fills, and the error class `logm_spd` raises), so the package can be checked
against them.
"""

from typing import NamedTuple

import numpy as np

from corostab.errors import DomainError
from corostab.rates import MotionSample

PAIRS = ((0, 1), (0, 2), (1, 2))


def expm_sym(A):
    """Matrix exponential of a symmetric tensor (stacked ok)."""
    d, Q = np.linalg.eigh(A)
    return np.einsum("...ik,...k,...jk->...ij", Q, np.exp(d), Q)


def sqrtm_spd(A):
    """Principal square root of a symmetric positive-definite tensor."""
    d, Q = np.linalg.eigh(A)
    assert np.all(d > 0.0)
    return np.einsum("...ik,...k,...jk->...ij", Q, np.sqrt(d), Q)


def inner(A, B):
    """Frobenius inner product over the last two axes."""
    return np.sum(np.asarray(A, dtype=float) * np.asarray(B, dtype=float), axis=(-2, -1))


def norm(A):
    return np.sqrt(inner(A, A))


def logm_spd(A):
    """Matrix logarithm of a symmetric positive-definite tensor (stacked ok)."""
    d, Q = np.linalg.eigh(A)
    if np.any(d <= 0.0):
        raise DomainError("log requires a positive-definite tensor")
    return np.einsum("...ik,...k,...jk->...ij", Q, np.log(d), Q)


def vec6(A):
    """Components (11, 22, 33, 12, 23, 31) of a symmetric tensor, sqrt(2) on
    the off-diagonal ones so that <A, B> = vec6(A) . vec6(B)."""
    A = np.asarray(A, dtype=float)
    s = np.sqrt(2.0)
    return np.stack([A[..., 0, 0], A[..., 1, 1], A[..., 2, 2],
                     s * A[..., 0, 1], s * A[..., 1, 2], s * A[..., 2, 0]], axis=-1)


def lab_frame_two_point(law, V1, V2):
    """<S(V1) - S(V2), log V1 - log V2> with S(V) = Q diag(law(log d)) Q^T and
    log V built as tensors in the lab frame, for V = Q diag(d) Q^T."""
    def stress(V):
        d, Q = np.linalg.eigh(V)
        return np.einsum("ik,k,jk->ij", Q, law(np.log(d)), Q)

    return float(inner(stress(V1) - stress(V2), logm_spd(V1) - logm_spd(V2)))


class StressState(NamedTuple):
    cauchy: np.ndarray
    kirchhoff: np.ndarray
    biot: np.ndarray
    energy: float


def principal_stresses(model, state, pressure=None):
    """Principal Cauchy, Kirchhoff and Biot stresses and the energy at a
    StretchState: tau = ghat_grad for compressible models, tau = -pressure
    plus the extra stress at J = 1 for incompressible ones."""
    lams = state.as_array()
    x = np.log(lams)
    if model.incompressible:
        tau, J = model.extra_tau(x) - pressure, 1.0
    else:
        tau, J = model.kirchhoff_principal(x), state.J
    return StressState(tau / J, tau, tau / lams, float(model.energy(lams)))


def motion_from_stretch_path(paths, t):
    """Diagonal motion from three per-axis stretch paths, each given as a
    (value, first derivative, second derivative) triple of callables of t."""
    F, Fdot, Fddot = (np.diag([float(p[k](t)) for p in paths]) for k in range(3))
    return MotionSample(F=F, Fdot=Fdot, Fddot=Fddot)


def kirchhoff_extra_from_B(model, B):
    """Extra Kirchhoff stress tensor of an incompressible model at the left
    Cauchy-Green tensor B, by the spectral route; no pressure part."""
    d, Q = np.linalg.eigh(B)
    t = model.extra_tau(0.5 * np.log(d))
    return np.einsum("...ik,...k,...jk->...ij", Q, t, Q)


def stretch_derivatives(model, lams):
    """First and second derivatives W_i, W_ij of the energy with respect to
    the principal stretches lams, from the log-space gradient g and Hessian H
    of ghat: W_i = g_i / lambda_i, W_ij = (H_ij - delta_ij g_i) /
    (lambda_i lambda_j)."""
    lams = np.asarray(lams, dtype=float)
    x = np.log(lams)
    g = model.ghat_grad(x)
    return g / lams, (model.ghat_hess(x) - np.diag(g)) / np.outer(lams, lams)


def principal_axis_tensor(W1, W2, lam):
    """Ogden's principal-axis elasticity tensor A_{i a j b} = d2W / dF_ia dF_jb
    at F = diag(lam), as a (3, 3, 3, 3) array, from the stretch derivatives
    W1_i = dW/dlambda_i and W2_ij = d2W/dlambda_i dlambda_j."""
    A = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            A[i, i, j, j] = W2[i, j]
            if i == j:
                continue
            if lam[i] == lam[j]:
                # coincident limits of the two quotients below
                A[i, j, i, j] = 0.5 * (W2[i, i] - W2[i, j] + W1[i] / lam[i])
                A[i, j, j, i] = 0.5 * (W2[i, i] - W2[i, j] - W1[i] / lam[i])
            else:
                d = lam[i] ** 2 - lam[j] ** 2
                A[i, j, i, j] = (lam[i] * W1[i] - lam[j] * W1[j]) / d
                A[i, j, j, i] = (lam[j] * W1[i] - lam[i] * W1[j]) / d
    return A


def quadratic_hencky_rank_one_form(E, nu, lam):
    """Principal-axis elasticity tensor of the quadratic Hencky energy
    W = mu sum x_i^2 + lambda/2 (sum x_i)^2, x_i = log lambda_i, at
    F = diag(lam).

    Written from the energy alone: it shares nothing with the package's
    tangents or its rank-one minimum."""
    mu = E / (2.0 * (1.0 + nu))
    lame = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    lam = np.asarray(lam, dtype=float)
    x = np.log(lam)
    g = 2.0 * mu * x + lame * np.sum(x)                  # d ghat / d x_i
    W1 = g / lam                                         # dW / d lambda_i
    W2 = (2.0 * mu * np.eye(3) + lame - np.diag(g)) / np.outer(lam, lam)
    return principal_axis_tensor(W1, W2, lam)


def rank_one_form(A, xi, eta):
    """xi(x)eta : A : xi(x)eta."""
    return float(np.einsum("iajb,i,a,j,b->", A, xi, eta, xi, eta))


def acoustic_min(A, eta):
    """Smallest eigenvalue of the acoustic tensor Q(eta)_ij = A_iajb eta_a eta_b
    for a batch of unit vectors eta, i.e. the minimum over unit xi of the
    rank-one form xi x eta : A : xi x eta."""
    Q = np.einsum("iajb,na,nb->nij", A, eta, eta)
    return np.linalg.eigvalsh(Q)[:, 0]


def _octant(n):
    t = np.linspace(0.0, 0.5 * np.pi, n)
    th, ph = np.meshgrid(t, t, indexing="ij")
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1).reshape(-1, 3)


def dense_rank_one_search(A, n=121):
    """Least acoustic-tensor eigenvalue over an n x n angle grid of the
    positive octant of the sphere, which sign flips of eta reduce the sphere
    to.  An upper bound on the rank-one minimum, close to it for a fine
    grid."""
    return float(np.min(acoustic_min(A, _octant(n))))


def hadeler_copositive(M):
    """Hadeler's (1983) closed-form test that a symmetric 3x3 matrix is
    copositive."""
    d = np.diag(M)
    if np.any(d < 0.0):
        return False
    r = np.sqrt(d)
    p = [M[i, j] + r[i] * r[j] for i, j in PAIRS]
    if min(p) < 0.0:
        return False
    return bool(
        r[0] * r[1] * r[2] + M[0, 1] * r[2] + M[0, 2] * r[1] + M[1, 2] * r[0]
        + np.sqrt(2.0 * p[0] * p[1] * p[2]) >= 0.0
    )


def strongly_elliptic_above(A, mu):
    """Whether xi(x)eta : A : xi(x)eta >= mu |xi|^2 |eta|^2 for all xi, eta,
    for a principal-axis tensor A: positive shifted axis moduli and Hadeler
    copositivity of the four Simpson-Spector matrices, one per sign triple
    with product +1."""
    d = np.array([A[i, i, i, i] for i in range(3)]) - mu
    a = np.einsum("ijij->ij", A) - mu
    if np.any(d <= 0.0) or any(min(a[i, j], a[j, i]) <= 0.0 for i, j in PAIRS):
        return False
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        M = np.diag(d)
        for (i, j), s in zip(PAIRS, signs):
            M[i, j] = M[j, i] = s * (A[i, i, j, j] + A[i, j, j, i]) + np.sqrt(a[i, j] * a[j, i])
        if not hadeler_copositive(M):
            return False
    return True
