"""Numerical constitutive-stability checks.

Implemented conditions:

* positive definiteness of the symmetrized tangent of Cauchy stress with
  respect to logarithmic strain (``tsts_tangent``) -- the pointwise form of
  the corotational stability requirement;
* its restriction to the deviatoric subspace for incompressible models via
  the Kirchhoff extra stress (``hill_tangent``);
* two-point Hilbert monotonicity in Cauchy or Kirchhoff measure
  (``two_point_monotonicity``), the latter being Hill's inequality;
* ordered-force and tension-extension inequalities (``be_te_check``);
* the exact minimum of the energy's rank-one (Legendre-Hadamard) form over
  unit direction pairs, with a pair attaining it (``lh_ellipticity_probe``);
  a negative value witnesses a loss of strong ellipticity, a positive one
  proves strong ellipticity;
* a region scanner aggregating all of the above on a stretch grid
  (``region_scan``).

Tangents and margins are exact.  By Hill's principal-axis formula (Hill
1978, Adv. Appl. Mech. 18; Ogden, Non-linear Elastic Deformations, section
4) the tangent of the principal stress law s(x), x_i = log(lambda_i), with
respect to log V is block diagonal in the principal frame of V: a normal
block sym(G), G = ds/dx, and one shear scalar per axis pair,
(s_i - s_j) / (x_i - x_j), or its limit (G_ii - G_ij - G_ji + G_jj) / 2 at
coincident stretches (see ``_COINCIDENT``).  s is Cauchy stress for
compressible models, the extra Kirchhoff stress for incompressible ones.

``principal_block`` builds that block and every per-state margin from it,
batched; the tangents, ``be_te_check``, ``region_scan`` and the CLI
``check`` read it.  Its normal block is written in the orthonormal basis
(dev, dev, vol) = ((1, -1, 0)/sqrt 2, (1, 1, -2)/sqrt 6, (1, 1, 1)/sqrt 3).
Compressible models split ghat_grad = iso + v 1 and ghat_hess = iso + c 11^T,
so the volumetric term, up to twenty orders of magnitude larger than the
rest at large stretch, enters only the vol-vol entry, as 3 (c - v) / J; the
other entries, the shear scalars and the ordered-force products
(s_i - s_j)(lambda_i - lambda_j) come from ``iso`` differences, where it
cancels exactly.  The tension-extension margin min_i G_ii / lambda_i
includes it.  Incompressible models have only the (dev, dev) block.  The
rank-one minimum comes from the stretch derivatives of the energy
(``_rank_one_candidates``).  ``TangentMatrix6.matrix``, the block in lab
``basis6`` (incompressible: ``dev_basis5``) coordinates, is assembled only
for that attribute.  A condition holds when its margin exceeds -1e-9; a
violation is witnessed only below -1e-7.
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .materials import MaterialModel, StretchState, energy_and_derivatives
from .tensor3 import basis6, eig_sym, inner, logm_spd

__all__ = [
    "HOLD_MARGIN",
    "WITNESS_MARGIN",
    "PrincipalBlock",
    "ProbeResult",
    "StabilityReport",
    "TangentMatrix6",
    "be_te_check",
    "hill_tangent",
    "lh_ellipticity_probe",
    "principal_block",
    "region_scan",
    "tsts_tangent",
    "two_point_monotonicity",
]

HOLD_MARGIN = -1e-9
WITNESS_MARGIN = -1e-7

# A shear entry switches from the divided difference (s_i - s_j)/(x_i - x_j)
# to its centred limit when |x_i - x_j| <= _COINCIDENT.  Cancellation costs
# the divided difference about eps |s| / |x_i - x_j| (2e-10 of the stress
# scale at the threshold); the centred limit is off by O((x_i - x_j)^2) times
# the third derivative of s (2e-12 of it at the threshold).  The rank-one
# shear modulus A_ijij switches the same way (``_rank_one_candidates``).
_COINCIDENT = 1e-6

# the shear scalars are ordered like basis6 slots 3, 4, 5: pairs 12, 23, 31
_SHEAR_PAIRS = ((0, 1), (1, 2), (2, 0))
_PAIRS = ((0, 1), (0, 2), (1, 2))
_S2, _S3, _S6 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0)

# Sym(3) basis adapted to a principal frame: the (dev, dev, vol) diagonal
# tensors, then the shear elements of basis6
_FRAME = np.stack(
    [np.diag([1.0, -1.0, 0.0]) / _S2, np.diag([1.0, 1.0, -2.0]) / _S6, np.eye(3) / _S3]
    + list(basis6()[3:])
)
_DEV = [0, 1, 3, 4, 5]  # the trace-free elements of _FRAME


def dev_basis5():
    """Orthonormal basis of the trace-free subspace of Sym(3)."""
    return tuple(_FRAME[_DEV])


@dataclass(frozen=True)
class TangentMatrix6:
    """Symmetrized stress-strain tangent in an orthonormal tensor basis.
    ``matrix`` is 6x6 for the full space, 5x5 for the deviatoric subspace."""

    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def min_eigenvalue(self):
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class ProbeResult:
    value: float
    xi: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class PrincipalBlock:
    """The principal-frame tangent for stretch states (..., 3): the normal
    block in the (dev, dev, vol) basis (2x2 if incompressible) and the shear
    scalars of the pairs 12, 23, 31; and the margins it decides: ``csp``,
    the tangent's smallest eigenvalue, ``be`` (0 when no two stretches
    differ), ``te`` and the rank-one minimum ``lh`` (NaN if incompressible).
    """

    normal: np.ndarray
    shear: np.ndarray
    csp: np.ndarray
    be: np.ndarray
    te: np.ndarray
    lh: np.ndarray

    def witnessed(self):
        """Margin name -> where the state witnesses a violation (a margin
        below WITNESS_MARGIN; NaN never does), in the order csp, be, te, lh."""
        return {name: getattr(self, name) < WITNESS_MARGIN for name in ("csp", "be", "te", "lh")}


def _principal_reconstruct(principal_fn, Y):
    """Evaluate a principal-value stress law at log V = Y (stacked ok)."""
    x, Q = eig_sym(Y)
    vals = principal_fn(x)
    return np.einsum("...ik,...k,...jk->...ij", Q, vals, Q)


def _normal_components(v):
    """Components of v (..., 3) in the (dev, dev, vol) basis, written out
    so a state gives the same bits in any batch."""
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([(v0 - v1) / _S2, (v0 + v1 - 2.0 * v2) / _S6, (v0 + v1 + v2) / _S3], axis=-1)


def principal_block(model: MaterialModel, lams) -> PrincipalBlock:
    """The principal-frame tangent and margins at principal stretches
    ``lams`` (..., 3) (module docstring).  Incompressible models are
    evaluated at the unimodular state with the same stretch ratios."""
    lams = np.asarray(lams, dtype=float)
    x = np.log(lams)
    if model.incompressible:
        x = x - np.mean(x, axis=-1, keepdims=True)
        lams = np.exp(x)
        s, G = model.stress_jac(x)
    else:
        tau, v = model.ghat_grad_split(x)
        H, c = model.ghat_hess_split(x)
        inv_J = np.exp(-np.sum(x, axis=-1))
        # sigma and G less the volumetric terms, which cancel from differences
        s, G = tau * inv_J[..., None], H * inv_J[..., None, None]
    sym = 0.5 * (G + np.swapaxes(G, -1, -2))
    K = _normal_components(np.swapaxes(_normal_components(sym), -1, -2))  # U sym(G) U^T
    shear, be = [], np.full(x.shape[:-1], np.inf)
    for i, j in _SHEAR_PAIRS:
        ds, dx, dl = s[..., i] - s[..., j], x[..., i] - x[..., j], lams[..., i] - lams[..., j]
        near = np.abs(dx) <= _COINCIDENT
        limit = 0.5 * (G[..., i, i] - G[..., i, j] - G[..., j, i] + G[..., j, j])
        shear.append(np.where(near, limit, ds / np.where(near, 1.0, dx)))
        be = np.where(dl != 0.0, np.minimum(be, ds * dl), be)
    shear, be = np.stack(shear, axis=-1), np.where(be == np.inf, 0.0, be)  # 0: no pair differs
    if model.incompressible:
        normal = K[..., :2, :2]
        te = lh = np.full(x.shape[:-1], np.nan)
    else:
        # the full sym(G) adds -sym(s (x) 1) + (c - v) 11^T / J, the first
        # term to the (dev, vol) column and vol-vol, the second to vol-vol
        w = _normal_components(s)
        normal = K.copy()
        normal[..., 2, :2] = normal[..., :2, 2] = K[..., :2, 2] - 0.5 * _S3 * w[..., :2]
        normal[..., 2, 2] = K[..., 2, 2] - _S3 * w[..., 2] + 3.0 * (c - v) * inv_J
        g_diag = inv_J[..., None] * ((np.diagonal(H, axis1=-2, axis2=-1) + c[..., None])
                                     - (tau + v[..., None]))
        te = np.min(g_diag / lams, axis=-1)
        lh = np.min(_rank_one_candidates(model, lams)[0], axis=-1)
    csp = np.minimum(_normal_eigenvalues(normal, 1)[..., 0], np.min(shear, axis=-1))
    return PrincipalBlock(normal, shear, csp, be, te, lh)


def _normal_eigenvalues(N, k):
    """The k smallest eigenvalues of the normal block N, ascending.

    The (dev, dev) block has eigenvalues a_1 <= a_2 in closed form.  With a
    (dev, vol) column b and vol-vol entry d, the eigenvalues are the roots
    of the secular equation f(l) = d - l - sum_k beta_k^2 / (a_k - l), beta
    = b in the eigenvectors of a; f decreases between its poles a_k.  The
    roots interlace the a_k and lie within |b| of the sorted (a_1, a_2, d)
    (Weyl).  13 passes each cut the bracket (width <= 2 |b| at first) into
    16 parts, evaluate f at the inner points and keep the part holding the
    root: 52 bits leave an error of order eps max(|b|, |l|), however large d is.
    """
    p, q, r = N[..., 0, 0], N[..., 1, 1], N[..., 0, 1]
    mean, radius = 0.5 * (p + q), np.hypot(0.5 * (p - q), r)
    a = np.stack([mean - radius, mean + radius], axis=-1)
    if N.shape[-1] == 2:
        return a[..., :k]
    phi = 0.5 * np.arctan2(2.0 * r, p - q)  # a_2 has the eigenvector (cos phi, sin phi)
    b0, b1, d = N[..., 0, 2], N[..., 1, 2], N[..., 2, 2]
    cos, sin = np.cos(phi), np.sin(phi)
    beta1, beta2 = ((cos * b1 - sin * b0) ** 2)[..., None], ((cos * b0 + sin * b1) ** 2)[..., None]
    norm_b = np.hypot(b0, b1)[..., None]
    diag = np.sort(np.stack([a[..., 0], a[..., 1], d], axis=-1), axis=-1)
    inf = np.full(d.shape, np.inf)
    lo = np.maximum(diag - norm_b, np.stack([-inf, a[..., 0], a[..., 1]], axis=-1))[..., :k]
    hi = np.minimum(diag + norm_b, np.stack([a[..., 0], a[..., 1], inf], axis=-1))[..., :k]
    hi[..., 0] = diag[..., 0]  # l_1 <= min(a_1, d)
    a1, a2, d = a[..., :1], a[..., 1:], d[..., None]
    width = hi - lo
    parts = np.arange(1.0, 16.0).reshape((15,) + (1,) * lo.ndim)  # on a leading axis
    # the bracket is [lo, lo + width]; a point can land on a pole only
    # within an ulp of it, where the term is +-inf, or NaN when its beta is
    # 0, and either way the bracket keeps the root to that ulp
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(np.finfo(float).nmant // 4):
            width = width / 16.0
            mid = lo + width * parts
            ahead = d - mid > beta1 / (a1 - mid) + beta2 / (a2 - mid)  # f(mid) > 0
            lo = np.where(ahead, mid, lo).max(axis=0)
    return lo + 0.5 * width


def _tangent(model, V):
    """The block tangent at V.  ``matrix`` is the block rotated into the lab
    frame, in basis6 coordinates, or in dev_basis5 ones for incompressible
    models at unimodular V; only this attribute needs the rotation."""
    lams, Q = eig_sym(V)
    if np.any(lams <= 0.0):
        raise DomainError("log V requires a positive-definite tensor")
    log_det = float(np.sum(np.log(lams)))
    if model.incompressible and abs(log_det) > 1e-8:
        raise DomainError(f"hill_tangent needs det V = 1, got log det V = {log_det}")
    block = principal_block(model, lams)
    n = block.normal.shape[-1]
    frame = _FRAME if n == 3 else _FRAME[_DEV]
    lab = np.stack(basis6()) if n == 3 else frame
    R = np.einsum("aij,ik,bkl,jl->ab", lab, Q, frame, Q)  # <lab_a, Q frame_b Q^T>
    Rn, Rs = R[:, :n], R[:, n:]
    eigenvalues = np.sort(np.concatenate([_normal_eigenvalues(block.normal, n), block.shear]))
    return TangentMatrix6(Rn @ block.normal @ Rn.T + (Rs * block.shear) @ Rs.T, eigenvalues)


def tsts_tangent(model: MaterialModel, V) -> TangentMatrix6:
    """6x6 tangent of Cauchy stress with respect to log V at the state V.

    Positive definiteness of this (symmetrized) tangent at every V is the
    pointwise monotonicity condition whose two-point form is checked by
    ``two_point_monotonicity``.  Compressible models only; incompressible
    ones carry no pointwise Cauchy stress (see ``hill_tangent``).
    """
    if model.incompressible:
        raise UsageError(f"model '{model.kind}' is incompressible; use hill_tangent")
    return _tangent(model, V)


def hill_tangent(model: MaterialModel, V) -> TangentMatrix6:
    """5x5 deviatoric tangent of the Kirchhoff extra stress for incompressible
    models, at a unimodular V.  The pressure only ever contributes a multiple
    of the identity, so the deviatoric block is gauge-free; trace-free
    perturbations of log V stay on the det V = 1 manifold."""
    if not model.incompressible:
        raise UsageError(f"model '{model.kind}' is compressible; use tsts_tangent")
    return _tangent(model, V)


def two_point_monotonicity(model, V1, V2, measure="cauchy") -> float:
    """<stress(V1) - stress(V2), log V1 - log V2> for the chosen measure.

    The caller interprets the sign; positivity for all pairs is the two-point
    monotonicity condition (Cauchy measure) or Hill's inequality (Kirchhoff).
    Incompressible models support only the Kirchhoff measure on unimodular
    states, where the undetermined pressures cancel against the trace-free
    strain difference.
    """
    if measure not in ("cauchy", "kirchhoff"):
        raise UsageError(f"unknown stress measure '{measure}'")
    Y1, Y2 = logm_spd(V1), logm_spd(V2)
    if model.incompressible:
        if measure != "kirchhoff":
            raise UsageError(
                f"model '{model.kind}' is incompressible; only the kirchhoff "
                "measure is defined (up to pressure)"
            )
        for Y in (Y1, Y2):
            if abs(np.trace(Y)) > 1e-8:
                raise DomainError("incompressible monotonicity needs det V = 1 states")
        S1 = _principal_reconstruct(model.extra_tau, Y1)
        S2 = _principal_reconstruct(model.extra_tau, Y2)
        return float(inner(S1 - S2, Y1 - Y2))

    def stress(Y):
        sig = _principal_reconstruct(model.cauchy_principal, Y)
        if measure == "kirchhoff":
            return math.exp(np.trace(Y)) * sig
        return sig

    return float(inner(stress(Y1) - stress(Y2), Y1 - Y2))


@dataclass(frozen=True)
class BeTeResult:
    be_ok: bool
    te_ok: bool
    be_margin: float
    te_margin: float


def be_te_check(model, state: StretchState) -> BeTeResult:
    """Ordered-force and tension-extension margins at a stretch state.

    The ordered-force (Baker-Ericksen) margin is min over pairs with distinct
    stretches of (sigma_i - sigma_j)(lambda_i - lambda_j), and 0 when all
    three stretches are equal.  The tension-extension margin is
    min_i d sigma_i / d lambda_i = min_i G_ii / lambda_i with the other
    stretches held fixed and G = d sigma / d x the exact stress Jacobian.
    Both come from ``principal_block``.
    """
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; BE/TE need pointwise Cauchy stress"
        )
    block = principal_block(model, state.as_array())
    be, te = float(block.be), float(block.te)
    return BeTeResult(be > HOLD_MARGIN, te > HOLD_MARGIN, be, te)


# --- rank-one (Legendre-Hadamard) minimum ----------------------------------------

# Sign vectors s, up to an overall sign; the products s_i s_j run over the
# four sign triples (sigma_01, sigma_02, sigma_12) whose product is +1.
_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])


def _simplex_candidates(M):
    """Points of the unit simplex {v >= 0, sum v = 1} among which v^T M v
    attains its minimum, for symmetric M of shape (..., 3, 3): the vertices,
    the stationary point of each edge (clipped to it) and the interior
    stationary point, proportional to adj(M) 1, when it lies inside.  A
    minimum that is not isolated extends to the boundary of its face, so
    these seven points always contain one.  Shape (..., 7, 3)."""
    # the points do not depend on the scale of M; unit scale keeps adj(M) finite
    M = M / np.maximum(np.max(np.abs(M), axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
    eye = np.eye(3)
    points = [np.broadcast_to(eye[i], M.shape[:-1]) for i in range(3)]
    for i, j in _PAIRS:
        curv = M[..., i, i] - 2.0 * M[..., i, j] + M[..., j, j]
        convex = curv > 0.0
        t = np.where(convex, (M[..., i, i] - M[..., i, j]) / np.where(convex, curv, 1.0), 0.0)
        p = np.zeros(M.shape[:-1])
        p[..., j] = np.clip(t, 0.0, 1.0)
        p[..., i] = 1.0 - p[..., j]
        points.append(p)
    r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
    w = np.cross(r1, r2) + np.cross(r2, r0) + np.cross(r0, r1)  # adj(M) 1
    total = np.sum(w, axis=-1, keepdims=True)
    inside = np.all(w * total > 0.0, axis=-1, keepdims=True)
    points.append(np.where(inside, w / np.where(inside, total, 1.0), eye[0]))
    return np.stack(points, axis=-2)


def _rank_one_candidates(model, lams):
    """Candidate values of the rank-one form xi(x)eta : A : xi(x)eta,
    A = d2W/dFdF at F = diag(lams), whose least is the exact minimum over
    unit xi, eta; batched over stretches of shape (..., 3).  Returns the
    values (..., 31), for each sign vector s the seven simplex candidates v
    (``_simplex_candidates``) and then the axis pairs ``_PAIRS``, and the
    simplex points (..., 4, 7, 3).

    In the principal frame A has the entries A_iijj = W_ij,
    A_ijij = (lambda_i W_i - lambda_j W_j) / (lambda_i^2 - lambda_j^2) and
    A_ijji = A_ijij - (W_i + W_j) / (lambda_i + lambda_j), with the centred
    coincident limit A_ijij = (W_ii + W_jj - 2 W_ij + W_i / lambda_i +
    W_j / lambda_j) / 4 when |x_i - x_j| <= _COINCIDENT.  With u_i = xi_i
    eta_i the form is sum_i W_ii u_i^2 + sum_{i != j} c_ij u_i u_j +
    sum_{i != j} A_ijij xi_i^2 eta_j^2, c_ij = W_ij + A_ijji, and
    |xi|^2 |eta|^2 = sum_{i, j} xi_i^2 eta_j^2.  Minimizing over xi, eta
    with u fixed reduces strong ellipticity to copositivity of four 3x3
    matrices (Simpson & Spector 1983, ARMA 84): the minimum is the least of
    the A_ijij (attained by xi = e_i, eta = e_j) and, for each sign vector s,
    of v^T M_s v over the unit simplex, with M_s = W_ii on the diagonal and
    s_i s_j c_ij + A_ijij off it; a minimizing v gives xi_i = s_i sqrt(v_i),
    eta_i = sqrt(v_i).
    """
    lams = np.asarray(lams, dtype=float)
    shape = lams.shape[:-1]
    x = np.log(lams)
    _, W1, W2 = energy_and_derivatives(model, lams)
    shear = np.zeros(shape + (3, 3))  # A_ijij off the diagonal
    coupling = np.zeros(shape + (3, 3))  # c_ij off the diagonal
    for i, j in _PAIRS:
        li, lj = lams[..., i], lams[..., j]
        near = np.abs(x[..., i] - x[..., j]) <= _COINCIDENT
        limit = 0.25 * (W2[..., i, i] + W2[..., j, j] - 2.0 * W2[..., i, j]
                        + W1[..., i] / li + W1[..., j] / lj)
        quotient = (li * W1[..., i] - lj * W1[..., j]) / np.where(near, 1.0, li * li - lj * lj)
        a = np.where(near, limit, quotient)
        shear[..., i, j] = shear[..., j, i] = a
        coupling[..., i, j] = coupling[..., j, i] = (
            W2[..., i, j] + a - (W1[..., i] + W1[..., j]) / (li + lj)
        )
    diag = np.diagonal(W2, axis1=-2, axis2=-1)[..., None, :] * np.eye(3)
    signs = _SIGNS[:, :, None] * _SIGNS[:, None, :]
    M = (diag + shear)[..., None, :, :] + signs * coupling[..., None, :, :]  # (..., 4, 3, 3)
    v = _simplex_candidates(M)  # (..., 4, 7, 3)
    values = np.einsum("...ki,...ij,...kj->...k", v, M, v).reshape(shape + (28,))
    first, second = [0, 0, 1], [1, 2, 2]  # the axis pairs
    return np.concatenate([values, shear[..., first, second]], axis=-1), v


def lh_ellipticity_probe(model, state) -> ProbeResult:
    """Exact minimum of the rank-one second derivative of the energy,
    d2/ds2 W(F + s xi(x)eta) at s = 0, over unit vectors xi, eta, and a pair
    attaining it.  A negative value is a Legendre-Hadamard ellipticity
    witness; a positive one proves strong ellipticity at F.

    ``state`` is a StretchState, its three stretches, or a (3, 3) deformation
    gradient with det F > 0.  By isotropy the minimum at F = U diag(lambda)
    V^T is the one at diag(lambda) (``_rank_one_candidates``), with the
    witness rotated back to U xi, V eta.
    """
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; the rank-one minimum needs "
            "the unconstrained energy"
        )
    F = state.as_array() if isinstance(state, StretchState) else np.asarray(state, dtype=float)
    if F.shape == (3,):
        F = np.diag(F)
    if not np.linalg.det(F) > 0.0:
        raise DomainError("deformation gradient must have positive determinant")
    U, lams, Vt = np.linalg.svd(F)
    values, v = _rank_one_candidates(model, lams)
    k = int(np.argmin(values))
    if k < 28:  # a simplex point v of the sign vector s: xi = s sqrt(v), eta = sqrt(v)
        eta = np.sqrt(v.reshape(28, 3)[k])
        xi = _SIGNS[k // 7] * eta
    else:  # an axis pair xi = e_i, eta = e_j
        xi, eta = np.eye(3)[list(_PAIRS[k - 28])]
    return ProbeResult(value=float(values[k]), xi=U @ xi, eta=Vt.T @ eta)


# --- region scanner -------------------------------------------------------------

_SCAN_CSV_HEADER = (
    "i1,i2,i3,lambda1,lambda2,lambda3,csp_min_eig,be_margin,te_margin,"
    "lh_min_probe,tsts_m_plus_ok,hill_ok"
)


@dataclass
class StabilityReport:
    """Per-state stability margins on a stretch grid plus sampled two-point
    checks.  ``lh_min`` is the exact rank-one minimum (NaN for incompressible
    models).  Violation witnesses re-evaluate as violations when replayed."""

    model_kind: str
    parameters: dict
    grid: tuple
    seed: int
    indices: np.ndarray
    states: np.ndarray
    csp_min_eig: np.ndarray
    be_margin: np.ndarray
    te_margin: np.ndarray
    lh_min: np.ndarray
    tsts_m_plus_ok: np.ndarray
    hill_ok: np.ndarray
    pair_indices: np.ndarray
    violations: list = field(default_factory=list)

    def violation_count(self, check=None) -> int:
        if check is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v["check"] == check)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_SCAN_CSV_HEADER + "\n")
        for n in range(len(self.states)):
            row = [
                str(int(self.indices[n, 0])),
                str(int(self.indices[n, 1])),
                str(int(self.indices[n, 2])),
                repr(float(self.states[n, 0])),
                repr(float(self.states[n, 1])),
                repr(float(self.states[n, 2])),
                repr(float(self.csp_min_eig[n])),
                repr(float(self.be_margin[n])),
                repr(float(self.te_margin[n])),
                repr(float(self.lh_min[n])),
                str(int(self.tsts_m_plus_ok[n])),
                str(int(self.hill_ok[n])),
            ]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def to_json_summary(self) -> str:
        payload = {
            "model": self.model_kind,
            "parameters": self.parameters,
            "grid": list(self.grid),
            "seed": self.seed,
            "counts": {
                "states": int(len(self.states)),
                "pairs": int(len(self.pair_indices)),
                "violations": {
                    check: self.violation_count(check)
                    for check in ("csp", "be", "te", "lh", "tsts_m_plus", "hill")
                },
            },
            "violations": self.violations,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _grid_states(grid):
    lo, hi, n = grid
    axis = np.linspace(float(lo), float(hi), int(n))
    idx = np.stack(np.meshgrid(*(np.arange(int(n)),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    states = axis[idx]
    return idx, states


def region_scan(model, grid=(0.5, 3.0, 11), seed=0, pairs=128) -> StabilityReport:
    """Evaluate every stability check on a cubic stretch grid.

    Per state: tangent minimum eigenvalue (Cauchy tangent for compressible
    models, deviatoric extra-stress tangent for incompressible ones), BE/TE
    margins and, for compressible models, the exact rank-one minimum of
    ``lh_ellipticity_probe`` (NaN for incompressible ones).  Pairwise:
    ``pairs`` seeded random state pairs checked for two-point monotonicity in
    the Cauchy measure and, on det-normalized states, the Kirchhoff measure.
    Deterministic for a fixed grid and seed.
    """
    lo, hi, n = grid
    if not (math.isfinite(lo) and math.isfinite(hi) and min(lo, hi) > 0.0):
        raise ConfigurationError(f"scan grid needs finite stretches > 0, got {lo}:{hi}")
    if int(n) < 1:
        raise ConfigurationError(f"scan grid needs at least 1 point per axis, got {n}")
    if pairs < 0:
        raise ConfigurationError(f"scan needs pairs >= 0, got {pairs}")
    idx, states = _grid_states(grid)
    n_states = len(states)
    x = np.log(states)
    incomp = model.incompressible
    block = principal_block(model, states)  # grid states are diagonal

    # sampled two-point checks
    rng = np.random.default_rng(seed)
    n_pairs = min(pairs, n_states * (n_states - 1) // 2)
    pair_idx = np.empty((n_pairs, 2), dtype=int)
    k = 0
    while k < n_pairs:
        a, b = rng.integers(0, n_states, size=2)
        if a != b:
            pair_idx[k] = (a, b)
            k += 1
    xu = x - np.mean(x, axis=-1, keepdims=True)
    tau_u = model.extra_tau(xu) if incomp else model.ghat_grad(xu)
    hill_vals = np.sum(
        (tau_u[pair_idx[:, 0]] - tau_u[pair_idx[:, 1]]) * (xu[pair_idx[:, 0]] - xu[pair_idx[:, 1]]),
        axis=-1,
    )
    if incomp:
        tsts_vals = hill_vals.copy()
    else:
        sig = model.cauchy_principal(x)
        tsts_vals = np.sum(
            (sig[pair_idx[:, 0]] - sig[pair_idx[:, 1]]) * (x[pair_idx[:, 0]] - x[pair_idx[:, 1]]),
            axis=-1,
        )

    tsts_ok = np.ones(n_states, dtype=bool)
    hill_ok = np.ones(n_states, dtype=bool)
    violations = []
    witnessed = block.witnessed()
    for n in np.flatnonzero(np.any(list(witnessed.values()), axis=0)):
        st = [float(v) for v in states[n]]
        for check, bad in witnessed.items():
            if bad[n]:
                margin = float(getattr(block, check)[n])
                violations.append({"check": check, "state": st, "margin": margin})
    for k in range(n_pairs):
        a, b = pair_idx[k]
        for check, vals, ok in (("tsts_m_plus", tsts_vals, tsts_ok), ("hill", hill_vals, hill_ok)):
            if vals[k] < WITNESS_MARGIN:
                ok[a] = ok[b] = False
                violations.append(
                    {
                        "check": check,
                        "state": [float(v) for v in states[a]],
                        "state2": [float(v) for v in states[b]],
                        "margin": float(vals[k]),
                    }
                )

    return StabilityReport(
        model_kind=model.kind,
        parameters=model.parameters(),
        grid=(float(grid[0]), float(grid[1]), int(grid[2])),
        seed=int(seed),
        indices=idx,
        states=states,
        csp_min_eig=block.csp,
        be_margin=block.be,
        te_margin=block.te,
        lh_min=block.lh,
        tsts_m_plus_ok=tsts_ok,
        hill_ok=hill_ok,
        pair_indices=pair_idx,
        violations=violations,
    )
