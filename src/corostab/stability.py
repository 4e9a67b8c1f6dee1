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

Tangents and margins are exact.  They come from the model's principal
stress law s(x), x_i = log(lambda_i), and its Jacobian G = ds/dx
(``MaterialModel.stress_jac``; s is Cauchy stress for compressible models,
the extra Kirchhoff stress for incompressible ones).  Hill's principal-axis
formula (Hill 1978, Adv. Appl. Mech. 18; Ogden, Non-linear Elastic
Deformations, section 4) gives the tangent of s with respect to log V in the
principal frame of V, in the orthonormal basis (11, 22, 33, 12, 23, 31) of
``basis6``, as a block-diagonal matrix:

* the normal block sym(G); G itself need not be symmetric (for Cauchy stress
  G = J^-1 (H - tau (x) 1)) and only its symmetric part enters the
  quadratic form;
* one shear entry per axis pair, (s_i - s_j) / (x_i - x_j), replaced at
  coincident stretches by its limit (G_ii - G_ij - G_ji + G_jj) / 2, which
  is G_ii - G_ij there (see ``_COINCIDENT``).

``TangentMatrix6.matrix`` is that block matrix rotated into the lab
``basis6`` frame; for incompressible models it is restricted to the
trace-free subspace spanned by ``dev_basis5``.  The ordered-force margin
is the minimum over pairs with distinct stretches of
(s_i - s_j)(lambda_i - lambda_j), from one batched function for every
caller.  The tension-extension margin is
min_i d sigma_i / d lambda_i = min_i G_ii / lambda_i.  The rank-one minimum
comes from the stretch derivatives W_i, W_ij of the energy
(``energy_and_derivatives``, the same ghat_grad and ghat_hess) through a
closed-form copositivity reduction, without a search over directions (see
``_rank_one_minimum``).  A condition counts as holding when its margin
exceeds -1e-9; a violation is witnessed only below -1e-7.
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError
from .materials import MaterialModel, StretchState, energy_and_derivatives, principal_stresses
from .tensor3 import basis6, eig_sym, inner, logm_spd, vec6

__all__ = [
    "HOLD_MARGIN",
    "WITNESS_MARGIN",
    "ProbeResult",
    "StabilityReport",
    "TangentMatrix6",
    "be_te_check",
    "hill_tangent",
    "lh_ellipticity_probe",
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
# shear modulus A_ijij switches the same way (``_rank_one_minimum``).
_COINCIDENT = 1e-6

# basis6 slots 3, 4, 5 hold the shear pairs 12, 23, 31
_SHEAR_PAIRS = ((0, 1), (1, 2), (2, 0))
_PAIRS = ((0, 1), (0, 2), (1, 2))


def dev_basis5():
    """Orthonormal basis of the trace-free subspace of Sym(3)."""
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    d1 = np.diag([1.0, -1.0, 0.0]) / s2
    d2 = np.diag([1.0, 1.0, -2.0]) / s6
    off = basis6()[3:]
    return (d1, d2) + tuple(off)


# columns: basis6 coordinates of the dev_basis5 elements
_DEV5 = np.stack([vec6(E) for E in dev_basis5()], axis=-1)


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


def _principal_reconstruct(principal_fn, Y):
    """Evaluate a principal-value stress law at log V = Y (stacked ok)."""
    x, Q = eig_sym(Y)
    vals = principal_fn(x)
    return np.einsum("...ik,...k,...jk->...ij", Q, vals, Q)


def _rotation6(Q):
    """basis6 coordinates in the frame with columns Q -> lab basis6
    coordinates, as a (..., 6, 6) orthogonal matrix."""
    B = np.stack(basis6())
    return np.swapaxes(vec6(np.einsum("...ik,bkl,...jl->...bij", Q, B, Q)), -1, -2)


def _log_tangent(s, G, x, frame=None, deviatoric=False):
    """Symmetrized tangent of the principal stress law s(x) with Jacobian G
    with respect to log V, by Hill's principal-axis formula (module
    docstring); batched over the leading axes of x (..., 3).

    The result is in principal-frame basis6 coordinates, or in lab basis6
    coordinates when ``frame`` holds the eigenvector columns of V;
    ``deviatoric`` restricts it to dev_basis5 coordinates, (..., 5, 5).
    """
    M = np.zeros(x.shape[:-1] + (6, 6))
    M[..., :3, :3] = 0.5 * (G + np.swapaxes(G, -1, -2))
    for k, (i, j) in enumerate(_SHEAR_PAIRS, start=3):
        dx = x[..., i] - x[..., j]
        near = np.abs(dx) <= _COINCIDENT
        limit = 0.5 * (G[..., i, i] - G[..., i, j] - G[..., j, i] + G[..., j, j])
        M[..., k, k] = np.where(near, limit, (s[..., i] - s[..., j]) / np.where(near, 1.0, dx))
    if frame is not None:
        R = _rotation6(frame)
        M = R @ M @ np.swapaxes(R, -1, -2)
    if deviatoric:
        M = _DEV5.T @ M @ _DEV5
    return M


def _be_margin(s, lams):
    """Ordered-force (Baker-Ericksen) margin, the minimum over pairs with
    distinct stretches of (s_i - s_j)(lambda_i - lambda_j), 0 when every pair
    is vacuous; batched over leading axes."""
    margin = np.zeros(lams.shape[:-1])
    seen = np.zeros(lams.shape[:-1], dtype=bool)
    for i, j in _PAIRS:
        distinct = lams[..., i] != lams[..., j]
        v = (s[..., i] - s[..., j]) * (lams[..., i] - lams[..., j])
        margin = np.where(distinct & (~seen | (v < margin)), v, margin)
        seen = seen | distinct
    return margin


def _te_margin(G, lams):
    """Tension-extension margin min_i d sigma_i / d lambda_i with the other
    stretches held, = min_i G_ii / lambda_i; batched over leading axes."""
    return np.min(np.diagonal(G, axis1=-2, axis2=-1) / lams, axis=-1)


def _log_frame(V):
    """Log-stretches and eigenvector frame of a positive-definite V."""
    d, Q = eig_sym(V)
    if np.any(d[..., -1] <= 0.0):
        raise DomainError("log V requires a positive-definite tensor")
    return np.log(d), Q


def tsts_tangent(model: MaterialModel, V) -> TangentMatrix6:
    """6x6 tangent of Cauchy stress with respect to log V at the state V.

    Positive definiteness of this (symmetrized) tangent at every V is the
    pointwise monotonicity condition whose two-point form is checked by
    ``two_point_monotonicity``.  Compressible models only; incompressible
    ones carry no pointwise Cauchy stress (see ``hill_tangent``).
    """
    if model.incompressible:
        raise UsageError(f"model '{model.kind}' is incompressible; use hill_tangent")
    x, Q = _log_frame(V)
    M = _log_tangent(*model.stress_jac(x), x, frame=Q)
    return TangentMatrix6(M, np.linalg.eigvalsh(M))


def hill_tangent(model: MaterialModel, V) -> TangentMatrix6:
    """5x5 deviatoric tangent of the Kirchhoff extra stress for incompressible
    models, at a unimodular V.  The pressure only ever contributes a multiple
    of the identity, so the deviatoric block is gauge-free; trace-free
    perturbations of log V stay on the det V = 1 manifold."""
    if not model.incompressible:
        raise UsageError(f"model '{model.kind}' is compressible; use tsts_tangent")
    x, Q = _log_frame(V)
    t = float(np.sum(x))
    if abs(t) > 1e-8:
        raise DomainError(f"hill_tangent needs det V = 1, got log det V = {t}")
    x = x - t / 3.0
    M = _log_tangent(*model.stress_jac(x), x, frame=Q, deviatoric=True)
    return TangentMatrix6(M, np.linalg.eigvalsh(M))


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
    """
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; BE/TE need pointwise Cauchy stress"
        )
    lams = state.as_array()
    be_margin = float(_be_margin(principal_stresses(model, state).cauchy, lams))
    te_margin = float(_te_margin(model.stress_jac(state.log())[1], lams))
    return BeTeResult(
        be_ok=be_margin > HOLD_MARGIN,
        te_ok=te_margin > HOLD_MARGIN,
        be_margin=be_margin,
        te_margin=te_margin,
    )


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


def _rank_one_minimum(model, lams):
    """Exact minimum over unit xi, eta of the rank-one form
    xi(x)eta : A : xi(x)eta, A = d2W/dFdF at F = diag(lams), and a pair
    (xi, eta) attaining it; batched over stretches of shape (..., 3).

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
    eta = np.sqrt(v)
    xi = (_SIGNS[:, None, :] * eta).reshape(shape + (28, 3))
    eta = eta.reshape(shape + (28, 3))
    # the axis pairs xi = e_i, eta = e_j
    first, second = [0, 0, 1], [1, 2, 2]
    values = np.concatenate([values, shear[..., first, second]], axis=-1)
    xi = np.concatenate([xi, np.broadcast_to(np.eye(3)[first], shape + (3, 3))], axis=-2)
    eta = np.concatenate([eta, np.broadcast_to(np.eye(3)[second], shape + (3, 3))], axis=-2)
    k = np.argmin(values, axis=-1)[..., None]
    return (
        np.take_along_axis(values, k, axis=-1)[..., 0],
        np.take_along_axis(xi, k[..., None], axis=-2)[..., 0, :],
        np.take_along_axis(eta, k[..., None], axis=-2)[..., 0, :],
    )


def lh_ellipticity_probe(model, state) -> ProbeResult:
    """Exact minimum of the rank-one second derivative of the energy,
    d2/ds2 W(F + s xi(x)eta) at s = 0, over unit vectors xi, eta, and a pair
    attaining it.  A negative value is a Legendre-Hadamard ellipticity
    witness; a positive one proves strong ellipticity at F.

    ``state`` is a StretchState, its three stretches, or a (3, 3) deformation
    gradient with det F > 0.  By isotropy the minimum at F = U diag(lambda)
    V^T is the one at diag(lambda) (``_rank_one_minimum``), with the witness
    rotated back to U xi, V eta.
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
    value, xi, eta = _rank_one_minimum(model, lams)
    return ProbeResult(value=float(value), xi=U @ xi, eta=Vt.T @ eta)


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

    # grid states are diagonal: the principal frame is the lab frame
    if incomp:
        xdev = x - np.mean(x, axis=-1, keepdims=True)
        sig, G = model.stress_jac(xdev)  # pressure-free differences only
        csp_min = np.linalg.eigvalsh(_log_tangent(sig, G, xdev, deviatoric=True))[:, 0]
        be = _be_margin(sig, np.exp(xdev))
        te = np.full(n_states, np.nan)
        lh = np.full(n_states, np.nan)
    else:
        sig, G = model.stress_jac(x)
        csp_min = np.linalg.eigvalsh(_log_tangent(sig, G, x))[:, 0]
        be = _be_margin(sig, states)
        te = _te_margin(G, states)
        lh = _rank_one_minimum(model, states)[0]

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
        tsts_vals = np.sum(
            (sig[pair_idx[:, 0]] - sig[pair_idx[:, 1]]) * (x[pair_idx[:, 0]] - x[pair_idx[:, 1]]),
            axis=-1,
        )

    tsts_ok = np.ones(n_states, dtype=bool)
    hill_ok = np.ones(n_states, dtype=bool)
    violations = []
    for n in range(n_states):
        st = [float(v) for v in states[n]]
        if csp_min[n] < WITNESS_MARGIN:
            violations.append({"check": "csp", "state": st, "margin": float(csp_min[n])})
        if be[n] < WITNESS_MARGIN:
            violations.append({"check": "be", "state": st, "margin": float(be[n])})
        if np.isfinite(te[n]) and te[n] < WITNESS_MARGIN:
            violations.append({"check": "te", "state": st, "margin": float(te[n])})
        if np.isfinite(lh[n]) and lh[n] < WITNESS_MARGIN:
            violations.append({"check": "lh", "state": st, "margin": float(lh[n])})
    for k in range(n_pairs):
        a, b = pair_idx[k]
        if tsts_vals[k] < WITNESS_MARGIN:
            tsts_ok[a] = tsts_ok[b] = False
            violations.append(
                {
                    "check": "tsts_m_plus",
                    "state": [float(v) for v in states[a]],
                    "state2": [float(v) for v in states[b]],
                    "margin": float(tsts_vals[k]),
                }
            )
        if hill_vals[k] < WITNESS_MARGIN:
            hill_ok[a] = hill_ok[b] = False
            violations.append(
                {
                    "check": "hill",
                    "state": [float(v) for v in states[a]],
                    "state2": [float(v) for v in states[b]],
                    "margin": float(hill_vals[k]),
                }
            )

    return StabilityReport(
        model_kind=model.kind,
        parameters=model.parameters(),
        grid=(float(grid[0]), float(grid[1]), int(grid[2])),
        seed=int(seed),
        indices=idx,
        states=states,
        csp_min_eig=csp_min,
        be_margin=be,
        te_margin=te,
        lh_min=lh,
        tsts_m_plus_ok=tsts_ok,
        hill_ok=hill_ok,
        pair_indices=pair_idx,
        violations=violations,
    )
