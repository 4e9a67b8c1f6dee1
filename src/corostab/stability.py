"""Numerical constitutive-stability checks.

Implemented conditions:

* positive definiteness of the symmetrized tangent of Cauchy stress with
  respect to logarithmic strain (``tsts_tangent``) -- the pointwise form of
  the corotational stability requirement;
* its restriction to the deviatoric subspace for incompressible models via
  the Kirchhoff extra stress (``hill_tangent``);
* two-point Hilbert monotonicity in Cauchy or Kirchhoff measure
  (``two_point_monotonicity``), the latter being Hill's inequality, from
  principal values alone: sum_ij P_ij (s1_i - s2_j)(x1_i - x2_j) with
  P_ij = (q1_i . q2_j)^2 for the principal frames of the two states
  (``_pair_values``, which the scan's pair checks call with P = I);
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
rank-one minimum (``_rank_one_candidates``) reads the same split and shear
scalars, with the volumetric term kept apart as a rank-one part of each
copositivity matrix.  ``TangentMatrix6.matrix``, the block in lab ``basis6``
(incompressible: ``dev_basis5``) coordinates, is assembled only for that
attribute.  A condition holds when its margin exceeds -1e-9; a violation is
witnessed only below -1e-7.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UsageError, csv_text, json_text, quiet_fp
from .materials import MaterialModel, StretchState
from .tensor3 import basis6, eig_sym

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
# the third derivative of s (2e-12 of it at the threshold).  The rank-one shear
# moduli A_ijij are read off these entries (``_rank_one_candidates``).
_COINCIDENT = 1e-6

# Newton steps allowed per root of ``_normal_eigenvalues``.  The test blocks
# take at most 12; at a double root each step halves the distance, and 64
# halvings take a bracket of width |b| below eps |b|.
_SECULAR_STEPS = 64
_EPS = np.finfo(float).eps

# the checks of one state (margins of ``PrincipalBlock``) and of a state pair
_POINT_CHECKS = ("csp", "be", "te", "lh")
_PAIR_CHECKS = ("tsts_m_plus", "hill")

# the shear scalars are ordered like basis6 slots 3, 4, 5: pairs 12, 23, 31
_SHEAR_PAIRS = ((0, 1), (1, 2), (2, 0))
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
        """Margin name -> where the state witnesses a violation (see
        ``_witnesses``), in the order csp, be, te, lh."""
        return {name: _witnesses(getattr(self, name)) for name in _POINT_CHECKS}


def _witnesses(margins):
    """Where a margin witnesses a violation: finite and below WITNESS_MARGIN.
    A margin that is not finite witnesses nothing."""
    return np.isfinite(margins) & (margins < WITNESS_MARGIN)


def _normal_components(v):
    """Components of v (..., 3) in the (dev, dev, vol) basis, written out
    so a state gives the same bits in any batch."""
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([(v0 - v1) / _S2, (v0 + v1 - 2.0 * v2) / _S6, (v0 + v1 + v2) / _S3], axis=-1)


def principal_block(model: MaterialModel, lams) -> PrincipalBlock:
    """The principal-frame tangent and margins at principal stretches
    ``lams`` (..., 3) (module docstring).  Incompressible models are
    evaluated at the unimodular state with the same stretch ratios."""
    return _principal_block(model, lams)[0]


@quiet_fp
def _principal_block(model, lams):
    """``principal_block`` and its rank-one candidates (None if incompressible)."""
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
    shear, be, differs = [], np.full(x.shape[:-1], np.inf), False
    for i, j in _SHEAR_PAIRS:
        ds, dx, dl = s[..., i] - s[..., j], x[..., i] - x[..., j], lams[..., i] - lams[..., j]
        near = np.abs(dx) <= _COINCIDENT
        limit = 0.5 * (G[..., i, i] - G[..., i, j] - G[..., j, i] + G[..., j, j])
        shear.append(np.where(near, limit, ds / np.where(near, 1.0, dx)))
        be = np.where(dl != 0.0, np.minimum(be, ds * dl), be)
        differs = differs | (dl != 0.0)
    shear, be = np.stack(shear, axis=-1), np.where(differs, be, 0.0)  # 0: no pair differs
    if model.incompressible:
        normal = K[..., :2, :2]
        te = lh = np.full(x.shape[:-1], np.nan)
        candidates = None
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
        candidates = _rank_one_candidates(lams, x, tau, H, c - v, shear)
        lh = np.min(candidates[0], axis=-1)
    csp = np.minimum(_normal_eigenvalues(normal, 1)[..., 0], np.min(shear, axis=-1))
    return PrincipalBlock(normal, shear, csp, be, te, lh), candidates


@quiet_fp
def _normal_eigenvalues(N, k):
    """The k smallest eigenvalues of the normal block N, ascending.

    The (dev, dev) block has eigenvalues a_1 <= a_2 in closed form.  With a
    (dev, vol) column b and vol-vol entry d, the eigenvalues are the roots
    of the secular equation f(l) = d - l - sum_k w_k / (a_k - l), w_k =
    beta_k^2, beta = b in the eigenvectors of a; f decreases between its
    poles a_k.  The roots interlace the a_k and lie within |b| of the sorted
    (a_1, a_2, d) (Weyl), which gives each a bracket [lo, hi].

    A root is found by Newton's method on f with one pole c cleared,
    g(l) = (c - l) f(l) = (c - l)(d - l) - w_c - w_o + w_o (o - c) / (o - l),
    o the other pole.  g is convex where l and c lie on the same side of o,
    so from a start left of the root, where g > 0, every step lands between
    the iterate and the root (a convex function lies above its tangent):
    the iterate rises monotonically, quadratically near a simple root, and
    stays in [lo, hi] (it is clipped to hi against roundoff).  Root 1
    clears a_1 and starts at lo; root 3 is minus root 1 of -N.  Root 2 lies
    in (a_1, a_2): the sign of f at the bracket's midpoint tells which half
    holds it, and it starts at that midpoint, clearing a_2 if the root is
    to its right, or as minus root 2 of -N, clearing a_1, if to its left.
    Coincident poles are one pole of weight w_1 + w_2.

    The block is first scaled by the power of two of its largest entry,
    which is exact and keeps every product in range.  A root stops after a
    step of at most eps max(|b|, |lo|, |hi|), or after ``_SECULAR_STEPS``;
    each root is updated on its own, so a state has the same bits in any
    batch.  Against a 50-digit reference every root of the test blocks lies
    within 1.2 eps max(|root|, |b|, largest (dev, dev) entry).  A NaN entry
    makes every root NaN, and an infinite one root 1 (unless d = +inf and
    b = 0, where it is a_1), so such a margin witnesses nothing.
    """
    p, q, r = N[..., 0, 0], N[..., 1, 1], N[..., 0, 1]
    if N.shape[-1] == 2:
        mean, radius = 0.5 * (p + q), np.hypot(0.5 * (p - q), r)
        return np.stack([mean - radius, mean + radius], axis=-1)[..., :k]
    entries = (p, q, r, N[..., 0, 2], N[..., 1, 2], N[..., 2, 2])
    # times 2^-e, 2^e just above the largest entry (2^-e finite for e >= -1021)
    e = np.maximum(np.frexp(np.max(np.abs(np.stack(entries)), axis=0))[1], -1021)
    p, q, r, b0, b1, d = (v * np.ldexp(1.0, -e) for v in entries)
    mean, radius = 0.5 * (p + q), np.hypot(0.5 * (p - q), r)
    a1, a2 = mean - radius, mean + radius
    phi = 0.5 * np.arctan2(2.0 * r, p - q)  # a_2 has the eigenvector (cos phi, sin phi)
    cos, sin = np.cos(phi), np.sin(phi)
    beta1, beta2 = cos * b1 - sin * b0, cos * b0 + sin * b1
    w1, w2 = beta1 * beta1, beta2 * beta2
    norm_b = np.hypot(b0, b1)
    same, one = a1 == a2, np.ones(d.shape)
    # (sign, c, w_c, o, w_o, d, lo, hi) of each root, for N or, with sign -1, -N
    low = np.minimum(a1, d)
    roots = [(one, a1, np.where(same, w1 + w2, w1), np.where(same, np.inf, a2), w2, d,
              low - norm_b, low)]
    if k > 1:
        med = np.minimum(np.maximum(d, a1), a2)
        lo, hi = np.maximum(med - norm_b, a1), np.minimum(med + norm_b, a2)
        m = 0.5 * (lo + hi)
        right = d - m - w1 / (a1 - m) - w2 / (a2 - m) > 0.0  # f(m) > 0: root 2 > m
        roots.append((np.where(right, 1.0, -1.0), np.where(right, a2, -a1),
                      np.where(right, w2, w1), np.where(right, a1, -a2),
                      np.where(right, w1, w2), np.where(right, d, -d),
                      np.where(right, m, -m), np.where(right, hi, -lo)))
    if k > 2:
        top = np.maximum(a2, d)
        roots.append((-one, -a2, np.where(same, w1 + w2, w2), np.where(same, np.inf, -a1), w1, -d,
                      -(top + norm_b), -np.maximum(top - norm_b, a2)))
    sign, c, wc, o, wo, vol, lo, hi = (np.concatenate([np.ravel(v) for v in col])
                                      for col in zip(*roots))
    tol = _EPS * np.maximum(np.tile(np.ravel(norm_b), k), np.maximum(np.abs(lo), np.abs(hi)))
    y = lo.copy()
    at = np.flatnonzero(hi - lo > tol)  # a shut bracket is its root
    c, wc, o, wo, vol, hi, tol, x = (v.take(at) for v in (c, wc, o, wo, vol, hi, tol, lo))
    for _ in range(_SECULAR_STEPS):
        if not at.size:
            break
        t = wo / (o - x)
        h = vol - x - t  # f(x) + w_c / (c - x)
        cx = c - x
        step = (cx * h - wc) / (h + cx * (1.0 + t / (o - x)))  # -g(x) / g'(x)
        x = np.minimum(x + step, hi)
        y[at] = x
        moving = np.abs(step) > tol  # False for NaN
        if not np.all(moving):
            keep = np.flatnonzero(moving)
            at, c, wc, o, wo, vol, hi, tol, x = (
                v.take(keep) for v in (at, c, wc, o, wo, vol, hi, tol, x))
    y = np.ldexp(sign * y, np.tile(np.ravel(e), k)).reshape((k,) + d.shape)
    return np.moveaxis(y, 0, -1)


def _require_unimodular(model, where, *x):
    """The incompressible models' one state rule: their extra stress lives on
    det V = 1, so a state of log-stretches ``x`` with |log det V| > 1e-8 is a
    DomainError naming ``where``.  Compressible models take any state."""
    if model.incompressible:
        log_det = max((float(np.sum(v)) for v in x), key=abs)
        if abs(log_det) > 1e-8:
            raise DomainError(f"{where} needs det V = 1, got log det V = {log_det}")


def _tangent(model, V):
    """The block tangent at V.  ``matrix`` is the block rotated into the lab
    frame, in basis6 coordinates, or in dev_basis5 ones for incompressible
    models at unimodular V; only this attribute needs the rotation."""
    lams, Q = eig_sym(V)
    if np.any(lams <= 0.0):
        raise DomainError("log V requires a positive-definite tensor")
    _require_unimodular(model, "hill_tangent", np.log(lams))
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
    model.require(False, "use hill_tangent")
    return _tangent(model, V)


def hill_tangent(model: MaterialModel, V) -> TangentMatrix6:
    """5x5 deviatoric tangent of the Kirchhoff extra stress for incompressible
    models, at a unimodular V.  The pressure only ever contributes a multiple
    of the identity, so the deviatoric block is gauge-free; trace-free
    perturbations of log V stay on the det V = 1 manifold."""
    model.require(True, "use tsts_tangent")
    return _tangent(model, V)


def _principal_law(model, measure):
    """The principal stress law of a two-point value: the extra stress for
    incompressible models, else the Cauchy or Kirchhoff stress."""
    if model.incompressible:
        return model.extra_tau
    return model.kirchhoff_principal if measure == "kirchhoff" else model.cauchy_principal


def _pair_values(s1, x1, s2, x2, P):
    """Two-point values sum_ij P_ij (s1_i - s2_j)(x1_i - x2_j) of pairs of
    states given by principal stresses s and log stretches x (..., 3), with
    P_ij = (q1_i . q2_j)^2 (..., 3, 3) for the principal frames q1, q2 of the
    two states; P is the identity for coaxial pairs.  This is <S1 - S2, Y1 -
    Y2> for S = sum_i s_i q_i (x) q_i and Y = log V alike: P is doubly
    stochastic and <q1_i (x) q1_i, q2_j (x) q2_j> = P_ij."""
    ds = s1[..., :, None] - s2[..., None, :]
    dx = x1[..., :, None] - x2[..., None, :]
    # P first: a zero P_ij keeps its term 0 however large ds_ij dx_ij is
    return np.sum(P * ds * dx, axis=(-2, -1))


def two_point_monotonicity(model, V1, V2, measure="cauchy") -> float:
    """<stress(V1) - stress(V2), log V1 - log V2> for the chosen measure,
    from the principal values and frames of V1 and V2 (``_pair_values``).

    The caller interprets the sign; positivity for all pairs is the two-point
    monotonicity condition (Cauchy measure) or Hill's inequality (Kirchhoff).
    Incompressible models support only the Kirchhoff measure on unimodular
    states, where the undetermined pressures cancel against the trace-free
    strain difference.
    """
    if measure not in ("cauchy", "kirchhoff"):
        raise UsageError(f"unknown stress measure '{measure}'")
    (d1, Q1), (d2, Q2) = eig_sym(V1), eig_sym(V2)
    if min(d1[-1], d2[-1]) <= 0.0:
        raise DomainError("log requires a positive-definite tensor")
    x1, x2 = np.log(d1), np.log(d2)
    if measure != "kirchhoff":
        model.require(False, "only the kirchhoff measure is defined (up to pressure)")
    _require_unimodular(model, "two_point_monotonicity", x1, x2)
    law = _principal_law(model, measure)
    return float(_pair_values(law(x1), x1, law(x2), x2, (Q1.T @ Q2) ** 2))


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
    model.require(False, "BE/TE need pointwise Cauchy stress")
    block = principal_block(model, state.as_array())
    be, te = float(block.be), float(block.te)
    return BeTeResult(be > HOLD_MARGIN, te > HOLD_MARGIN, be, te)


# --- rank-one (Legendre-Hadamard) minimum ----------------------------------------

# Sign vectors s, up to an overall sign, and their products s_i s_j over
# _SHEAR_PAIRS: the four sign triples (sigma_01, sigma_12, sigma_20) whose
# product is +1.  An edge of the simplex reads s only through its sigma_ij.
_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
_NEXT = [j for _, j in _SHEAR_PAIRS]  # pair k of _SHEAR_PAIRS is (k, _NEXT[k])
_PAIR_SIGNS = _SIGNS * _SIGNS[:, _NEXT]
_EDGE_SIGNS = np.array([[1.0], [-1.0]])


def _simplex_candidates(diag, moduli, coupling, kappa, r):
    """Candidate values of v^T M_s v over the unit simplex {v >= 0, sum v = 1}
    whose least is its minimum over all four s, M_s = M_iso,s + kappa u_s
    u_s^T with u_s = s r: M_iso,s has the diagonal ``diag`` (..., 3) and the
    off-diagonal entries moduli + s_i s_j coupling of the pairs 01, 12, 20.

    Returns the values (..., 13) -- the vertices e_i, the same for every s;
    the stationary point of each edge (clipped to it), which reads s only
    through sigma = s_i s_j, for sigma = +1 then -1; and the interior one of
    each s, proportional to adj(M_s) 1, or +inf when it lies outside -- with
    the edge parameters t (..., 2, 3), the point (1 - t) e_i + t e_j, and the
    interior points (..., 4, 3).  A minimum that is not isolated extends to
    the boundary of its face, so they always contain one.

    Every value is v^T M_iso,s v + kappa (u_s . v)^2 written out over the six
    entries; M_s is never formed, as kappa may exceed M_iso,s by twenty
    orders of magnitude: the edge points are ratios of sums of the two
    parts, and adj(M_s) = adj(M_iso,s) + kappa [u]x M_iso,s [u]x^T for 3x3
    matrices."""
    k2 = kappa[..., None, None]
    vertex = diag + kappa[..., None] * r * r
    # the edge of pair (i, j) and sign sigma, from e_i (t = 0) to e_j
    off = moduli[..., None, :] + _EDGE_SIGNS * coupling[..., None, :]
    ri, sr = r[..., None, :], _EDGE_SIGNS * r[..., None, _NEXT]  # u_i, u_j up to s_i
    di, dj = diag[..., None, :], diag[..., None, _NEXT]
    du = ri - sr
    curv = di - 2.0 * off + dj + k2 * du * du
    convex = curv > 0.0
    t = (di - off + k2 * ri * du) / np.where(convex, curv, 1.0)
    t = np.minimum(np.maximum(np.where(convex, t, 0.0), 0.0), 1.0)
    ti = 1.0 - t
    along = ti * ri + t * sr
    edge = di * ti * ti + 2.0 * off * ti * t + dj * t * t + k2 * along * along
    # the interior point of each s, from the entries at unit scale, where
    # the adjugate's products stay finite; v does not depend on the scale
    a, b, c = (diag[..., k:k + 1] for k in range(3))
    f, d, e = (moduli[..., None, k] + _PAIR_SIGNS[:, k] * coupling[..., None, k] for k in range(3))
    u0, u1, u2 = (_SIGNS[:, k] * r[..., None, k] for k in range(3))
    rr = r * r  # its max written out: np.max along a length-3 axis is slower
    scale = np.maximum(
        np.maximum(np.max(np.abs(diag), axis=-1, initial=np.finfo(float).tiny),
                   np.max(np.abs(moduli) + np.abs(coupling), axis=-1)),
        np.abs(kappa) * np.maximum(np.maximum(rr[..., 0], rr[..., 1]), rr[..., 2]))
    q = (1.0 / scale)[..., None]
    sa, sb, sc, sf, sd, se, sk = a * q, b * q, c * q, f * q, d * q, e * q, kappa[..., None] * q
    # adj(M) 1 from the cofactors, plus kappa u x (M (1 x u))
    adj01, adj02, adj12 = sd * se - sc * sf, sf * sd - sb * se, se * sf - sa * sd
    g0, g1, g2 = u2 - u1, u0 - u2, u1 - u0
    m0, m1, m2 = sa * g0 + sf * g1 + se * g2, sf * g0 + sb * g1 + sd * g2, se * g0 + sd * g1 + sc * g2
    w0 = sb * sc - sd * sd + adj01 + adj02 + sk * (u1 * m2 - u2 * m1)
    w1 = adj01 + (sc * sa - se * se) + adj12 + sk * (u2 * m0 - u0 * m2)
    w2 = adj02 + adj12 + (sa * sb - sf * sf) + sk * (u0 * m1 - u1 * m0)
    total = w0 + w1 + w2
    inside = (w0 * total > 0.0) & (w1 * total > 0.0) & (w2 * total > 0.0)
    total = np.where(inside, total, 1.0)
    v0, v1, v2 = w0 / total, w1 / total, w2 / total
    along = u0 * v0 + u1 * v1 + u2 * v2
    inner = (a * v0 * v0 + b * v1 * v1 + c * v2 * v2 + 2.0 * (f * v0 * v1 + d * v1 * v2 + e * v2 * v0)
             + kappa[..., None] * along * along)
    inner = np.where(inside, inner, np.inf)
    values = np.concatenate([vertex, edge.reshape(edge.shape[:-2] + (6,)), inner], axis=-1)
    return values, t, np.stack([v0, v1, v2], axis=-1)


def _rank_one_candidates(lams, x, tau, H, kappa, shear):
    """Candidate values of the rank-one form xi(x)eta : A : xi(x)eta,
    A = d2W/dFdF at F = diag(lams), whose least is the exact minimum over
    unit xi, eta, from what ``principal_block`` evaluated at stretches lams
    (..., 3), x = log(lams): tau and H, ghat_grad and ghat_hess less their
    volumetric terms, kappa = c - v and the shear scalars.  Returns the
    values (..., 16), the 13 simplex candidates of ``_simplex_candidates``
    and the shear moduli of ``_SHEAR_PAIRS``, with its edge parameters and
    interior points.

    With the stretch derivatives W_i = g_i / lambda_i and W_ij = (H_ij -
    delta_ij g_i) / (lambda_i lambda_j), A has the principal entries
    A_iijj = W_ij, A_ijij = (g_i - g_j) / (lambda_i^2 - lambda_j^2) =
    lambda_k shear_ij (x_i - x_j) / (2 sinh(x_i - x_j)), k the third axis,
    which is as exact as the shear scalar at coincidence, and A_ijji =
    A_ijij - (W_i + W_j) / (lambda_i + lambda_j).  With u_i = xi_i eta_i the
    form is sum_i W_ii u_i^2 + sum_{i != j} (c_ij u_i u_j + A_ijij xi_i^2
    eta_j^2), c_ij = W_ij + A_ijji, and |xi|^2 |eta|^2 = sum_{i, j} xi_i^2
    eta_j^2.  Minimizing over xi, eta with u fixed reduces strong
    ellipticity to copositivity of four 3x3 matrices (Simpson & Spector
    1983, ARMA 84): the minimum is the least of the A_ijij (xi = e_i,
    eta = e_j) and, for each s, of v^T M_s v over the unit simplex, M_s =
    W_ii on the diagonal and s_i s_j c_ij + A_ijij off it (xi_i = s_i
    sqrt(v_i), eta_i = sqrt(v_i)).  The volumetric terms of M_s make up
    kappa u_s u_s^T, u_s = s / lambda, so v^T M_s v = v^T M_iso,s v +
    kappa (u_s . v)^2.  Only the six entries of each M_iso,s are formed:
    the diagonal (H_ii - tau_i) / lambda_i^2, shared by the four s, and the
    off-diagonal A_ijij + s_i s_j c_ij, c_ij from the isochoric parts tau
    and H (``coupling``).
    """
    i, j = np.transpose(_SHEAR_PAIRS)
    li, lj, dx = lams[..., i], lams[..., j], x[..., i] - x[..., j]
    ratio = np.divide(dx, np.sinh(dx), out=np.ones(dx.shape), where=dx != 0.0)  # dx / sinh(dx)
    moduli = 0.5 * lams[..., 3 - i - j] * shear * ratio  # A_ijij
    coupling = H[..., i, j] / (li * lj) + moduli - (tau[..., i] / li + tau[..., j] / lj) / (li + lj)
    diag = (np.diagonal(H, axis1=-2, axis2=-1) - tau) / lams**2
    values, t, v = _simplex_candidates(diag, moduli, coupling, kappa, 1.0 / lams)
    return np.concatenate([values, moduli], axis=-1), t, v


def lh_ellipticity_probe(model, state) -> ProbeResult:
    """Exact minimum of the rank-one second derivative of the energy,
    d2/ds2 W(F + s xi(x)eta) at s = 0, over unit vectors xi, eta, and a pair
    attaining it.  A negative value is a Legendre-Hadamard ellipticity
    witness; a positive one proves strong ellipticity at F.

    ``state`` is a StretchState or its three stretches, taken in their order
    so the value is ``principal_block(...).lh`` to the bit, or a (3, 3) F
    with det F > 0: by isotropy the minimum at F = U diag(lambda) V^T is the
    one at diag(lambda), with the witness rotated back to U xi, V eta.
    """
    model.require(False, "the rank-one minimum needs the unconstrained energy")
    F = state.as_array() if isinstance(state, StretchState) else np.asarray(state, dtype=float)
    if F.shape == (3,):
        U, lams, Vt = np.eye(3), StretchState(*F).as_array(), np.eye(3)
    elif np.linalg.det(F) > 0.0:
        U, lams, Vt = np.linalg.svd(F)
    else:
        raise DomainError("deformation gradient must have positive determinant")
    values, t, v = _principal_block(model, lams)[1]
    k = int(np.argmin(values))
    if k < 3:  # a vertex e_k, the same for every sign vector s
        s, v = _SIGNS[0], np.eye(3)[k]
    elif k < 9:  # the point (1 - t) e_i + t e_j of an edge, any s with s_i s_j = sigma
        n, pair = divmod(k - 3, 3)
        i, j = _SHEAR_PAIRS[pair]
        s, v = np.ones(3), np.zeros(3)
        s[j], v[i], v[j] = _EDGE_SIGNS[n, 0], 1.0 - t[n, pair], t[n, pair]
    elif k < 13:  # the interior point of the sign vector s
        s, v = _SIGNS[k - 9], v[k - 9]
    if k < 13:  # a simplex point v of the sign vector s: xi = s sqrt(v), eta = sqrt(v)
        eta = np.sqrt(v)
        xi = s * eta
    else:  # an axis pair xi = e_i, eta = e_j
        xi, eta = np.eye(3)[list(_SHEAR_PAIRS[k - 13])]
    return ProbeResult(value=float(values[k]), xi=U @ xi, eta=Vt.T @ eta)


# --- region scanner -------------------------------------------------------------

@dataclass
class StabilityReport:
    """Per-state stability margins on a stretch grid plus sampled two-point
    checks.  ``lh_min`` is the exact rank-one minimum (NaN for incompressible
    models).  Violation witnesses re-evaluate as violations when replayed;
    ``counts`` maps every check name to its number of violations."""

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
    violations: list
    counts: dict

    def violation_count(self, check=None) -> int:
        if check is None:
            return len(self.violations)
        if check not in self.counts:
            raise UsageError(f"unknown check '{check}'; known checks: {', '.join(self.counts)}")
        return self.counts[check]

    def to_csv(self) -> str:
        columns = dict(zip(("i1", "i2", "i3", "lambda1", "lambda2", "lambda3"),
                           [*self.indices.T, *self.states.T]))
        columns.update(csp_min_eig=self.csp_min_eig, be_margin=self.be_margin,
                       te_margin=self.te_margin, lh_min_probe=self.lh_min,
                       tsts_m_plus_ok=self.tsts_m_plus_ok, hill_ok=self.hill_ok)
        return csv_text(columns)

    def to_json_summary(self) -> str:
        payload = {
            "model": self.model_kind,
            "parameters": self.parameters,
            "grid": list(self.grid),
            "seed": self.seed,
            "counts": {
                "states": int(len(self.states)),
                "pairs": int(len(self.pair_indices)),
                "violations": self.counts,
            },
            "violations": self.violations,
        }
        return json_text(payload)


def _grid_states(grid):
    lo, hi, n = grid
    axis = np.linspace(float(lo), float(hi), int(n))
    idx = np.stack(np.meshgrid(*(np.arange(int(n)),) * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    states = axis[idx]
    return idx, states


@quiet_fp
def region_scan(model, grid=(0.5, 3.0, 11), seed=0, pairs=128) -> StabilityReport:
    """Evaluate every stability check on a cubic stretch grid.

    Per state: tangent minimum eigenvalue (Cauchy tangent for compressible
    models, deviatoric extra-stress tangent for incompressible ones), BE/TE
    margins and, for compressible models, the exact rank-one minimum of
    ``lh_ellipticity_probe`` (NaN for incompressible ones).  Pairwise:
    ``pairs`` seeded random state pairs checked for two-point monotonicity in
    the Cauchy measure and, on det-normalized states, the Kirchhoff measure;
    a pair whose value is not finite sets that column to 0 for both of its
    states and is not listed as a violation, nor is a state whose margin is
    not finite.  Deterministic for a fixed grid and seed.  Violations are
    listed by state (csp, be, te, lh), then by pair in draw order
    (tsts_m_plus, hill).
    """
    lo, hi, n = grid
    if not (math.isfinite(lo) and math.isfinite(hi) and min(lo, hi) > 0.0):
        raise ConfigurationError(f"scan grid needs finite stretches > 0, got {lo}:{hi}")
    if int(n) < 1:
        raise ConfigurationError(f"scan grid needs at least 1 point per axis, got {n}")
    if pairs < 0:
        raise ConfigurationError(f"scan needs pairs >= 0, got {pairs}")
    if seed < 0:
        raise ConfigurationError(f"scan needs seed >= 0, got {seed}")
    idx, states = _grid_states(grid)
    n_states = len(states)
    x = np.log(states)
    block = principal_block(model, states)  # grid states are diagonal

    # sampled two-point checks: draw the missing pairs, drop those with
    # a = b, repeat.  Generator.integers takes its 32-bit outputs from a buffer
    # kept in the bit generator, so the pairs do not depend on how the draws
    # are chunked: they are those of one size-2 draw at a time
    rng = np.random.default_rng(seed)
    n_pairs = min(pairs, n_states * (n_states - 1) // 2)
    pair_idx = np.empty((0, 2), dtype=int)
    while len(pair_idx) < n_pairs:
        draw = rng.integers(0, n_states, size=(n_pairs - len(pair_idx), 2))
        pair_idx = np.concatenate([pair_idx, draw[draw[:, 0] != draw[:, 1]]])
    # both laws read the drawn states alone, (pairs, 2, 3); grid states are
    # coaxial: P = I
    xp = x[pair_idx]
    xu = xp - np.mean(xp, axis=-1, keepdims=True)
    tau_u = _principal_law(model, "kirchhoff")(xu)
    hill_vals = _pair_values(tau_u[:, 0], xu[:, 0], tau_u[:, 1], xu[:, 1], np.eye(3))
    if model.incompressible:
        tsts_vals = hill_vals
    else:
        sig = _principal_law(model, "cauchy")(xp)
        tsts_vals = _pair_values(sig[:, 0], xp[:, 0], sig[:, 1], xp[:, 1], np.eye(3))

    margins = np.stack([getattr(block, check) for check in _POINT_CHECKS], axis=-1)
    pair_margins = np.stack([tsts_vals, hill_vals], axis=-1)
    witness, pair_witness = _witnesses(margins), _witnesses(pair_margins)
    ok = np.ones((len(_PAIR_CHECKS), n_states), dtype=bool)  # tsts_m_plus_ok, hill_ok
    p, k = np.nonzero(pair_witness | ~np.isfinite(pair_margins))
    ok[k[:, None], pair_idx[p]] = False
    i, k = np.nonzero(witness)
    violations = [
        {"check": _POINT_CHECKS[c], "state": st, "margin": v}
        for c, st, v in zip(k.tolist(), states[i].tolist(), margins[i, k].tolist())
    ]
    p, k = np.nonzero(pair_witness)
    violations += [
        {"check": _PAIR_CHECKS[c], "state": st, "state2": st2, "margin": v}
        for c, (st, st2), v in zip(k.tolist(), states[pair_idx[p]].tolist(),
                                   pair_margins[p, k].tolist())
    ]
    counts = witness.sum(axis=0).tolist() + pair_witness.sum(axis=0).tolist()

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
        tsts_m_plus_ok=ok[0],
        hill_ok=ok[1],
        pair_indices=pair_idx,
        violations=violations,
        counts=dict(zip(_POINT_CHECKS + _PAIR_CHECKS, counts)),
    )
