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
* a rank-one convexity probe of the energy (``lh_ellipticity_probe``), a
  sampling heuristic: a non-negative result means "no violation found", never
  a proof of ellipticity;
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
trace-free subspace spanned by ``dev_basis5``.  The tension-extension margin
is min_i d sigma_i / d lambda_i = min_i G_ii / lambda_i.  A condition counts
as holding when its margin exceeds -1e-9; a violation is witnessed only
below -1e-7.
"""

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .materials import MaterialModel, StretchState, energy_from_F, principal_stresses
from .tensor3 import basis6, eig_sym, inner, logm_spd, norm, vec6

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
# the third derivative of s (2e-12 of it at the threshold).
_COINCIDENT = 1e-6

# basis6 slots 3, 4, 5 hold the shear pairs 12, 23, 31
_SHEAR_PAIRS = ((0, 1), (1, 2), (2, 0))


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
    stretches of (sigma_i - sigma_j)(lambda_i - lambda_j); vacuous pairs
    contribute 0.  The tension-extension margin is
    min_i d sigma_i / d lambda_i = min_i G_ii / lambda_i with the other
    stretches held fixed and G = d sigma / d x the exact stress Jacobian.
    """
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; BE/TE need pointwise Cauchy stress"
        )
    lams = state.as_array()
    sig = principal_stresses(model, state).cauchy
    be_margin = 0.0
    found = False
    for i in range(3):
        for j in range(i + 1, 3):
            if lams[i] != lams[j]:
                v = (sig[i] - sig[j]) * (lams[i] - lams[j])
                be_margin = v if not found else min(be_margin, v)
                found = True
    te_margin = _te_margin(model.stress_jac(state.log())[1], lams)
    return BeTeResult(
        be_ok=be_margin > HOLD_MARGIN,
        te_ok=te_margin > HOLD_MARGIN,
        be_margin=float(be_margin),
        te_margin=float(te_margin),
    )


# --- rank-one convexity probe -------------------------------------------------

def _fibonacci_sphere(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=-1)


def _rank_one_values(model, F, dyads, h):
    """5-point second derivative of s -> W(F + s * dyad) at s = 0, batched."""
    steps = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    Fs = F[None, None, :, :] + steps[None, :, None, None] * dyads[:, None, :, :]
    W = energy_from_F(model, Fs.reshape(-1, 3, 3)).reshape(len(dyads), 5)
    return (-W[:, 0] + 16 * W[:, 1] - 30 * W[:, 2] + 16 * W[:, 3] - W[:, 4]) / (12.0 * h * h)


def _angles_of(v):
    return math.atan2(v[1], v[0]), math.acos(max(-1.0, min(1.0, v[2])))


def _vec_of(theta, phi):
    s = math.sin(phi)
    return np.array([s * math.cos(theta), s * math.sin(theta), math.cos(phi)])


def lh_ellipticity_probe(model, state, samples=400, refinement=40) -> ProbeResult:
    """Minimum of the rank-one second derivative of the energy over sampled
    unit direction pairs (xi, eta), with local refinement from the best
    candidates.  ``state`` is a StretchState (diagonal deformation) or a
    (3, 3) deformation gradient."""
    if model.incompressible:
        raise UsageError(
            f"model '{model.kind}' is incompressible; the rank-one probe needs "
            "the unconstrained energy"
        )
    F = state.as_array() if isinstance(state, StretchState) else np.asarray(state, dtype=float)
    if F.shape == (3,):
        F = np.diag(F)
    h = 1e-3 * (1.0 + norm(F))
    m = max(2, math.isqrt(max(1, samples)))
    if m * m < samples:
        m += 1
    dirs = _fibonacci_sphere(m)
    xi_idx, eta_idx = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    dyads = dirs[xi_idx.ravel(), :, None] * dirs[eta_idx.ravel(), None, :]
    vals = _rank_one_values(model, F, dyads, h)

    order = np.argsort(vals)[: min(10, len(vals))]
    best_val = float(vals[order[0]])
    best_xi = dirs[xi_idx.ravel()[order[0]]]
    best_eta = dirs[eta_idx.ravel()[order[0]]]

    if refinement > 0:
        for o in order:
            xi = dirs[xi_idx.ravel()[o]]
            eta = dirs[eta_idx.ravel()[o]]
            angles = list(_angles_of(xi) + _angles_of(eta))
            cur = float(vals[o])
            step = math.pi / m
            for _ in range(refinement):
                improved = False
                for a in range(4):
                    for sgn in (1.0, -1.0):
                        trial = list(angles)
                        trial[a] += sgn * step
                        txi = _vec_of(trial[0], trial[1])
                        teta = _vec_of(trial[2], trial[3])
                        v = float(
                            _rank_one_values(model, F, (txi[:, None] * teta[None, :])[None], h)[0]
                        )
                        if v < cur:
                            cur, angles, improved = v, trial, True
                if not improved:
                    step *= 0.6
                    if step < 1e-4:
                        break
            if cur < best_val:
                best_val = cur
                best_xi = _vec_of(angles[0], angles[1])
                best_eta = _vec_of(angles[2], angles[3])

    return ProbeResult(value=best_val, xi=best_xi, eta=best_eta)


# --- region scanner -------------------------------------------------------------

_SCAN_CSV_HEADER = (
    "i1,i2,i3,lambda1,lambda2,lambda3,csp_min_eig,be_margin,te_margin,"
    "lh_min_probe,tsts_m_plus_ok,hill_ok"
)


@dataclass
class StabilityReport:
    """Per-state stability margins on a stretch grid plus sampled two-point
    checks.  Violation witnesses re-evaluate as violations when replayed."""

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


def _batched_be_margin(sig, lams):
    margins = np.zeros(len(lams))
    seen = np.zeros(len(lams), dtype=bool)
    for i in range(3):
        for j in range(i + 1, 3):
            mask = lams[:, i] != lams[:, j]
            v = (sig[:, i] - sig[:, j]) * (lams[:, i] - lams[:, j])
            upd = mask & (~seen | (v < margins))
            margins = np.where(upd, v, margins)
            seen |= mask
    return margins


def region_scan(
    model,
    grid=(0.5, 3.0, 11),
    seed=0,
    pairs=128,
    lh_samples=49,
    lh_step=None,
) -> StabilityReport:
    """Evaluate every stability check on a cubic stretch grid.

    Per state: tangent minimum eigenvalue (Cauchy tangent for compressible
    models, deviatoric extra-stress tangent for incompressible ones), BE/TE
    margins and a coarse rank-one probe (fixed shared directions, no
    refinement -- use lh_ellipticity_probe for witness hunting).  Pairwise:
    ``pairs`` seeded random state pairs checked for two-point monotonicity in
    the Cauchy measure and, on det-normalized states, the Kirchhoff measure.
    Deterministic for a fixed grid and seed.
    """
    idx, states = _grid_states(grid)
    n_states = len(states)
    x = np.log(states)
    incomp = model.incompressible

    # grid states are diagonal: the principal frame is the lab frame
    if incomp:
        xdev = x - np.mean(x, axis=-1, keepdims=True)
        sig, G = model.stress_jac(xdev)  # pressure-free differences only
        csp_min = np.linalg.eigvalsh(_log_tangent(sig, G, xdev, deviatoric=True))[:, 0]
        be = _batched_be_margin(sig, np.exp(xdev))
        te = np.full(n_states, np.nan)
        lh = np.full(n_states, np.nan)
    else:
        sig, G = model.stress_jac(x)
        csp_min = np.linalg.eigvalsh(_log_tangent(sig, G, x))[:, 0]
        be = _batched_be_margin(sig, states)
        te = _te_margin(G, states)
        m_dirs = max(2, math.isqrt(max(1, lh_samples)))
        dirs = _fibonacci_sphere(m_dirs)
        xi_i, eta_i = np.meshgrid(np.arange(m_dirs), np.arange(m_dirs), indexing="ij")
        dyads = dirs[xi_i.ravel(), :, None] * dirs[eta_i.ravel(), None, :]
        steps = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        # one step for the whole batch, scaled to the largest grid state
        h = lh_step if lh_step is not None else 1e-3 * (1.0 + math.sqrt(3.0) * float(grid[1]))
        Fs = np.zeros((n_states, 3, 3))
        Fs[:, [0, 1, 2], [0, 1, 2]] = states
        pert = (
            Fs[:, None, None, :, :]
            + (steps[None, None, :, None, None] * h) * dyads[None, :, None, :, :]
        )
        W = energy_from_F(model, pert.reshape(-1, 3, 3)).reshape(n_states, len(dyads), 5)
        d2 = (-W[..., 0] + 16 * W[..., 1] - 30 * W[..., 2] + 16 * W[..., 3] - W[..., 4]) / (
            12.0 * h * h
        )
        lh = np.min(d2, axis=-1)

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
