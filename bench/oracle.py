"""Independent reference for checking corostab output.

Every formula here is written from the energies and closed forms stated in
the project README, not taken from the package, and derivatives are exact.
None of the planned refactors (analytic tangents, exact rank-one check,
Newton closure, removal of duplicate paths) touches this file, so the
checks hold across them.  Tolerances are wide enough for today's finite
difference (FD) values and for exact ones, and narrow enough that a wrong
derivative, closure or margin fails.
"""

import math

import numpy as np

WITNESS_MARGIN = -1e-7  # the README's violation threshold


def _lame(p):
    """(mu, lambda) from either CLI parameter set."""
    if "lambda_lame" in p:
        return p["mu"], p["lambda_lame"]
    E, nu = p["E"], p["nu"]
    return E / (2.0 * (1.0 + nu)), E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))


class Reference:
    """Exact principal-stretch response of one catalog model.

    Compressible: ``tau(x)`` (Kirchhoff, = d ghat/dx) and ``hess(x)``.
    Incompressible: ``t(x)`` (extra Kirchhoff stress) and ``tjac(x)``.
    ``energy(x)`` is normalized to zero at the reference.  All broadcast
    over leading axes of x with shape (..., 3).
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.p = {k: float(v) for k, v in params.items()}
        self.incompressible = kind.endswith("_incompressible")
        p = self.p
        if kind in ("exp_hencky", "quadratic_hencky"):
            self.mu, self.lam = _lame(p)
        elif kind == "neo_hooke_vol_iso":
            self.mu, self.kappa = p["mu"], p["kappa"]
            self.lam = self.kappa - 2.0 * self.mu / 3.0
        else:
            self.mu = p["mu"] if "mu" in p else p["E"] / 3.0

    # -- compressible ------------------------------------------------------
    def tau(self, x):
        x = np.asarray(x, dtype=float)
        s = x.sum(-1)[..., None]
        if self.kind == "quadratic_hencky":
            return 2.0 * self.mu * x + self.lam * s
        if self.kind == "exp_hencky":
            k, kh = self.p["k"], self.p["khat"]
            q = (x * x).sum(-1)[..., None]
            return 2.0 * self.mu * x * np.exp(k * q) + self.lam * s * np.exp(kh * s * s)
        b = np.exp(2.0 * x)  # neo_hooke_vol_iso
        J = np.exp(s)
        return self.mu * np.exp(-2.0 * s / 3.0) * (b - b.sum(-1)[..., None] / 3.0) + self.kappa * (J * J - J)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(3)
        ones = np.ones((3, 3))
        s = x.sum(-1)[..., None, None]
        if self.kind == "quadratic_hencky":
            return np.broadcast_to(2.0 * self.mu * eye + self.lam * ones, x.shape + (3,))
        if self.kind == "exp_hencky":
            k, kh = self.p["k"], self.p["khat"]
            q = (x * x).sum(-1)[..., None, None]
            outer = x[..., :, None] * x[..., None, :]
            return (2.0 * self.mu * np.exp(k * q) * (eye + 2.0 * k * outer)
                    + self.lam * (1.0 + 2.0 * kh * s * s) * np.exp(kh * s * s) * ones)
        b = np.exp(2.0 * x)
        bi, bj = b[..., :, None], b[..., None, :]
        B = b.sum(-1)[..., None, None]
        J = np.exp(s)
        return (self.mu * np.exp(-2.0 * s / 3.0)
                * (2.0 * bi * eye - 2.0 / 3.0 * (bi + bj) + 2.0 / 9.0 * B)
                + self.kappa * (2.0 * J * J - J) * ones)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return self.tau(x) * np.exp(-x.sum(-1))[..., None]

    def dsigma_dx(self, x):
        """G_ij = d sigma_i / d x_j = (H_ij - tau_i) / J."""
        x = np.asarray(x, dtype=float)
        return (self.hess(x) - self.tau(x)[..., :, None]) * np.exp(-x.sum(-1))[..., None, None]

    # -- incompressible ----------------------------------------------------
    def t(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "neo_hooke_incompressible":
            return self.mu * np.exp(2.0 * x)
        if self.kind == "quadratic_hencky_incompressible":
            return 2.0 * self.mu * x
        q = (x * x).sum(-1)[..., None]
        return 2.0 * self.mu * x * np.exp(-x) * np.exp(self.p["k"] * q)

    def tjac(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(3)
        if self.kind == "neo_hooke_incompressible":
            return 2.0 * self.mu * np.exp(2.0 * x)[..., :, None] * eye
        if self.kind == "quadratic_hencky_incompressible":
            return np.broadcast_to(2.0 * self.mu * eye, x.shape + (3,))
        k = self.p["k"]
        q = (x * x).sum(-1)[..., None, None]
        xi, xj = x[..., :, None], x[..., None, :]
        return 2.0 * self.mu * np.exp(k * q) * np.exp(-xi) * (eye * (1.0 - xi) + 2.0 * k * xi * xj)

    # -- shared ------------------------------------------------------------
    def energy(self, x):
        x = np.asarray(x, dtype=float)
        q = (x * x).sum(-1)
        s = x.sum(-1)
        k = self.kind
        if k == "quadratic_hencky":
            return self.mu * q + 0.5 * self.lam * s * s
        if k == "exp_hencky":
            kk, kh = self.p["k"], self.p["khat"]
            return (self.mu / kk * np.expm1(kk * q)
                    + self.lam / (2.0 * kh) * np.expm1(kh * s * s))
        if k == "neo_hooke_vol_iso":
            return (0.5 * self.mu * (np.exp(2.0 * x).sum(-1) * np.exp(-2.0 * s / 3.0) - 3.0)
                    + 0.5 * self.kappa * np.expm1(s) ** 2)
        if k == "neo_hooke_incompressible":
            return 0.5 * self.mu * (np.exp(2.0 * x).sum(-1) - 3.0)
        if k == "quadratic_hencky_incompressible":
            return self.mu * q
        return self.mu / self.p["k"] * np.expm1(self.p["k"] * q)

    def stress_scale(self, x):
        """Magnitude used to scale absolute tolerances at state x."""
        x = np.asarray(x, dtype=float)
        J = self.tjac(x) if self.incompressible else self.dsigma_dx(x)
        return np.maximum(1.0, np.abs(J).max(axis=(-2, -1)))


def self_check():
    """Compare each reference's derivatives with central differences of its
    own energy, so a typo in this file cannot pass as program error."""
    rng = np.random.default_rng(7)
    cases = [
        ("exp_hencky", {"mu": 0.9, "lambda_lame": 1.7, "k": 0.8, "khat": 1.1}),
        ("quadratic_hencky", {"E": 1.3, "nu": 0.3}),
        ("neo_hooke_vol_iso", {"mu": 1.1, "kappa": 2.5}),
    ]
    h = 1e-5
    for kind, p in cases:
        ref = Reference(kind, p)
        x = rng.uniform(-0.4, 0.4, size=3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd_tau = (ref.energy(x + e) - ref.energy(x - e)) / (2 * h)
            fd_h = (ref.tau(x + e) - ref.tau(x - e)) / (2 * h)
            if abs(fd_tau - ref.tau(x)[i]) > 1e-6 or np.max(np.abs(fd_h - ref.hess(x)[:, i])) > 1e-6:
                raise RuntimeError(f"reference derivatives of {kind} are inconsistent")


# --- protocol kinematics -------------------------------------------------------

def protocol_state(protocol, lam1, lateral):
    if protocol == "uniaxial":
        return np.array([lam1, lateral, lateral])
    if protocol == "equibiaxial":
        return np.array([lam1, lam1, lateral])
    if protocol == "planar":
        return np.array([lam1, lateral, 1.0])
    return np.array([lam1, lam1, lam1])


def incompressible_lateral(protocol, lam1):
    if protocol == "uniaxial":
        return lam1 ** -0.5
    if protocol == "equibiaxial":
        return lam1 ** -2.0
    return 1.0 / lam1


FREE = {"uniaxial": 1, "equibiaxial": 2, "planar": 1}
_FACTOR = {"uniaxial": 1.0, "equibiaxial": 0.5, "planar": 1.0, "hydrostatic": 1.0 / 3.0}


def driving(ref, protocol, lams):
    """Driving stress at the protocol state: sigma_1 (compressible) or
    tau_1 with the pressure fixed by the traction-free direction."""
    x = np.log(lams)
    if ref.incompressible:
        t = ref.t(x)
        return float(t[0] - t[FREE[protocol]])
    return float(ref.sigma(x)[0])


def modulus(ref, protocol, lams):
    """Exact incremental modulus factor * d(driving)/d(lambda1) through the
    traction-free constraint (implicit function theorem)."""
    x = np.log(lams)
    lam1 = lams[0]
    if ref.incompressible:
        # closed kinematics: dx = c dx1 with fixed c per protocol
        c = {"uniaxial": (1.0, -0.5, -0.5), "equibiaxial": (1.0, 1.0, -2.0),
             "planar": (1.0, -1.0, 0.0)}[protocol]
        dt = ref.tjac(x) @ np.array(c)
        slope = (dt[0] - dt[FREE[protocol]]) / lam1
        return _FACTOR[protocol] * slope
    G = ref.dsigma_dx(x)
    if protocol == "uniaxial":
        dy = -G[1, 0] / (G[1, 1] + G[1, 2])
        d1 = G[0, 0] + (G[0, 1] + G[0, 2]) * dy
    elif protocol == "equibiaxial":
        dy = -(G[2, 0] + G[2, 1]) / G[2, 2]
        d1 = G[0, 0] + G[0, 1] + G[0, 2] * dy
    elif protocol == "planar":
        dy = -G[1, 0] / G[1, 1]
        d1 = G[0, 0] + G[0, 1] * dy
    else:
        d1 = G[0].sum()
    return _FACTOR[protocol] * d1 / lam1


# --- stability margins -----------------------------------------------------------

_PAIRS = ((0, 1), (1, 2), (2, 0))


def _shear(S, Jac, x):
    """Divided differences (S_i - S_j)/(x_i - x_j) of a principal stress law,
    with their coincident-stretch limit d S_i/dx_i - d S_i/dx_j."""
    out = []
    for i, j in _PAIRS:
        dx = x[..., i] - x[..., j]
        close = np.abs(dx) < 1e-7
        safe = np.where(close, 1.0, dx)
        out.append(np.where(close, Jac[..., i, i] - Jac[..., i, j], (S[..., i] - S[..., j]) / safe))
    return np.stack(out, axis=-1)


_DEV = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.array([[math.sqrt(2.0)], [math.sqrt(6.0)]])


def tangent_min_eig(ref, x):
    """Minimum eigenvalue of the symmetrized log-strain tangent by Hill's
    principal-axis formula: normal block sym(dS/dx), shear entries the
    divided differences.  Cauchy stress for compressible models; the
    deviatoric block of the extra stress for incompressible ones."""
    x = np.asarray(x, dtype=float)
    if ref.incompressible:
        S, Jac = ref.t(x), ref.tjac(x)
    else:
        S, Jac = ref.sigma(x), ref.dsigma_dx(x)
    N = 0.5 * (Jac + np.swapaxes(Jac, -1, -2))
    if ref.incompressible:
        N = _DEV @ N @ _DEV.T
    normal = np.linalg.eigvalsh(N)[..., 0]
    return np.minimum(normal, _shear(S, Jac, x).min(-1))


def be_margin(S, lams):
    """min over pairs with distinct stretches of (S_i - S_j)(l_i - l_j); 0 if none."""
    vals = []
    for i, j in _PAIRS:
        v = (S[..., i] - S[..., j]) * (lams[..., i] - lams[..., j])
        vals.append(np.where(lams[..., i] != lams[..., j], v, np.inf))
    m = np.min(np.stack(vals, -1), -1)
    return np.where(np.isfinite(m), m, 0.0)


def te_margin(ref, x):
    """min_i d sigma_i / d lambda_i at fixed other stretches = G_ii / lambda_i."""
    G = ref.dsigma_dx(x)
    return np.min(np.diagonal(G, axis1=-2, axis2=-1) / np.exp(x), axis=-1)


def _fib(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(1.0 - z * z)
    th = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(th), r * np.sin(th), z], -1)


_ETA = _fib(1200)


def rank_one_min(ref, lams):
    """min over unit xi, eta of xi(x)eta : A : xi(x)eta at F = diag(lams), with
    A = dP/dF assembled from the stretch derivatives of W in the principal
    frame; the xi minimization is the smallest eigenvalue of the acoustic
    tensor, the eta one a dense sphere search with local refinement.
    Returns (minimum, magnitude of the largest entry of A)."""
    lams = np.asarray(lams, dtype=float)
    x = np.log(lams)
    tau, H = ref.tau(x), ref.hess(x)
    W1 = tau / lams
    W2 = (H - np.diag(tau)) / np.outer(lams, lams)
    Aaa = np.zeros((3, 3))  # A_{ijij}
    Aab = np.zeros((3, 3))  # A_{ijji}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            li, lj = lams[i], lams[j]
            if abs(li - lj) < 1e-6 * max(li, lj):
                Aaa[i, j] = 0.5 * (W2[i, i] - W2[i, j] + W1[i] / li)
                Aab[i, j] = 0.5 * (W2[i, i] - W2[i, j] - W1[i] / li)
            else:
                Aaa[i, j] = (li * W1[i] - lj * W1[j]) / (li * li - lj * lj)
                Aab[i, j] = (lj * W1[i] - li * W1[j]) / (li * li - lj * lj)

    def acoustic_min(eta):
        e2 = eta * eta
        Q = (W2 + Aab)[None] * eta[:, :, None] * eta[:, None, :]
        diag = np.diagonal(W2)[None] * e2 + e2 @ Aaa.T
        idx = np.arange(3)
        Q[:, idx, idx] = diag
        return np.linalg.eigvalsh(Q)[:, 0]

    vals = acoustic_min(_ETA)
    best = _ETA[np.argsort(vals)[:4]]
    step = 0.05
    cur = acoustic_min(best)
    for _ in range(30):
        trial = best[:, None, :] + step * np.random.default_rng(0).standard_normal((len(best), 16, 3))
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        tv = acoustic_min(trial.reshape(-1, 3)).reshape(len(best), 16)
        k = np.argmin(tv, axis=1)
        better = tv[np.arange(len(best)), k] < cur
        best[better] = trial[np.arange(len(best)), k][better]
        cur = np.where(better, tv[np.arange(len(best)), k], cur)
        step *= 0.8
    a_scale = max(1.0, float(np.abs(W2).max()), float(np.abs(Aaa).max()), float(np.abs(Aab).max()))
    return float(min(cur.min(), vals.min())), a_scale
