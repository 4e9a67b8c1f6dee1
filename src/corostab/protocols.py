"""Homogeneous test protocols: uniaxial, equibiaxial, planar and hydrostatic
tension, for compressible and incompressible response.

A ``Protocol`` names only the kind of test; whether its response is
compressible or incompressible comes from the model
(``MaterialModel.incompressible``).  Compressible protocols enforce
traction-free lateral faces by solving the lateral-stress root problem
numerically (bracketing scan in log-stretch space, bisection, Newton polish).
Incompressible protocols have closed kinematics; the pressure is fixed by the
traction-free direction, and hydrostatic tension is rejected there.  Sweeps
march outward from the reference stretch so every solve is warm-started by
continuation.

The driving stress is the principal Cauchy stress sigma_1 for compressible
protocols and the principal Kirchhoff stress tau_1 (equal to Cauchy at J = 1)
for incompressible ones.  Its slope along the protocol path is exact: the
implicit-function theorem through the traction-free constraint, with the
stress Jacobian of ``MaterialModel.stress_jac``.

Every per-state quantity of a curve (lateral stretch, driving and Biot
stress, energy, incremental moduli) comes from one batched evaluation at
already-solved closures, ``_curve_rows``; ``sweep`` calls it on the whole
grid and the single-state functions on one row.
"""

import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SolverError, UsageError

__all__ = [
    "CurveTable",
    "LateralSolution",
    "MODULUS_FACTOR",
    "PROTOCOL_KINDS",
    "Protocol",
    "driving_stress",
    "incremental_moduli",
    "lateral_closure",
    "sweep",
]

PROTOCOL_KINDS = ("uniaxial", "equibiaxial", "planar", "hydrostatic")

# Multiplicity factor relating the driving-stress slope to the named modulus:
# Young's (uniaxial), equibiaxial A, planar tension PT, bulk kappa.
MODULUS_FACTOR = {"uniaxial": 1.0, "equibiaxial": 0.5, "planar": 1.0, "hydrostatic": 1.0 / 3.0}

CSV_HEADER = (
    "lambda1,lambda_lateral,stress_driving,stress_biot,energy,modulus_incr,modulus_incr_log"
)

_Y_LO, _Y_HI = math.log(1e-3), math.log(1e3)
_X_RANGE = -math.log(sys.float_info.min)  # |log| of the smallest normal double
_SCAN_POINTS = 64


@dataclass(frozen=True)
class Protocol:
    kind: str

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ConfigurationError(f"unknown protocol '{self.kind}'")


@dataclass(frozen=True)
class LateralSolution:
    """Lateral stretches (and pressure, if incompressible) closing a protocol
    at a given driving stretch.  ``candidates`` lists every bracketed lateral
    root; the one continuous with the continuation branch was selected."""

    lam2: float
    lam3: float
    pressure: float | None = None
    residual: float = 0.0
    candidates: tuple = ()


def _residual_builder(model, kind, x1):
    """Vectorized lateral-stress residual r(y) and its derivative, with y the
    log of the solved lateral stretch."""

    def states(y):
        y = np.asarray(y, dtype=float)
        one = np.broadcast_to(x1, y.shape)
        if kind == "uniaxial":
            return np.stack([one, y, y], axis=-1)
        if kind == "equibiaxial":
            return np.stack([one, one, y], axis=-1)
        return np.stack([one, y, np.zeros_like(y)], axis=-1)  # planar

    free = 2 if kind == "equibiaxial" else 1

    def r(y):
        return model.cauchy_principal(states(y))[..., free]

    def dr(y):
        dsig = model.stress_jac(states(y))[1][..., free, :]
        if kind == "uniaxial":
            return dsig[..., 1] + dsig[..., 2]
        return dsig[..., free]

    return r, dr, states, free


def _refine_root(r, dr, lo, hi):
    """Bisection to a 1e-12 interval, then two Newton polishes kept inside the
    bracket."""
    flo = r(lo)
    y = 0.5 * (lo + hi)
    while hi - lo > 1e-12:
        y = 0.5 * (lo + hi)
        fy = r(y)
        if fy == 0.0:
            break
        if (fy > 0) == (flo > 0):
            lo, flo = y, fy
        else:
            hi = y
    for _ in range(2):
        fy = r(y)
        slope = dr(y)
        if slope == 0.0:
            break
        step = fy / slope
        if not np.isfinite(step):
            break
        cand = y - step
        if lo - 1e-9 <= cand <= hi + 1e-9:
            y = cand
    return float(y)


def _bracket_scan(r):
    ys = np.linspace(_Y_LO, _Y_HI, _SCAN_POINTS)
    vals = r(ys)
    brackets = []
    for i in range(len(ys) - 1):
        a, b = vals[i], vals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            brackets.append((ys[i], ys[i]))
        elif a * b < 0.0:
            brackets.append((ys[i], ys[i + 1]))
    if np.isfinite(vals[-1]) and vals[-1] == 0.0:
        brackets.append((ys[-1], ys[-1]))
    return ys, vals, brackets


def _solve_lateral(model, kind, lam1, warm=None):
    """Root(s) of the lateral traction condition; returns (chosen_y, all_roots)."""
    x1 = math.log(lam1)
    r, dr, _, _ = _residual_builder(model, kind, x1)
    guess = math.log(warm) if warm is not None else 0.0

    if warm is not None:
        # continuation: expanding bracket around the previous solution
        width = 0.02
        while width <= (_Y_HI - _Y_LO):
            lo = max(guess - width, _Y_LO)
            hi = min(guess + width, _Y_HI)
            flo, fhi = r(lo), r(hi)
            if np.isfinite(flo) and np.isfinite(fhi) and flo * fhi <= 0.0:
                root = _refine_root(r, dr, lo, hi)
                return root, (root,)
            width *= 2.0

    ys, vals, brackets = _bracket_scan(r)
    if not brackets:
        raise SolverError(
            f"lateral root not bracketed for protocol '{kind}' at lambda1 = {lam1}; "
            f"scanned lateral range [1e-3, 1e3]",
            scan=list(zip(np.exp(ys), vals)),
        )
    roots = tuple(
        _refine_root(r, dr, lo, hi) if hi > lo else float(lo) for lo, hi in brackets
    )
    chosen = min(roots, key=lambda y: abs(y - guess))
    return chosen, roots


_INCOMP_FREE = {"uniaxial": 1, "equibiaxial": 2, "planar": 1}


def _incompressible_kinematics(kind, lam1):
    if kind == "hydrostatic":
        raise UsageError(
            "hydrostatic tension is kinematically impossible at J = 1 "
            "with equal stretches"
        )
    x = math.log(lam1) * np.array(_INCOMP_RATES[kind])
    if np.max(np.abs(x)) > _X_RANGE:
        raise DomainError(f"protocol '{kind}' at lambda1 = {lam1}: the closed kinematics "
                          f"give stretches exp({x.tolist()}) outside the floating-point range")
    if kind == "uniaxial":
        return lam1 ** -0.5, lam1 ** -0.5
    if kind == "equibiaxial":
        return lam1, lam1 ** -2.0
    return 1.0 / lam1, 1.0  # planar


def lateral_closure(model, protocol: Protocol, lam1, warm=None) -> LateralSolution:
    """Lateral stretches (lam2, lam3) and, for incompressible models, the
    pressure that close the protocol at driving stretch lam1.

    ``warm`` is an optional continuation guess for the solved lateral stretch;
    without it the solver cold-starts from a full bracketing scan.
    """
    if lam1 <= 0.0 or not np.isfinite(lam1):
        raise ConfigurationError(f"driving stretch must be positive, got {lam1}")
    if model.incompressible:
        lam2, lam3 = _incompressible_kinematics(protocol.kind, lam1)
        x = np.log([lam1, lam2, lam3])
        t = model.extra_tau(x)
        p = float(t[_INCOMP_FREE[protocol.kind]])
        return LateralSolution(lam2=lam2, lam3=lam3, pressure=p, residual=0.0)

    if protocol.kind == "hydrostatic":
        return LateralSolution(lam2=lam1, lam3=lam1)

    y, roots = _solve_lateral(model, protocol.kind, lam1, warm=warm)
    r, dr, states, free = _residual_builder(model, protocol.kind, math.log(lam1))
    res = float(r(y))
    scale = max(1.0, float(np.max(np.abs(model.cauchy_principal(states(y))))))
    for _ in range(3):
        if abs(res) <= 1e-10 * scale:
            break
        slope = dr(y)
        if slope == 0.0:
            break
        y -= res / slope
        res = float(r(y))
    if abs(res) > 1e-10 * scale:
        raise SolverError(
            f"lateral residual {res} above tolerance at lambda1 = {lam1}"
        )
    lat = math.exp(y)
    cands = tuple(math.exp(v) for v in roots)
    if protocol.kind == "uniaxial":
        return LateralSolution(lam2=lat, lam3=lat, residual=res, candidates=cands)
    if protocol.kind == "equibiaxial":
        return LateralSolution(lam2=lam1, lam3=lat, residual=res, candidates=cands)
    return LateralSolution(lam2=lat, lam3=1.0, residual=res, candidates=cands)


def _lateral_of(protocol, closure):
    """The non-driven stretch of a closure."""
    return closure.lam3 if protocol.kind == "equibiaxial" else closure.lam2


def driving_stress(model, protocol: Protocol, lam1, warm=None):
    """Driving stress and its closure at lam1: Cauchy sigma_1 for compressible
    protocols, Kirchhoff tau_1 for incompressible ones."""
    closure = lateral_closure(model, protocol, lam1, warm=warm)
    row = _curve_rows(model, protocol, [lam1], [closure], with_moduli=False)
    return float(row.stress_driving[0]), closure


# Rates of the log-stretches x along a protocol path, per unit log(lambda1).
# Compressible: x = a x1 + b y with y the solved lateral log-stretch and
# f the traction-free axis, sigma_f(x) = 0.  Incompressible: x = c x1 and the
# driving stress is t_1 - t_f.
_COMP_RATES = {
    "uniaxial": ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0), 1),
    "equibiaxial": ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0), 2),
    "planar": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1),
    "hydrostatic": ((1.0, 1.0, 1.0), None, None),
}
_INCOMP_RATES = {"uniaxial": (1.0, -0.5, -0.5), "equibiaxial": (1.0, 1.0, -2.0),
                 "planar": (1.0, -1.0, 0.0)}


def _log_slopes(model, protocol, x):
    """d(driving stress)/d(log lambda1) along the protocol path at solved
    log-stretches x of shape (..., 3).

    With G = d s / d x from ``stress_jac``, compressible paths hold the lateral
    stress at zero, so the implicit-function theorem gives
    dy/dx1 = -(G a)_f / (G b)_f and the slope (G a)_1 + (G b)_1 dy/dx1; for
    uniaxial that is G11 - (G12 + G13) G21 / (G22 + G23).  Incompressible
    paths have closed kinematics and slope (G c)_1 - (G c)_f.
    """
    G = model.stress_jac(x)[1]
    if model.incompressible:
        Gc = G @ np.array(_INCOMP_RATES[protocol.kind])
        return Gc[..., 0] - Gc[..., _INCOMP_FREE[protocol.kind]]
    a, b, f = _COMP_RATES[protocol.kind]
    Ga = G @ np.array(a)
    if b is None:
        return Ga[..., 0]
    Gb = G @ np.array(b)
    return Ga[..., 0] - Gb[..., 0] * Ga[..., f] / Gb[..., f]


def incremental_moduli(model, protocol: Protocol, lam1, closure=None):
    """Incremental modulus pair (slope form, log form) at lam1.

    modulus_incr = factor * d(driving stress)/d(lambda1) with the protocol's
    multiplicity factor; modulus_incr_log = lambda1 * modulus_incr =
    factor * d(driving stress)/d(log lambda1).  The slope is exact (see
    ``_log_slopes``) at the closure of lam1: ``closure`` when the caller has
    already solved it, otherwise one cold ``lateral_closure``.
    """
    if closure is None:
        closure = lateral_closure(model, protocol, lam1)
    row = _curve_rows(model, protocol, [lam1], [closure])
    return float(row.modulus_incr[0]), float(row.modulus_incr_log[0])


@dataclass
class CurveTable:
    """Stretch-stress-energy curve of one protocol sweep, one row per grid
    point, lambda1 strictly increasing."""

    lambda1: np.ndarray
    lambda_lateral: np.ndarray
    stress_driving: np.ndarray
    stress_biot: np.ndarray
    energy: np.ndarray
    modulus_incr: np.ndarray
    modulus_incr_log: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        cols = (
            self.lambda1,
            self.lambda_lateral,
            self.stress_driving,
            self.stress_biot,
            self.energy,
            self.modulus_incr,
            self.modulus_incr_log,
        )
        for row in zip(*cols):
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CurveTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != CSV_HEADER:
            raise ConfigurationError("unrecognized curve CSV header")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        arr = np.array(rows, dtype=float).reshape(len(rows), 7)
        return cls(*(arr[:, i].copy() for i in range(7)))


def _curve_rows(model, protocol, lam1s, closures, with_moduli=True) -> CurveTable:
    """Every curve column at driving stretches lam1s and their solved
    closures, in one batched evaluation.  The modulus columns are NaN unless
    ``with_moduli``."""
    lam1 = np.asarray(lam1s, dtype=float)
    lams = np.array([(l1, c.lam2, c.lam3) for l1, c in zip(lam1, closures)])
    x = np.log(lams)
    if model.incompressible:
        drv = model.extra_tau(x)[:, 0] - np.array([c.pressure for c in closures])
        biot = drv / lam1
    else:
        drv = model.cauchy_principal(x)[:, 0]
        biot = lams[:, 1] * lams[:, 2] * drv
    if with_moduli:
        mod_log = MODULUS_FACTOR[protocol.kind] * _log_slopes(model, protocol, x)
        mod = mod_log / lam1
    else:
        mod, mod_log = np.full((2, len(lam1)), np.nan)
    return CurveTable(
        lambda1=lam1,
        lambda_lateral=np.array([_lateral_of(protocol, c) for c in closures]),
        stress_driving=drv,
        stress_biot=biot,
        energy=model.energy(lams),
        modulus_incr=mod,
        modulus_incr_log=mod_log,
    )


def sweep(model, protocol: Protocol, lam_min, lam_max, steps, with_moduli=True) -> CurveTable:
    """Sweep the protocol over a stretch grid, marching outward from the
    reference state in both directions so every closure is warm-started.

    The grid is linspace(lam_min, lam_max, steps); 1.0 is inserted when the
    range straddles it so the reference row exists and seeds the continuation.
    """
    if not (0.0 < lam_min < lam_max):
        raise ConfigurationError(f"need 0 < lam_min < lam_max, got ({lam_min}, {lam_max})")
    if steps < 2:
        raise ConfigurationError(f"need steps >= 2, got {steps}")

    grid = list(np.linspace(lam_min, lam_max, int(steps)))
    if lam_min < 1.0 < lam_max and not any(abs(g - 1.0) < 1e-12 for g in grid):
        grid = sorted(grid + [1.0])
    grid = np.asarray(grid)

    n = len(grid)
    closures: list = [None] * n
    upper = [i for i in range(n) if grid[i] >= 1.0]
    lower = [i for i in range(n) if grid[i] < 1.0][::-1]
    for chain in (upper, lower):
        warm = 1.0
        for i in chain:
            try:
                closure = lateral_closure(model, protocol, float(grid[i]), warm=warm)
            except SolverError as exc:
                raise SolverError(f"sweep failed at lambda1 = {grid[i]}: {exc}") from exc
            closures[i] = closure
            warm = _lateral_of(protocol, closure)
    return _curve_rows(model, protocol, grid, closures, with_moduli)
