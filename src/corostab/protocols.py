"""Homogeneous test protocols: uniaxial, equibiaxial, planar and hydrostatic
tension, for compressible and incompressible response.

A ``Protocol`` names only the kind of test; whether its response is
compressible or incompressible comes from the model
(``MaterialModel.incompressible``).  Compressible protocols enforce
traction-free lateral faces by one root solve, ``_solve_lateral``, for every
caller: a batched scan in log-stretch space of the lateral Kirchhoff stress
tau_f and its slope over a fixed grid, bisection and Newton polish of every
bracketed root, and the root nearest a reference lateral stretch chosen.  The
candidate roots depend on the state alone; the reference only chooses among
them.  It is 1 for a single state; a sweep marches outward from the
reference stretch and passes each row's lateral stretch to the next.
Incompressible protocols have closed kinematics; the pressure is fixed by the
traction-free direction, and hydrostatic tension is rejected there.

The driving stress is the principal Cauchy stress sigma_1 for compressible
protocols and the principal Kirchhoff stress tau_1 (equal to Cauchy at J = 1)
for incompressible ones.  Its slope along the protocol path is exact: the
implicit-function theorem through the traction-free constraint, with the
stress Jacobian of ``MaterialModel.stress_jac``.

Every per-state quantity of a curve (lateral stretch, driving and Biot
stress, energy, incremental moduli) comes from one ``stress_jac`` evaluation
at already-solved stretches, ``_curve_rows``; ``sweep`` calls it on the
whole grid and the single-state functions on one row.  ``CurveTable``
states which of its columns must be finite.
"""

import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SolverError, UsageError, check_finite, quiet_fp

__all__ = [
    "CurveTable",
    "LateralSolution",
    "MODULUS_FACTOR",
    "PROTOCOL_KINDS",
    "Protocol",
    "driving_stress",
    "incremental_moduli",
    "lateral_closure",
    "solved_state",
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
# 64 points over [1e-3, 1e3] and, past each end, 10 more at
# +-(log 1e3 + 6.9 * 2^k), k = -3..6: out to about 1e195, inside _X_RANGE
_OUTER = _Y_HI + 6.9 * 2.0 ** np.arange(-3, 7)
_GRID = np.concatenate([-_OUTER[::-1], np.linspace(_Y_LO, _Y_HI, 64), _OUTER])

# Rates of the log-stretches x along a protocol path, per unit log(lambda1).
# Compressible: x = a x1 + b y with y the solved lateral log-stretch and
# f the lateral axis: traction-free, tau_f(x) = J sigma_f(x) = 0, and the
# stretch reported as lambda_lateral (lambda_2 on the hydrostatic path, which
# solves nothing).  Incompressible: x = c x1 and the driving stress is
# t_1 - t_f, with the same f.
_COMP_RATES = {
    "uniaxial": ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0), 1),
    "equibiaxial": ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0), 2),
    "planar": ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1),
    "hydrostatic": ((1.0, 1.0, 1.0), None, 1),
}
_INCOMP_RATES = {"uniaxial": (1.0, -0.5, -0.5), "equibiaxial": (1.0, 1.0, -2.0),
                 "planar": (1.0, -1.0, 0.0)}


@dataclass(frozen=True)
class Protocol:
    kind: str

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ConfigurationError(f"unknown protocol '{self.kind}'")


@dataclass(frozen=True)
class LateralSolution:
    """Lateral stretches (and pressure, if incompressible) closing a protocol
    at a given driving stretch.  ``candidates`` lists every lateral root
    found; the one nearest the reference lateral stretch was selected."""

    lam2: float
    lam3: float
    pressure: float | None = None
    residual: float = 0.0
    candidates: tuple = ()


def _residual_builder(model, kind, x1):
    """The log-stretch states of ``kind``'s compressible path at lateral
    log-stretch y, the traction-free Kirchhoff stress r(y) = tau_f there and
    its derivative dr/dy; all three vectorized over y."""
    a, b, f = _COMP_RATES[kind]
    driven, solved = np.flatnonzero(a), np.flatnonzero(b)

    def states(y):
        y = np.asarray(y, dtype=float)
        x = np.zeros(y.shape + (3,))
        x[..., driven] = x1
        x[..., solved] = y[..., None]
        return x

    def r(y):
        return model.kirchhoff_principal(states(y))[..., f]

    def dr(y):
        return model.ghat_hess(states(y))[..., f, solved].sum(axis=-1)

    return states, r, dr


def _refine_root(r, dr, lo, hi):
    """Bisection of r to a 1e-12 interval, then, unless the derivative ``dr``
    is None, two Newton polishes kept inside the bracket."""
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
    for _ in range(0 if dr is None else 2):
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


def _solve_lateral(r, dr, kind, lam1, ref):
    """Every lateral root found at lam1 and the one nearest the reference
    lateral stretch ``ref``: (chosen y, sorted candidate y's), y the lateral
    log-stretch.  The candidates depend on lam1 alone.

    One evaluation of r and dr covers the grid (64 points over [1e-3, 1e3]
    and 10 outer points past each end, out to about 1e195).  A grid cell
    whose ends differ in sign in r gives one root, bisected on the cell.  A
    cell where r keeps its sign but dr changes it gives the root y* of dr,
    bisected on the cell: where r(y*) has the other sign, the cell holds two
    roots, bisected on [lo, y*] and [y*, hi]; where r(y*) is exactly zero,
    y* is a double root.  A grid point where r is exactly zero is a root,
    and a point where r or dr is not finite brackets nothing.  Limit: a cell
    where dr changes sign twice, with r of one sign at both ends, still hides
    a pair of roots.
    """
    vals, slopes = r(_GRID), dr(_GRID)
    sign = np.where(np.isfinite(vals), np.sign(vals), np.nan)  # NaN compares False
    dsign = np.where(np.isfinite(slopes), np.sign(slopes), np.nan)
    ends = sign[:-1] * sign[1:]
    flip = ends < 0.0
    turn = (ends > 0.0) & (dsign[:-1] * dsign[1:] < 0.0)
    brackets = [*zip(_GRID[:-1][flip], _GRID[1:][flip])]
    roots = [float(z) for z in _GRID[sign == 0.0]]
    for lo, hi, s in zip(_GRID[:-1][turn], _GRID[1:][turn], sign[:-1][turn]):
        y = _refine_root(dr, None, lo, hi)
        ry = r(y)
        if ry == 0.0:
            roots.append(y)
        elif ry * s < 0.0:
            brackets += [(lo, y), (y, hi)]
    if not (brackets or roots):
        raise SolverError(
            f"lateral root not bracketed for protocol '{kind}' at lambda1 = {lam1}; "
            f"scanned lateral range [{math.exp(_GRID[0]):.3g}, {math.exp(_GRID[-1]):.3g}]",
            scan=list(zip(np.exp(_GRID), vals)),
        )
    roots = sorted(roots + [_refine_root(r, dr, lo, hi) for lo, hi in brackets])
    y_ref = math.log(ref)
    return min(roots, key=lambda y: abs(y - y_ref)), tuple(roots)


def _incompressible_kinematics(kind, lam1):
    if kind == "hydrostatic":
        raise UsageError(
            "hydrostatic tension is kinematically impossible at J = 1 "
            "with equal stretches"
        )
    rates = _INCOMP_RATES[kind]
    x = math.log(lam1) * np.array(rates)
    if np.max(np.abs(x)) > _X_RANGE:
        raise DomainError(f"protocol '{kind}' at lambda1 = {lam1}: the closed kinematics "
                          f"give stretches exp({x.tolist()}) outside the floating-point range")
    # lam1 ** c, with the rate -1 written 1 / lam1 as the closed form reads
    return tuple(1.0 / lam1 if c == -1.0 else lam1 ** c for c in rates[1:])


@quiet_fp
def lateral_closure(model, protocol: Protocol, lam1, warm=None) -> LateralSolution:
    """Lateral stretches (lam2, lam3) and, for incompressible models, the
    pressure that close the protocol at driving stretch lam1.

    Compressible closures find every candidate root of tau_f from lam1
    alone and take the one nearest a reference lateral stretch (see
    ``_solve_lateral``): ``warm`` if given, as a sweep passes its previous
    row, otherwise 1, the reference state's.  ``warm`` only chooses among the
    candidates.  An incompressible pressure beyond the double range is a
    DomainError naming the state; the extra stresses it does not read may
    overflow unseen.
    """
    if lam1 <= 0.0 or not np.isfinite(lam1):
        raise ConfigurationError(f"driving stretch must be positive and finite, got {lam1}")
    kind = protocol.kind
    if model.incompressible:
        lam2, lam3 = _incompressible_kinematics(kind, lam1)
        pressure = float(model.extra_tau(np.log([lam1, lam2, lam3]))[_COMP_RATES[kind][2]])
        check_finite(f"protocol '{kind}': ", "lambda1", np.array([lam1]), np.array([pressure]))
        return LateralSolution(lam2=lam2, lam3=lam3, pressure=pressure, residual=0.0)
    if kind == "hydrostatic":
        return LateralSolution(lam2=lam1, lam3=lam1)

    states, r, dr = _residual_builder(model, kind, math.log(lam1))
    y, roots = _solve_lateral(r, dr, kind, lam1, 1.0 if warm is None else warm)
    a, b, f = _COMP_RATES[kind]
    s = model.cauchy_principal(states(y))
    res = float(s[f])
    if abs(res) > 1e-10 * max(1.0, float(np.max(np.abs(s)))):
        raise SolverError(
            f"lateral residual {res} above tolerance at lambda1 = {lam1}"
        )
    lat = math.exp(y)
    lam2, lam3 = (lam1 if a[i] else lat if b[i] else 1.0 for i in (1, 2))
    return LateralSolution(lam2=lam2, lam3=lam3, residual=res,
                           candidates=tuple(math.exp(v) for v in roots))


def solved_state(model, protocol: Protocol, lam1, closure=None, warm=None, with_moduli=True):
    """Closure and curve row (a one-row ``CurveTable``) of the state lam1.

    The closure is ``closure`` when the caller has solved it, otherwise one
    ``lateral_closure`` (``warm`` as there).  A row that breaks
    ``CurveTable.require_finite`` is a DomainError naming the state."""
    if closure is None:
        closure = lateral_closure(model, protocol, lam1, warm=warm)
    row = _curve_rows(model, protocol, [[lam1, closure.lam2, closure.lam3]], with_moduli)
    row.require_finite(protocol.kind, with_moduli)
    return closure, row


def driving_stress(model, protocol: Protocol, lam1, warm=None):
    """Driving stress and its closure at lam1: Cauchy sigma_1 for compressible
    protocols, Kirchhoff tau_1 for incompressible ones.  A value beyond the
    double range is a DomainError (``solved_state``)."""
    closure, row = solved_state(model, protocol, lam1, warm=warm, with_moduli=False)
    return float(row.stress_driving[0]), closure


def incremental_moduli(model, protocol: Protocol, lam1, closure=None):
    """Incremental modulus pair (slope form, log form) at lam1.

    modulus_incr = factor * d(driving stress)/d(lambda1) with the protocol's
    multiplicity factor; modulus_incr_log = lambda1 * modulus_incr =
    factor * d(driving stress)/d(log lambda1).  The slope is exact (see
    ``_curve_rows``) at the closure of lam1: ``closure`` when the caller has
    already solved it, otherwise one cold ``lateral_closure``.  A value
    beyond the double range is a DomainError (``solved_state``).
    """
    row = solved_state(model, protocol, lam1, closure=closure)[1]
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

    def require_finite(self, protocol_kind, with_moduli=True):
        """The one rule of which columns must be finite: every column, the
        modulus columns only ``with_moduli``.  A row that breaks it is a
        DomainError naming how many rows do and the first one's lambda1."""
        columns = [v for k, v in vars(self).items() if with_moduli or not k.startswith("modulus")]
        check_finite(f"protocol '{protocol_kind}': ", "lambda1", self.lambda1, *columns)


@quiet_fp
def _curve_rows(model, protocol, lams, with_moduli=True) -> CurveTable:
    """Every curve column at solved stretches ``lams`` (n, 3) from one
    evaluation s, G = ``stress_jac`` at x = log(lams); a row with NaN lateral
    stretches is NaN but for lambda1, and so are the modulus columns unless
    ``with_moduli``.

    The driving stress is s_1 for compressible protocols and t_1 - t_f for
    incompressible ones, the pressure being the extra stress t_f of the
    traction-free axis f.  Its slope d/d(log lambda1) comes from G.
    Compressible paths hold s_f at zero, so the implicit-function theorem
    gives dy/dx1 = -(G a)_f / (G b)_f and the slope (G a)_1 + (G b)_1 dy/dx1;
    for uniaxial that is G11 - (G12 + G13) G21 / (G22 + G23).
    Incompressible paths have closed kinematics and slope (G c)_1 - (G c)_f.
    """
    lams = np.asarray(lams, dtype=float)
    lam1 = lams[:, 0]
    a, b, f = _COMP_RATES[protocol.kind]
    s, G = model.stress_jac(np.log(lams))
    if model.incompressible:
        drv = s[:, 0] - s[:, f]
        biot = drv / lam1
        Gc = G @ np.array(_INCOMP_RATES[protocol.kind])
        slope = Gc[:, 0] - Gc[:, f]
    else:
        drv = s[:, 0]
        biot = lams[:, 1] * lams[:, 2] * drv
        Ga = G @ np.array(a)
        slope = Ga[:, 0]
        if b is not None:
            Gb = G @ np.array(b)
            slope = slope - Gb[:, 0] * Ga[:, f] / Gb[:, f]
    mod_log = MODULUS_FACTOR[protocol.kind] * slope if with_moduli else np.full(len(lam1), np.nan)
    return CurveTable(
        lambda1=lam1,
        lambda_lateral=lams[:, f],
        stress_driving=drv,
        stress_biot=biot,
        energy=model.energy(lams),
        modulus_incr=mod_log / lam1,
        modulus_incr_log=mod_log,
    )


def sweep(model, protocol: Protocol, lam_min, lam_max, steps, with_moduli=True) -> CurveTable:
    """Sweep the protocol over a stretch grid, marching outward from the
    reference state in both directions; each closure takes, among the roots
    of its state, the one nearest the last solved lateral stretch.

    The grid is linspace(lam_min, lam_max, steps); 1.0 is inserted when the
    range straddles it so the reference row exists and seeds the continuation.
    A state whose closure fails (no bracketed root, a residual above
    tolerance, closed incompressible kinematics outside the floating-point
    range, or a pressure beyond it) is a row of NaN but for lambda1; the
    march goes on from the last solved state.
    """
    if not (0.0 < lam_min < lam_max < math.inf):
        raise ConfigurationError(f"need 0 < lam_min < lam_max < inf, got ({lam_min}, {lam_max})")
    if steps < 2:
        raise ConfigurationError(f"need steps >= 2, got {steps}")

    grid = list(np.linspace(lam_min, lam_max, int(steps)))
    if lam_min < 1.0 < lam_max and not any(abs(g - 1.0) < 1e-12 for g in grid):
        grid = sorted(grid + [1.0])
    grid = np.asarray(grid)

    n = len(grid)
    lams = np.column_stack([grid, np.full((n, 2), np.nan)])
    f = _COMP_RATES[protocol.kind][2]
    upper = [i for i in range(n) if grid[i] >= 1.0]
    lower = [i for i in range(n) if grid[i] < 1.0][::-1]
    for chain in (upper, lower):
        warm = 1.0
        for i in chain:
            try:
                closure = lateral_closure(model, protocol, float(grid[i]), warm=warm)
            except (SolverError, DomainError):
                continue
            lams[i, 1:] = closure.lam2, closure.lam3
            warm = float(lams[i, f])
    return _curve_rows(model, protocol, lams, with_moduli)
