"""The three benchmark workloads and the oracle check of each operation.

A workload is an endless sequence of rounds.  Each round is a list of
operations with a fixed composition (models, protocols, sizes); the seed
picks the material parameters, stretch ranges, stretch values and order, so
every seed costs about the same and the spread between runs measures the
program, not the draw.  One operation is one ``corostab`` command line run
in-process through ``corostab.cli.main``.
"""

import json
import math

import numpy as np

import oracle as O

# Grid sizes of the scans (states = n ** 3).  exp_hencky gets the larger
# grid so its commands never overlap the quadratic_hencky ones in latency.
SCAN_N = 11
SCAN_N_EXP = 13
SWEEP_MODULI_STEPS = 24
SWEEP_PLAIN_STEPS = 80
POINT_QUERIES = 40
POINT_LAMBDA = (0.05, 10.0)
RATE_CASES = 20

COMPRESSIBLE = ("exp_hencky", "quadratic_hencky", "neo_hooke_vol_iso")
INCOMPRESSIBLE = ("neo_hooke_incompressible", "quadratic_hencky_incompressible",
                  "exp_hencky_incompressible")
COMP_PROTOCOLS = ("uniaxial", "equibiaxial", "planar", "hydrostatic")
INCOMP_PROTOCOLS = ("uniaxial", "equibiaxial", "planar")

_FLAG = {"mu": "--mu", "lambda_lame": "--lambda-lame", "E": "--E", "nu": "--nu",
         "k": "--k", "khat": "--khat", "kappa": "--kappa"}


def _num(v):
    return f"{v:.6g}"


def draw_params(kind, rng):
    """Material parameters near the README defaults.  quadratic_hencky keeps
    nu = 0.3 so its uniaxial stress peak stays at lambda1 = e^2.5."""
    u = rng.uniform
    if kind == "exp_hencky":
        p = {"mu": u(0.8, 1.25), "lambda_lame": u(1.5, 2.5), "k": u(0.8, 1.2), "khat": u(0.8, 1.2)}
    elif kind == "quadratic_hencky":
        p = {"E": u(0.5, 2.0), "nu": 0.3}
    elif kind == "neo_hooke_vol_iso":
        p = {"mu": u(0.8, 1.25), "kappa": u(2.5, 3.5)}
    elif kind == "exp_hencky_incompressible":
        p = {"mu": u(0.8, 1.25), "k": u(0.8, 1.2)}
    else:
        p = {"mu": u(0.8, 1.25)}
    return {k: float(_num(v)) for k, v in p.items()}


def model_args(kind, params):
    out = ["--model", kind]
    for k, v in params.items():
        out += [_FLAG[k], _num(v)]
    return out


class Op:
    """One command line plus what its oracle needs."""

    def __init__(self, argv, check, work, **spec):
        self.argv = argv
        self.check = check  # check(op, stdout) -> list of failure strings
        self.work = work  # rows / states / queries this op completes
        self.spec = spec

    @property
    def command(self):
        return self.argv[0]


# --- sweep ---------------------------------------------------------------------

def _sweep_op(rng, kind, protocol, lo, hi, steps, moduli=True):
    params = draw_params(kind, rng)
    lo, hi = float(_num(lo)), float(_num(hi))
    argv = (["sweep"] + model_args(kind, params)
            + ["--protocol", protocol, "--lambda-min", _num(lo), "--lambda-max", _num(hi),
               "--steps", str(steps)] + ([] if moduli else ["--no-moduli"]))
    grid = list(np.linspace(lo, hi, steps))
    if lo < 1.0 < hi and not any(abs(g - 1.0) < 1e-12 for g in grid):
        grid = sorted(grid + [1.0])
    return Op(argv, check_sweep, len(grid), kind=kind, params=params, protocol=protocol,
              grid=np.array(grid), moduli=moduli)


def sweep_round(rng):
    j = rng.uniform
    ops = [
        _sweep_op(rng, "exp_hencky", "uniaxial", j(0.45, 0.55), j(2.8, 3.2), SWEEP_MODULI_STEPS),
        _sweep_op(rng, "quadratic_hencky", "uniaxial", j(0.45, 0.55), j(13.5, 14.5), SWEEP_MODULI_STEPS),
        _sweep_op(rng, "neo_hooke_vol_iso", "equibiaxial", j(0.45, 0.55), j(2.8, 3.2), SWEEP_MODULI_STEPS),
        _sweep_op(rng, "neo_hooke_vol_iso", "planar", j(0.45, 0.55), j(2.8, 3.2), SWEEP_MODULI_STEPS),
        _sweep_op(rng, "exp_hencky", "uniaxial", j(0.45, 0.55), j(2.8, 3.2), SWEEP_PLAIN_STEPS,
                  moduli=False),
        _sweep_op(rng, INCOMPRESSIBLE[rng.integers(3)], "uniaxial", j(0.45, 0.55), j(3.8, 4.2),
                  SWEEP_PLAIN_STEPS),
    ]
    rng.shuffle(ops)
    return ops


def _incompressible_uniaxial(ref, lam):
    """README closed forms of the incompressible uniaxial curve tau_1(l1)."""
    mu, x = ref.mu, np.log(lam)
    if ref.kind == "neo_hooke_incompressible":
        return mu * (lam ** 2 - 1.0 / lam)
    if ref.kind == "quadratic_hencky_incompressible":
        return 3.0 * mu * x
    return mu * x * np.exp(1.5 * ref.p["k"] * x * x) * (np.sqrt(lam) + 2.0 / lam)


def _close(a, b, tol):
    return np.abs(np.asarray(a) - np.asarray(b)) <= tol


def check_sweep(op, out):
    fails = []
    lines = out.splitlines()
    if not lines or lines[0] != ("lambda1,lambda_lateral,stress_driving,stress_biot,energy,"
                                 "modulus_incr,modulus_incr_log"):
        return ["sweep: bad CSV header"]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    grid = op.spec["grid"]
    if rows.shape != (len(grid), 7):
        return [f"sweep: {rows.shape} rows, expected {len(grid)}x7"]
    lam, lat, drv, biot, en, mod, mod_log = rows.T
    if not np.array_equal(lam, grid):
        fails.append("sweep: lambda1 column differs from the requested grid")
    ref = O.Reference(op.spec["kind"], op.spec["params"])
    proto = op.spec["protocol"]
    states = np.array([O.protocol_state(proto, a, b) for a, b in zip(lam, lat)])
    x = np.log(states)
    scale = ref.stress_scale(x)
    if ref.incompressible:
        # README closed forms: l2 = l3 = l1^-1/2 and the tau_1(l1) curve
        if not np.all(_close(lat, lam ** -0.5, 1e-12 * lam ** -0.5)):
            fails.append("sweep: incompressible lateral stretch off l1^-1/2")
        want = _incompressible_uniaxial(ref, lam)
        slope = np.array([O.modulus(ref, proto, s) for s in states])
    else:
        sig = ref.sigma(x)
        if proto != "hydrostatic" and not np.all(
                np.abs(sig[:, O.FREE[proto]]) <= 1e-8 * np.maximum(1.0, np.abs(sig).max(-1))):
            fails.append("sweep: lateral traction residual above 1e-8 of stress scale")
        want = sig[:, 0]
        if ref.kind == "quadratic_hencky" and proto == "uniaxial":
            # closed form: x2 = -nu x, sigma_1 = E x e^{-(1-2nu)x}, exact slope
            E, nu = ref.p["E"], ref.p["nu"]
            x1 = np.log(lam)
            if not np.all(_close(lat, lam ** -nu, 1e-8 * lam ** -nu)):
                fails.append("sweep: quadratic_hencky lateral stretch off l1^-nu")
            want = E * x1 * np.exp(-(1 - 2 * nu) * x1)
            slope = E * np.exp(-(1 - 2 * nu) * x1) * (1 - (1 - 2 * nu) * x1) / lam
        else:
            slope = np.array([O.modulus(ref, proto, s) for s in states])
        if not np.all(_close(biot, states[:, 1] * states[:, 2] * drv, 1e-12 * np.abs(biot) + 1e-300)):
            fails.append("sweep: Biot column is not l2 l3 sigma_1")
    if not np.all(_close(drv, want, 1e-9 * scale)):
        fails.append("sweep: driving stress differs from the reference")
    if ref.incompressible and not np.all(_close(biot, drv / lam, 1e-12 * np.abs(biot) + 1e-300)):
        fails.append("sweep: Biot column is not tau_1 / l1")
    if not np.all(_close(en, ref.energy(x), 1e-9 * np.maximum(1.0, np.abs(en)))):
        fails.append("sweep: energy differs from the reference")
    if op.spec["moduli"]:
        if not np.all(_close(mod, slope, 1e-6 * np.maximum(scale, np.abs(slope)))):
            fails.append("sweep: incremental modulus differs from the exact slope")
        if not np.all(_close(mod_log, mod * lam, 1e-12 * np.abs(mod_log) + 1e-300)):
            fails.append("sweep: log modulus is not lambda1 times the modulus")
    elif not (np.all(np.isnan(mod)) and np.all(np.isnan(mod_log))):
        fails.append("sweep: --no-moduli row carries a modulus")
    return fails


# --- scan ------------------------------------------------------------------------

def scan_op(kind, params, grid, seed):
    argv = (["scan"] + model_args(kind, params)
            + ["--grid", ":".join(_num(g) for g in grid[:2]) + f":{grid[2]}", "--seed", str(seed)])
    return Op(argv, check_scan, grid[2] ** 3, kind=kind, params=params, grid=grid, seed=seed)


def scan_round(rng):
    """Three exp_hencky scans on 13^3 grids, one quadratic_hencky and one
    neo_hooke_incompressible scan on 11^3.  The median command is then an
    exp_hencky scan, not the boundary between two kinds of scan."""
    kinds = [("exp_hencky", SCAN_N_EXP)] * 3 + [("quadratic_hencky", SCAN_N),
                                                ("neo_hooke_incompressible", SCAN_N)]
    ops = [scan_op(kind, draw_params(kind, rng), (0.5, 3.0, n), int(rng.integers(1 << 30)))
           for kind, n in kinds]
    rng.shuffle(ops)
    return ops


def _key(state):
    return tuple(round(float(v), 12) for v in state)


def check_scan(op, out):
    """Recompute the scan's margins: every reported violation must re-evaluate
    to its margin, and every state the reference puts clearly past the
    witness threshold must be reported (clearly inside: must not be)."""
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return ["scan: stdout is not JSON"]
    lo, hi, n = op.spec["grid"]
    fails = []
    if rep["counts"]["states"] != n ** 3 or rep["counts"]["pairs"] != 128:
        fails.append("scan: state or pair count wrong")
    ref = O.Reference(op.spec["kind"], op.spec["params"])
    axis = np.linspace(lo, hi, n)
    states = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    x = np.log(states)
    if ref.incompressible:
        xs = x - x.mean(-1, keepdims=True)
        S = ref.t(xs)
        be_lams = np.exp(xs)
    else:
        xs, S, be_lams = x, ref.sigma(x), states
    scale = ref.stress_scale(xs)
    margins = {"csp": O.tangent_min_eig(ref, xs),
               "be": O.be_margin(S, be_lams)}
    tols = {"csp": 1e-6 * scale, "be": 1e-9 * scale * be_lams.max(-1)}
    if not ref.incompressible:
        margins["te"] = O.te_margin(ref, x)
        tols["te"] = 1e-6 * scale / states.min(-1)
    index = {_key(s): i for i, s in enumerate(states)}
    reported = {c: set() for c in margins}
    lh = []
    for v in rep["violations"]:
        c = v["check"]
        if c in margins:
            i = index.get(_key(v["state"]))
            if i is None:
                fails.append(f"scan: {c} violation at a state off the grid")
                continue
            reported[c].add(i)
            if abs(v["margin"] - margins[c][i]) > tols[c][i]:
                fails.append(f"scan: {c} margin {v['margin']} vs reference {margins[c][i]}")
        elif c == "lh":
            lh.append(v)
        elif c in ("hill", "tsts_m_plus"):
            a, b = np.log(v["state"]), np.log(v["state2"])
            if c == "hill" or ref.incompressible:
                a, b = a - a.mean(), b - b.mean()
                sa, sb = (ref.t(a), ref.t(b)) if ref.incompressible else (ref.tau(a), ref.tau(b))
            else:
                sa, sb = ref.sigma(a), ref.sigma(b)
            want = float(np.dot(sa - sb, a - b))
            if abs(v["margin"] - want) > 1e-8 * max(1.0, abs(want)):
                fails.append(f"scan: {c} pair margin {v['margin']} vs reference {want}")
        else:
            fails.append(f"scan: unknown check '{c}'")
    for c, m in margins.items():
        must = set(np.nonzero(m < O.WITNESS_MARGIN - tols[c])[0])
        must_not = set(np.nonzero(m > O.WITNESS_MARGIN + tols[c])[0])
        if must - reported[c] or must_not & reported[c]:
            fails.append(f"scan: {c} violations missing {len(must - reported[c])}, "
                         f"spurious {len(must_not & reported[c])}")
        if rep["counts"]["violations"][c] != len(reported[c]):
            fails.append(f"scan: {c} count disagrees with the listed violations")
    # rank-one: a sampled minimum can never lie below the exact minimum
    sample = np.random.default_rng(op.spec["seed"]).permutation(len(lh))[:8]
    for k in sample:
        v = lh[k]
        exact, a_scale = O.rank_one_min(ref, np.array(v["state"]))
        if v["margin"] < exact - 1e-4 * a_scale:
            fails.append(f"scan: lh margin {v['margin']} below the exact minimum {exact}")
    return fails


# --- point -------------------------------------------------------------------------

def _solve_lateral(ref, protocol, lam1):
    """Root of the lateral traction condition closest to log-lateral 0, by
    a scan over log(lateral) in [-7, 7] and bisection."""
    free = O.FREE[protocol]
    x1 = math.log(lam1)

    def r(y):
        y = np.asarray(y, dtype=float)
        one = np.full_like(y, x1)
        if protocol == "uniaxial":
            x = np.stack([one, y, y], -1)
        elif protocol == "equibiaxial":
            x = np.stack([one, one, y], -1)
        else:
            x = np.stack([one, y, np.zeros_like(y)], -1)
        return ref.sigma(x)[..., free]

    ys = np.linspace(-7.0, 7.0, 281)
    v = r(ys)
    idx = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) <= 0)[0]
    if len(idx) == 0:
        raise RuntimeError(f"reference closure found no root at {protocol} {lam1}")
    i = idx[np.argmin(np.abs(ys[idx]))]
    a, b = ys[i], ys[i + 1]
    fa = v[i]
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = float(r(m))
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return math.exp(0.5 * (a + b))


def _point_state(ref, protocol, lam1):
    if protocol == "hydrostatic":
        return np.array([lam1] * 3)
    if ref.incompressible:
        return O.protocol_state(protocol, lam1, O.incompressible_lateral(protocol, lam1))
    return O.protocol_state(protocol, lam1, _solve_lateral(ref, protocol, lam1))


def _point_op(command, kind, params, protocol, lam1):
    at = _num(lam1)
    argv = [command] + model_args(kind, params) + ["--protocol", protocol, "--at", at]
    return Op(argv, check_point, 1, kind=kind, params=params, protocol=protocol, lam1=float(at))


def point_round(rng):
    """POINT_QUERIES queries: 32 compressible `check` (two passes over the 12
    model x protocol pairs, 6 more drawn at random and 2 at the reference
    state), 2 incompressible `check`, 2 incompressible `moduli`, 2
    compressible `moduli` and 2 `rate-verify`.  Cheap incompressible queries
    are 10% and the compressible `check` 80%, so the median lies well inside
    the compressible `check` mode."""
    lo, hi = np.log(POINT_LAMBDA)

    def lam():
        return float(np.exp(rng.uniform(lo, hi)))

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def query(command, kinds, protocols, at=None):
        kind = pick(kinds)
        ops.append(_point_op(command, kind, draw_params(kind, rng), pick(protocols),
                             lam() if at is None else at))

    ops = []
    for _ in range(2):
        for kind in COMPRESSIBLE:
            for proto in COMP_PROTOCOLS:
                ops.append(_point_op("check", kind, draw_params(kind, rng), proto, lam()))
    for _ in range(6):
        query("check", COMPRESSIBLE, COMP_PROTOCOLS)
    for _ in range(2):  # the reference state: tangent spectrum {3 lam + 2 mu, 2 mu x5}
        query("check", COMPRESSIBLE, COMP_PROTOCOLS, at=1.0)
    for _ in range(2):
        query("check", INCOMPRESSIBLE, INCOMP_PROTOCOLS)
        query("moduli", INCOMPRESSIBLE, INCOMP_PROTOCOLS)
        query("moduli", COMPRESSIBLE, COMP_PROTOCOLS)
        kind = pick(COMPRESSIBLE)
        ops.append(Op(["rate-verify"] + model_args(kind, draw_params(kind, rng))
                      + ["--seed", str(int(rng.integers(1 << 30))), "--cases", str(RATE_CASES)],
                      check_rate, 1))
    rng.shuffle(ops)
    return ops


def check_rate(op, out):
    rep = json.loads(out)
    if rep.get("ok") is not True or rep.get("cases") != RATE_CASES:
        return [f"rate-verify: not ok ({rep.get('max_residuals')})"]
    return []


def check_point(op, out):
    rep = json.loads(out)
    sp = op.spec
    ref = O.Reference(sp["kind"], sp["params"])
    proto, lam1 = sp["protocol"], sp["lam1"]
    fails = []
    if op.command == "moduli":
        lams = _point_state(ref, proto, lam1)
    else:
        lams = np.array(rep["state"])
        if lams[0] != lam1:
            fails.append("check: state does not start at lambda1")
    x = np.log(lams)
    scale = float(ref.stress_scale(x))
    slope = O.modulus(ref, proto, lams)
    if abs(rep["modulus_incr"] - slope) > 1e-6 * max(scale, abs(slope)):
        fails.append(f"{op.command}: modulus {rep['modulus_incr']} vs exact {slope}")
    if abs(rep["modulus_incr_log"] - lam1 * rep["modulus_incr"]) > 1e-12 * abs(rep["modulus_incr_log"]) + 1e-300:
        fails.append(f"{op.command}: log modulus is not lambda1 times the modulus")
    if op.command == "moduli":
        return fails

    # `check`: closure, stresses, energy and stability margins
    if ref.incompressible:
        want_lat = _point_state(ref, proto, lam1)
        if not np.allclose(lams, want_lat, rtol=1e-12, atol=0.0):
            fails.append("check: incompressible kinematics differ from the README")
        t = ref.t(x)
        if abs(rep["pressure"] - t[O.FREE[proto]]) > 1e-9 * scale:
            fails.append("check: pressure does not free the lateral face")
        S = t
        tan = O.tangent_min_eig(ref, x - x.mean())
    else:
        sig = ref.sigma(x)
        if proto != "hydrostatic":
            if abs(sig[O.FREE[proto]]) > 1e-8 * max(1.0, np.abs(sig).max()):
                fails.append("check: lateral traction residual above 1e-8 of stress scale")
        S = sig
        tan = float(O.tangent_min_eig(ref, x))
        te = float(O.te_margin(ref, x))
        if abs(rep["stability"]["te_margin"] - te) > 1e-6 * scale / lams.min():
            fails.append(f"check: te margin {rep['stability']['te_margin']} vs exact {te}")
        exact, a_scale = O.rank_one_min(ref, lams)
        if rep["stability"]["lh_min_probe"] < exact - 1e-4 * a_scale:
            fails.append(f"check: rank-one probe {rep['stability']['lh_min_probe']} below exact {exact}")
        if lam1 == 1.0 and abs(tan - min(3 * ref.lam + 2 * ref.mu, 2 * ref.mu)) > 1e-9 * scale:
            fails.append("check: reference tangent spectrum is not {3 lam + 2 mu, 2 mu}")
    drv = O.driving(ref, proto, lams)
    if abs(rep["stress_driving"] - drv) > 1e-9 * scale:
        fails.append(f"check: driving stress {rep['stress_driving']} vs {drv}")
    if abs(rep["energy"] - float(ref.energy(x))) > 1e-9 * max(1.0, abs(rep["energy"])):
        fails.append("check: energy differs from the reference")
    st = rep["stability"]
    if abs(st["tangent_min_eig"] - tan) > 1e-6 * scale:
        fails.append(f"check: tangent min eig {st['tangent_min_eig']} vs exact {tan}")
    be = float(O.be_margin(S, lams))
    if abs(st["be_margin"] - be) > 1e-9 * scale * lams.max():
        fails.append(f"check: be margin {st['be_margin']} vs {be}")
    # verdicts: clearly past the witness threshold must be listed, clearly
    # inside it must not be
    margins = {"csp": (tan, 1e-6 * scale), "be": (be, 1e-9 * scale * lams.max())}
    if not ref.incompressible:
        margins["te"] = (te, 1e-6 * scale / lams.min())
    for name, (m, tol) in margins.items():
        listed = name in rep["violations"]
        if (m < O.WITNESS_MARGIN - tol and not listed) or (m > O.WITNESS_MARGIN + tol and listed):
            fails.append(f"check: '{name}' verdict disagrees with margin {m}")
    return fails


# --- known defects ---------------------------------------------------------------------

def known_defect_ops():
    """Inputs that fail at the baseline with 'deformation gradient must have
    positive determinant': the rank-one finite-difference step exceeds the
    smallest stretch.  They run in every run outside the timed loop so their
    state stays visible; see README.md in this directory."""
    base = {"exp_hencky": {"mu": 1.0, "lambda_lame": 2.0, "k": 1.0, "khat": 1.0},
            "quadratic_hencky": {"E": 1.0, "nu": 0.3},
            "neo_hooke_vol_iso": {"mu": 1.0, "kappa": 3.0}}
    ops = [scan_op(k, p, (0.01, 3.0, 5), 0) for k, p in base.items()]
    ops.append(_point_op("check", "quadratic_hencky", base["quadratic_hencky"], "equibiaxial", 0.02))
    ops.append(_point_op("check", "neo_hooke_vol_iso", base["neo_hooke_vol_iso"], "equibiaxial", 20.0))
    return ops


ROUNDS = {"sweep": sweep_round, "scan": scan_round, "point": point_round}
WORK_NAME = {"sweep": "rows_per_s", "scan": "states_per_s", "point": "queries_per_s"}
