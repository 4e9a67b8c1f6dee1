"""Command-line front end.

Usage:
    corostab sweep  --model quadratic_hencky --E 1 --nu 0.3 --protocol uniaxial \\
                    --lambda-min 0.5 --lambda-max 14 --steps 200 [--out curve.csv]
    corostab moduli --model neo_hooke_incompressible --mu 1 --protocol uniaxial --at 1.0
    corostab check  --model exp_hencky --mu 1 --lambda-lame 2 --k 1 --khat 1 \\
                    --protocol uniaxial --at 2.0 [--expect-stable]
    corostab scan   --model exp_hencky --mu 1 --lambda-lame 2 --k 1 --khat 1 \\
                    --grid 0.5:3:11 [--seed 0] [--out scan.csv] [--expect-stable]
    corostab rate-verify --model quadratic_hencky --E 1 --nu 0.3 [--seed 0] [--cases 100]

Models may also come from a JSON config file (--config) with keys
{"kind", "parameters", "incompressible"}; inline flags override file values.
Outputs are deterministic for identical configuration and seed: CSV numbers
use the shortest round-trip float representation, JSON keys are sorted.

Exit status: 0 success; 1 usage, configuration or solver error; 2 when
--expect-stable was given and a constitutive check (tangent positivity,
ordered-force, tension-extension, or a sampled monotonicity pair) failed.
The exact rank-one (Legendre-Hadamard) minimum is reported but never gates
the exit code: it decides local material stability, not the constitutive
conditions.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import CorostabError, ConfigurationError, DomainError, UsageError
from .materials import MODEL_KINDS, StretchState, instantiate_model
from .protocols import (
    PROTOCOL_KINDS,
    Protocol,
    _curve_rows,
    lateral_closure,
    sweep,
)
from .rates import (
    MotionSample,
    csp_rate_form,
    energy_second_time_derivative,
    power_identity,
    second_order_work_identity,
)
from .stability import principal_block, region_scan

_CONSTITUTIVE_CHECKS = ("csp", "be", "te", "tsts_m_plus", "hill")

_PARAM_FLAGS = ("mu", "lambda_lame", "E", "nu", "k", "khat", "kappa")

_RATE_BLOCK = 100  # rate-verify cases per stacked evaluation, about 10 KB each


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # constitutive failures, so re-route usage problems through UsageError
    def error(self, message):
        raise UsageError(message)


def _add_model_args(p):
    g = p.add_argument_group("model")
    g.add_argument("--model", choices=MODEL_KINDS, help="catalog model kind")
    g.add_argument("--config", help="JSON config file with kind/parameters")
    g.add_argument("--mu", type=float)
    g.add_argument("--lambda-lame", dest="lambda_lame", type=float)
    g.add_argument("--E", type=float)
    g.add_argument("--nu", type=float)
    g.add_argument("--k", type=float)
    g.add_argument("--khat", type=float)
    g.add_argument("--kappa", type=float)


def _add_grid_args(p, default=None):
    g = p.add_argument_group("grid")
    g.add_argument("--lambda-min", dest="lambda_min", type=float)
    g.add_argument("--lambda-max", dest="lambda_max", type=float)
    g.add_argument("--steps", type=int)
    g.add_argument("--grid", default=default, help="a:b:n shorthand")


def build_parser():
    top = _Parser(prog="corostab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="protocol sweep to CSV")
    _add_model_args(p)
    p.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    _add_grid_args(p)
    p.add_argument("--out")
    p.add_argument("--no-moduli", action="store_true", help="skip the modulus columns")

    p = sub.add_parser("moduli", help="incremental moduli at one stretch")
    _add_model_args(p)
    p.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("check", help="stability margins at one protocol state")
    _add_model_args(p)
    p.add_argument("--protocol", choices=PROTOCOL_KINDS, required=True)
    p.add_argument("--at", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--expect-stable", action="store_true")

    p = sub.add_parser("scan", help="stability region scan to CSV + JSON")
    _add_model_args(p)
    _add_grid_args(p, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=128)
    p.add_argument("--out")
    p.add_argument("--expect-stable", action="store_true")

    p = sub.add_parser("rate-verify", help="stress-rate and work-identity checks")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--out")
    return top


@functools.cache
def _parser():
    # the tree of subcommands and flags is fixed, so one build serves every
    # main() call in the process; parse_args keeps no state between calls
    return build_parser()


def resolve_model(args):
    kind = args.model
    params = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed JSON in '{args.config}': {exc}") from exc
        if "kind" not in cfg:
            raise ConfigurationError("config file is missing the 'kind' key")
        kind = kind or cfg["kind"]
        params.update(cfg.get("parameters", {}))
        if "incompressible" in cfg:
            flagged = bool(cfg["incompressible"])
            if flagged != kind.endswith("_incompressible"):
                raise ConfigurationError(
                    f"config 'incompressible'={flagged} contradicts kind '{kind}'"
                )
    for name in _PARAM_FLAGS:
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    if kind is None:
        raise UsageError("no model given: use --model <kind> or --config <file>")
    return instantiate_model(kind, params)


def _grid_triplet(args, what):
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid must be a:b:n, got '{args.grid}'")
        try:
            return float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"--grid must be a:b:n with numbers: {exc}") from exc
    if args.lambda_min is None or args.lambda_max is None or args.steps is None:
        raise UsageError(f"{what} needs --lambda-min/--lambda-max/--steps or --grid a:b:n")
    return args.lambda_min, args.lambda_max, args.steps


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(payload):
    try:  # strict JSON: a non-finite number is an error, never an Infinity token
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(f"non-finite value in the result {payload}") from None


def _solved_state(model, protocol, lam1):
    """Closure and curve row of one protocol state, checked once for range:
    a stress, energy or modulus beyond the double range at a representable
    stretch is a DomainError naming the state.

    The commands that call this run with numpy's overflow and invalid-
    operation warnings silenced: a cold closure's bracketing scan meets
    non-finite residuals far from its root and skips them, and what counts
    is the result, checked here and, for every reported number, by
    ``_json_line``."""
    closure = lateral_closure(model, protocol, lam1)
    row = _curve_rows(model, protocol, [lam1], [closure])
    values = (
        closure.lam2,
        closure.lam3,
        closure.pressure or 0.0,
        row.stress_driving[0],
        row.stress_biot[0],
        row.energy[0],
        row.modulus_incr[0],
        row.modulus_incr_log[0],
    )
    if not np.all(np.isfinite(values)):
        raise DomainError(
            f"protocol '{protocol.kind}' at lambda1 = {lam1}: the stress, energy "
            f"or modulus of the solved state is outside the floating-point range"
        )
    return closure, row


def _cmd_sweep(args):
    model = resolve_model(args)
    lam_min, lam_max, steps = _grid_triplet(args, "sweep")
    protocol = Protocol(args.protocol)
    table = sweep(model, protocol, lam_min, lam_max, steps, with_moduli=not args.no_moduli)
    _emit(table.to_csv(), args.out)
    return 0


@np.errstate(over="ignore", invalid="ignore")
def _cmd_moduli(args):
    model = resolve_model(args)
    protocol = Protocol(args.protocol)
    _, row = _solved_state(model, protocol, args.at)
    _emit(
        _json_line(
            {
                "lambda1": args.at,
                "model": model.kind,
                "protocol": protocol.kind,
                "modulus_incr": float(row.modulus_incr[0]),
                "modulus_incr_log": float(row.modulus_incr_log[0]),
            }
        ),
        args.out,
    )
    return 0


@np.errstate(over="ignore", invalid="ignore")
def _cmd_check(args):
    model = resolve_model(args)
    protocol = Protocol(args.protocol)
    closure, row = _solved_state(model, protocol, args.at)
    lams = StretchState(args.at, closure.lam2, closure.lam3).as_array()[None]  # a batch of one
    block = principal_block(model, lams)
    violations = [check for check, bad in block.witnessed().items()
                  if check in _CONSTITUTIVE_CHECKS and bad[0]]
    report = {
        "model": model.kind,
        "protocol": protocol.kind,
        "lambda1": args.at,
        "state": [float(v) for v in lams[0]],
        "pressure": closure.pressure,
        "stress_driving": float(row.stress_driving[0]),
        "stress_biot": float(row.stress_biot[0]),
        "energy": float(row.energy[0]),
        "modulus_incr": float(row.modulus_incr[0]),
        "modulus_incr_log": float(row.modulus_incr_log[0]),
        "stability": {
            "tangent_min_eig": float(block.csp[0]),
            "be_margin": float(block.be[0]),
            "te_margin": None if model.incompressible else float(block.te[0]),
            "lh_min_probe": None if model.incompressible else float(block.lh[0]),
        },
        "violations": violations,
    }
    _emit(_json_line(report), args.out)
    if args.expect_stable and violations:
        return 2
    return 0


def _json_out_path(csv_path):
    base, ext = os.path.splitext(csv_path)
    return (base if ext == ".csv" else csv_path) + ".json"


def _cmd_scan(args):
    model = resolve_model(args)
    ranged = args.grid or any(
        v is not None for v in (args.lambda_min, args.lambda_max, args.steps)
    )
    grid = _grid_triplet(args, "scan") if ranged else (0.5, 3.0, 11)
    report = region_scan(model, grid=grid, seed=args.seed, pairs=args.pairs)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(report.to_csv())
        with open(_json_out_path(args.out), "w", newline="") as fh:
            fh.write(report.to_json_summary() + "\n")
    else:
        sys.stdout.write(report.to_json_summary() + "\n")
    bad = sum(report.violation_count(c) for c in _CONSTITUTIVE_CHECKS)
    if args.expect_stable and bad:
        return 2
    return 0


def _cmd_rate_verify(args):
    if args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    model = resolve_model(args)
    if model.incompressible:
        raise UsageError(
            "rate-verify needs a compressible model (pointwise stress without pressure)"
        )
    def relative(res, ref):
        return float(np.max(res / np.maximum(1.0, np.abs(ref))))

    # per case: the cubic coefficients of the three stretch paths, then the
    # instant; each path is evaluated in scalar arithmetic, case by case, so
    # a seed gives the same motions bit for bit at any --cases.  The cases
    # are evaluated in stacks of at most _RATE_BLOCK, one call per identity
    # per stack, so memory stays flat at any --cases
    rng = np.random.default_rng(args.seed)
    worst = {"power": 0.0, "second_order_three_way": 0.0, "rate_form": 0.0}
    for start in range(0, args.cases, _RATE_BLOCK):
        paths = np.zeros((3, min(_RATE_BLOCK, args.cases - start), 3, 3))  # F, Fdot, Fddot
        for n in range(paths.shape[1]):
            coef = rng.uniform(-0.4, 0.4, size=(3, 3))
            t = float(rng.uniform(0.0, 0.5))
            for i, c in enumerate(coef):
                paths[:, n, i, i] = (
                    1.0 + c[0] * t + c[1] * t * t / 2 + c[2] * t**3 / 6,
                    c[0] + c[1] * t + c[2] * t * t / 2,
                    c[1] + c[2] * t,
                )
        motion = MotionSample(*paths)
        lhs, _, res = power_identity(model, motion)
        ref, spat, _ = second_order_work_identity(model, motion)
        direct = energy_second_time_derivative(model, motion)
        gap = np.maximum(np.abs(ref - direct), np.abs(spat - direct))
        rate_lhs, _, rate_res = csp_rate_form(model, motion)
        for key, value in (
            ("power", relative(res, lhs)),
            ("second_order_three_way", relative(gap, direct)),
            ("rate_form", relative(rate_res, rate_lhs)),
        ):
            worst[key] = max(worst[key], value)
    tolerances = {"power": 1e-8, "second_order_three_way": 1e-5, "rate_form": 1e-6}
    ok = all(worst[k] <= tolerances[k] for k in worst)
    _emit(
        _json_line(
            {
                "model": model.kind,
                "cases": args.cases,
                "seed": args.seed,
                "max_residuals": worst,
                "tolerances": tolerances,
                "ok": ok,
            }
        ),
        args.out,
    )
    return 0 if ok else 1


_COMMANDS = {
    "sweep": _cmd_sweep,
    "moduli": _cmd_moduli,
    "check": _cmd_check,
    "scan": _cmd_scan,
    "rate-verify": _cmd_rate_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except CorostabError as exc:
        print(f"corostab: error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
