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
use the shortest round-trip float representation, JSON keys are sorted
(``errors.csv_text`` and ``errors.json_text`` state the format).

Exit status: 0 success; 1 usage, configuration, solver or domain error (sweep
and scan after their output when a computed value is not finite); 2 when
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

from .errors import CorostabError, ConfigurationError, UsageError, check_finite, json_text
from .materials import MODEL_KINDS, PARAMETER_NAMES, StretchState, instantiate_model
from .protocols import PROTOCOL_KINDS, Protocol, solved_state, sweep
from .rates import (
    MotionSample,
    csp_rate_form,
    energy_second_time_derivative,
    power_identity,
    second_order_work_identity,
)
from .stability import principal_block, region_scan

_CONSTITUTIVE_CHECKS = ("csp", "be", "te", "tsts_m_plus", "hill")

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
    for name in PARAMETER_NAMES:
        g.add_argument("--" + name.replace("_", "-"), dest=name, type=float)


def _add_grid_args(p):
    g = p.add_argument_group("grid")
    g.add_argument("--lambda-min", dest="lambda_min", type=float)
    g.add_argument("--lambda-max", dest="lambda_max", type=float)
    g.add_argument("--steps", type=int)
    g.add_argument("--grid", help="a:b:n shorthand")


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
    _add_grid_args(p)
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
    params, cfg = {}, {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"malformed JSON in '{args.config}': {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"config file must hold a JSON object, got {cfg!r}")
        if "kind" not in cfg:
            raise ConfigurationError("config file is missing the 'kind' key")
        kind = kind or cfg["kind"]
        file_params = cfg.get("parameters", {})
        if not isinstance(file_params, dict):
            raise ConfigurationError(
                f"config 'parameters' must map names to numbers, got {file_params!r}"
            )
        params.update(file_params)
    for name in PARAMETER_NAMES:
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    if kind is None:
        raise UsageError("no model given: use --model <kind> or --config <file>")
    model = instantiate_model(kind, params)
    flagged = cfg.get("incompressible", model.incompressible)
    if not isinstance(flagged, bool):
        raise ConfigurationError(f"config 'incompressible' must be a boolean, got {flagged!r}")
    if flagged != model.incompressible:
        raise ConfigurationError(f"config 'incompressible'={flagged} contradicts kind '{kind}'")
    return model


def _grid_triplet(args, what):
    ranged = [v is not None for v in (args.lambda_min, args.lambda_max, args.steps)]
    if args.grid is not None:
        if any(ranged):
            raise UsageError(f"{what} takes --grid or --lambda-min/--lambda-max/--steps, not both")
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid must be a:b:n, got '{args.grid}'")
        try:
            return float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UsageError(f"--grid must be a:b:n with numbers: {exc}") from exc
    if not all(ranged):
        raise UsageError(f"{what} needs --lambda-min/--lambda-max/--steps or --grid a:b:n")
    return args.lambda_min, args.lambda_max, args.steps


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write '{out_path}': {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _cmd_sweep(args):
    model = resolve_model(args)
    lam_min, lam_max, steps = _grid_triplet(args, "sweep")
    protocol = Protocol(args.protocol)
    table = sweep(model, protocol, lam_min, lam_max, steps, with_moduli=not args.no_moduli)
    _emit(table.to_csv(), args.out)
    table.require_finite(protocol.kind, not args.no_moduli)
    return 0


def _cmd_moduli(args):
    model = resolve_model(args)
    protocol = Protocol(args.protocol)
    _, row = solved_state(model, protocol, args.at)
    _emit(
        json_text(
            {
                "lambda1": args.at,
                "model": model.kind,
                "protocol": protocol.kind,
                "modulus_incr": float(row.modulus_incr[0]),
                "modulus_incr_log": float(row.modulus_incr_log[0]),
            }
        ) + "\n",
        args.out,
    )
    return 0


def _cmd_check(args):
    model = resolve_model(args)
    protocol = Protocol(args.protocol)
    closure, row = solved_state(model, protocol, args.at)
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
    _emit(json_text(report) + "\n", args.out)
    if args.expect_stable and violations:
        return 2
    return 0


def _json_out_path(csv_path):
    base, ext = os.path.splitext(csv_path)
    return (base if ext == ".csv" else csv_path) + ".json"


def _cmd_scan(args):
    model = resolve_model(args)
    ranged = args.grid is not None or any(
        v is not None for v in (args.lambda_min, args.lambda_max, args.steps)
    )
    grid = {"grid": _grid_triplet(args, "scan")} if ranged else {}  # else region_scan's default
    report = region_scan(model, **grid, seed=args.seed, pairs=args.pairs)
    if args.out:
        _emit(report.to_csv(), args.out)
    _emit(report.to_json_summary() + "\n", args.out and _json_out_path(args.out))
    te_lh = [] if model.incompressible else [report.te_margin, report.lh_min]  # NaN by design
    check_finite("", "stretches", report.states, report.csp_min_eig, report.be_margin, *te_lh)
    bad = sum(report.violation_count(c) for c in _CONSTITUTIVE_CHECKS)
    if args.expect_stable and bad:
        return 2
    return 0


def _cmd_rate_verify(args):
    if args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    model = resolve_model(args)

    def relative(res, ref):
        return float(np.max(res / np.maximum(1.0, np.abs(ref))))

    # per case, ten uniform draws in case order: the cubic coefficients
    # (c0, c1, c2) of the three stretch paths in [-0.4, 0.4), then the
    # instant t in [0, 0.5), as lo + (hi - lo) * u, which is how
    # Generator.uniform draws them.  A seed gives the same motions bit for bit
    # at any --cases.  The cases are drawn and evaluated in stacks of at most
    # _RATE_BLOCK, one call per identity per stack, so memory stays flat at
    # any --cases
    rng = np.random.default_rng(args.seed)
    worst = {"power": 0.0, "second_order_three_way": 0.0, "rate_form": 0.0}
    axes = np.arange(3)
    for start in range(0, args.cases, _RATE_BLOCK):
        u = rng.random((min(_RATE_BLOCK, args.cases - start), 10))
        c0, c1, c2 = np.moveaxis(-0.4 + 0.8 * u[:, :9].reshape(-1, 3, 3), -1, 0)  # (m, axis)
        t = 0.5 * u[:, 9:]
        paths = np.zeros((3, len(u), 3, 3))  # F, Fdot, Fddot
        # float_power is the C library's pow, like a Python float's **; the
        # SIMD loop of np.power may round t^3 differently in the last bit
        paths[:, :, axes, axes] = (1.0 + c0 * t + c1 * t * t / 2 + c2 * np.float_power(t, 3) / 6,
                                   c0 + c1 * t + c2 * t * t / 2,
                                   c1 + c2 * t)
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
        json_text(
            {
                "model": model.kind,
                "cases": args.cases,
                "seed": args.seed,
                "max_residuals": worst,
                "tolerances": tolerances,
                "ok": ok,
            }
        ) + "\n",
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
