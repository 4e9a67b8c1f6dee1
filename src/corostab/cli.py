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
The rank-one ellipticity probe is reported but never gates the exit code:
it screens local material stability, not the constitutive conditions.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import CorostabError, ConfigurationError, UsageError
from .materials import MODEL_KINDS, StretchState, instantiate_model
from .protocols import PROTOCOL_KINDS, Protocol, driving_stress, incremental_moduli, sweep
from .rates import (
    csp_rate_form,
    energy_second_time_derivative,
    motion_from_stretch_path,
    power_identity,
    second_order_work_identity,
)
from .stability import (
    WITNESS_MARGIN,
    be_te_check,
    hill_tangent,
    lh_ellipticity_probe,
    region_scan,
    tsts_tangent,
)

_CONSTITUTIVE_CHECKS = ("csp", "be", "te", "tsts_m_plus", "hill")

_PARAM_FLAGS = ("mu", "lambda_lame", "E", "nu", "k", "khat", "kappa")


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
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_sweep(args):
    model = resolve_model(args)
    lam_min, lam_max, steps = _grid_triplet(args, "sweep")
    protocol = Protocol.for_model(args.protocol, model)
    table = sweep(model, protocol, lam_min, lam_max, steps, with_moduli=not args.no_moduli)
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_moduli(args):
    model = resolve_model(args)
    protocol = Protocol.for_model(args.protocol, model)
    mod, mod_log = incremental_moduli(model, protocol, args.at)
    _emit(
        _json_line(
            {
                "lambda1": args.at,
                "model": model.kind,
                "protocol": protocol.kind,
                "modulus_incr": mod,
                "modulus_incr_log": mod_log,
            }
        ),
        args.out,
    )
    return 0


def _cmd_check(args):
    model = resolve_model(args)
    protocol = Protocol.for_model(args.protocol, model)
    value, closure = driving_stress(model, protocol, args.at)
    mod, mod_log = incremental_moduli(model, protocol, args.at, closure=closure)
    state = StretchState(args.at, closure.lam2, closure.lam3)
    lams = state.as_array()
    report = {
        "model": model.kind,
        "protocol": protocol.kind,
        "lambda1": args.at,
        "state": [float(v) for v in lams],
        "pressure": closure.pressure,
        "stress_driving": value,
        "stress_biot": value / args.at if model.incompressible else closure.lam2 * closure.lam3 * value,
        "energy": float(model.energy(lams)),
        "modulus_incr": mod,
        "modulus_incr_log": mod_log,
    }
    violations = []
    if model.incompressible:
        tan = hill_tangent(model, np.diag(lams))
        x = np.log(lams)
        t = model.extra_tau(x)
        be = min(
            ((t[i] - t[j]) * (lams[i] - lams[j])
             for i in range(3) for j in range(i + 1, 3) if lams[i] != lams[j]),
            default=0.0,
        )
        stability = {
            "tangent_min_eig": tan.min_eigenvalue,
            "be_margin": float(be),
            "te_margin": None,
            "lh_min_probe": None,
        }
        if be < WITNESS_MARGIN:
            violations.append("be")
    else:
        tan = tsts_tangent(model, np.diag(lams))
        bt = be_te_check(model, state)
        probe = lh_ellipticity_probe(model, state, samples=100, refinement=10)
        stability = {
            "tangent_min_eig": tan.min_eigenvalue,
            "be_margin": bt.be_margin,
            "te_margin": bt.te_margin,
            "lh_min_probe": probe.value,
        }
        if bt.be_margin < WITNESS_MARGIN:
            violations.append("be")
        if bt.te_margin < WITNESS_MARGIN:
            violations.append("te")
    if tan.min_eigenvalue < WITNESS_MARGIN:
        violations.insert(0, "csp")
    report["stability"] = stability
    report["violations"] = violations
    _emit(_json_line(report), args.out)
    if args.expect_stable and violations:
        return 2
    return 0


def _json_out_path(csv_path):
    base, ext = os.path.splitext(csv_path)
    return (base if ext == ".csv" else csv_path) + ".json"


def _cmd_scan(args):
    model = resolve_model(args)
    grid = _grid_triplet(args, "scan") if (args.grid or args.lambda_min is not None) else (0.5, 3.0, 11)
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
    model = resolve_model(args)
    if model.incompressible:
        raise UsageError(
            "rate-verify needs a compressible model (pointwise stress without pressure)"
        )
    rng = np.random.default_rng(args.seed)
    worst = {"power": 0.0, "second_order_three_way": 0.0, "rate_form": 0.0}
    for _ in range(args.cases):
        coef = rng.uniform(-0.4, 0.4, size=(3, 3))
        paths = [
            (
                lambda t, c=coef[i]: 1.0 + c[0] * t + c[1] * t * t / 2 + c[2] * t**3 / 6,
                lambda t, c=coef[i]: c[0] + c[1] * t + c[2] * t * t / 2,
                lambda t, c=coef[i]: c[1] + c[2] * t,
            )
            for i in range(3)
        ]
        motion = motion_from_stretch_path(paths, float(rng.uniform(0.0, 0.5)))
        lhs, _, res = power_identity(model, motion)
        worst["power"] = max(worst["power"], res / max(1.0, abs(lhs)))
        ref, spat, _ = second_order_work_identity(model, motion)
        direct = energy_second_time_derivative(model, motion)
        scale = max(1.0, abs(direct))
        worst["second_order_three_way"] = max(
            worst["second_order_three_way"],
            abs(ref - direct) / scale,
            abs(spat - direct) / scale,
        )
        lhs, _, res = csp_rate_form(model, motion)
        worst["rate_form"] = max(worst["rate_form"], res / max(1.0, abs(lhs)))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CorostabError as exc:
        print(f"corostab: error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
