"""Command-line interface.

Subcommands::

    analyze    exact J, J', per-mode variances and rate on a spectrum
               (--torus: one mode per eigenvalue multiset, with its count)
    bounds     spectrum-free variance bounds and ratio identities
    certify    LMI variance certificates for GD / NA on general problems
    tune       constrained variance minimization under a rate cap
    consensus  noise amplification of averaging over a torus network
    simulate   seeded Monte Carlo estimate of J
    sweep      network-size scaling of J-bar/n with slope and regime

Exit codes: 0 on success, 2 on usage errors, 3 on domain errors (unstable
iteration, infeasible cap, oversized lattice, diverged trajectory, ...).
Domain errors emit a single JSON object {"error": ..., "message": ...} on
stderr.  Reports are JSON by default; --format csv flattens the same numeric
content into header-bearing comma-separated rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any

import numpy as np

from .consensus import (TorusSpec, consensus_variance, scaling_sweep,
                        torus_spectrum)
from .dynamics import Algo, AlgoConfig, SigmaMode
from .errors import NoiseAmpError
from .lmi import gd_certificate, na_certificate, q_bounds, refine_bound
from .montecarlo import PseudoHuber, Quadratic, ensemble_variance, simulate
from .spectrum import Spectrum, make_spectrum
from .tuning import (conventional_params, optimal_quadratic_params,
                     tune_constrained)
from .variance import (hb_gd_ratio, na_gd_ratio_bounds,
                       variance_amplification, variance_bounds)


class UsageError(Exception):
    """Bad flag combination or malformed value (exit code 2)."""


def _parse_spectrum(text: str) -> Spectrum:
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"could not parse spectrum {text!r}")
    return make_spectrum(vals)


def _parse_torus(text: str) -> TorusSpec:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise UsageError("--torus expects 'd,n0'")
    try:
        d, n0 = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"could not parse torus {text!r}")
    try:
        return TorusSpec(d=d, n0=n0)
    except ValueError as exc:
        raise UsageError(str(exc))


def _resolve_spectrum(args) -> Spectrum:
    sources = [args.spectrum is not None,
               args.kappa is not None or args.n is not None,
               getattr(args, "torus", None) is not None]
    if sum(sources) != 1:
        raise UsageError(
            "give exactly one problem source: --spectrum, --kappa with --n, "
            "or --torus")
    if args.spectrum is not None:
        return _parse_spectrum(args.spectrum)
    if getattr(args, "torus", None) is not None:
        return torus_spectrum(_parse_torus(args.torus))
    if args.kappa is None or args.n is None:
        raise UsageError("--kappa and --n must be given together")
    kappa, n = args.kappa, args.n
    if kappa < 1.0:
        raise UsageError("--kappa must be >= 1")
    if n < 1:
        raise UsageError("--n must be >= 1")
    if n == 1:
        if kappa != 1.0:
            raise UsageError("--n 1 requires --kappa 1")
        return make_spectrum([1.0])
    return make_spectrum(np.linspace(1.0, kappa, n))


def _resolve_config(args, s: Spectrum) -> AlgoConfig:
    algo = Algo(args.algo)
    sigma_mode = (SigmaMode.EQUALS_ALPHA if args.sigma_mode == "equals-alpha"
                  else SigmaMode.FIXED)
    if args.params == "explicit":
        if args.alpha is None:
            raise UsageError("--params explicit requires --alpha")
        alpha = args.alpha
        beta = args.beta if args.beta is not None else 0.0
    else:
        if args.alpha is not None or args.beta is not None:
            raise UsageError(
                "--alpha/--beta only combine with --params explicit")
        picker = (conventional_params if args.params == "table1"
                  else optimal_quadratic_params)
        tuned = picker(algo, s.m, s.L)
        alpha, beta = tuned.alpha, tuned.beta
    try:
        return AlgoConfig(algo=algo, alpha=alpha, beta=beta,
                          sigma=args.sigma, sigma_mode=sigma_mode)
    except ValueError as exc:
        raise UsageError(str(exc))


def _flatten(prefix: str, obj: Any, rows: list[tuple[str, Any]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict[str, Any], args, table: tuple[list[str], list[list]] | None = None):
    """Write a report as JSON or CSV to --out (default stdout).

    ``table`` optionally supplies a natural tabular layout (header, rows)
    for CSV output; otherwise the report is flattened to field,value rows.
    """
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if table is not None:
            header, rows = table
            writer.writerow(header)
            writer.writerows(rows)
        else:
            writer.writerow(["field", "value"])
            flat: list[tuple[str, Any]] = []
            _flatten("", report, flat)
            writer.writerows(flat)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args, cfg: AlgoConfig | None = None) -> dict[str, Any]:
    echo: dict[str, Any] = {"command": args.command}
    for name in ("spectrum", "kappa", "n", "torus", "params", "steps",
                 "replicates", "seed", "cap_constant", "objective", "delta",
                 "d", "n0", "refine"):
        if hasattr(args, name) and getattr(args, name) is not None:
            echo[name] = getattr(args, name)
    if cfg is not None:
        echo.update({"algo": cfg.algo.value, "alpha": cfg.alpha,
                     "beta": cfg.beta, "sigma": cfg.sigma,
                     "sigma_mode": cfg.sigma_mode.value})
    return echo


def _cmd_analyze(args) -> int:
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    rep = variance_amplification(cfg, s)
    report = {"config": _config_echo(args, cfg), **rep.to_dict()}
    _emit(report, args)
    return 0


def _cmd_bounds(args) -> int:
    algo = Algo(args.algo)
    lower, upper = variance_bounds(algo, args.kappa, args.n)
    report: dict[str, Any] = {
        "config": _config_echo(args),
        "algo": algo.value, "kappa": args.kappa, "n": args.n,
        "lower": lower, "upper": upper,
    }
    if algo == Algo.HB:
        report["hb_gd_ratio"] = hb_gd_ratio(args.kappa)
    if algo == Algo.NA and args.n >= 2:
        lo, hi = na_gd_ratio_bounds(args.kappa, args.n)
        report["na_gd_ratio_lower"] = lo
        report["na_gd_ratio_upper"] = hi
    if algo in (Algo.GD, Algo.NA):
        report["certified_reference"] = q_bounds(algo, args.kappa, args.n)
    _emit(report, args)
    return 0


def _cmd_certify(args) -> int:
    algo = Algo(args.algo)
    if args.kappa < 1.0:
        raise UsageError("--kappa must be >= 1")
    if algo == Algo.GD:
        prob, cert = gd_certificate(args.L / args.kappa, args.L, n=args.n)
    elif algo == Algo.NA:
        prob, cert = na_certificate(args.kappa, args.L, n=args.n)
    else:
        raise UsageError("certificates are available for gd and na")
    if args.refine:
        cert = refine_bound(prob, cert, budget=args.refine)
    report = {"config": _config_echo(args),
              "algo": algo.value, "kappa": prob.kappa, "m": prob.m,
              "L": prob.L, "alpha": prob.alpha, "beta": prob.beta,
              "n": prob.n, **cert.to_dict(),
              "reference": q_bounds(algo, prob.kappa, prob.n)}
    _emit(report, args)
    return 0


def _cmd_tune(args) -> int:
    s = _resolve_spectrum(args)
    algo = Algo(args.algo)
    sigma_mode = (SigmaMode.EQUALS_ALPHA if args.sigma_mode == "equals-alpha"
                  else SigmaMode.FIXED)
    result = tune_constrained(algo, s, cap_constant=args.cap_constant,
                              sigma=args.sigma, sigma_mode=sigma_mode)
    report = {"config": _config_echo(args), **result.to_dict()}
    _emit(report, args)
    return 0


def _cmd_consensus(args) -> int:
    t = _parse_torus(args.torus)
    algo = Algo(args.algo)
    cfg = None
    if args.params == "explicit":
        if args.alpha is None:
            raise UsageError("--params explicit requires --alpha")
        cfg = AlgoConfig(algo=algo, alpha=args.alpha,
                         beta=args.beta if args.beta is not None else 0.0,
                         sigma=args.sigma)
    elif args.params == "table1":
        raise UsageError("consensus runs use table2 or explicit parameters")
    rec = consensus_variance(algo, t, cfg=cfg, sigma=args.sigma)
    report = {"config": _config_echo(args), **rec.to_dict()}
    _emit(report, args)
    return 0


def _cmd_simulate(args) -> int:
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    if args.objective == "pseudo-huber":
        obj = PseudoHuber(s.m, s.L, s.n, delta=args.delta)
    else:
        obj = Quadratic(s)
    if args.replicates > 1:
        res = ensemble_variance(cfg, obj, args.steps, args.replicates,
                                args.seed)
    else:
        res = simulate(cfg, obj, args.steps, args.seed)
    report = {"config": _config_echo(args, cfg), **res.to_dict()}
    if args.objective == "quadratic":
        report["j_exact"] = variance_amplification(cfg, s).j
    table = None
    if args.format == "csv" and res.per_step is not None:
        table = (["step", "mean_sq_error", "stderr"],
                 [[t, float(v), float(e)] for t, (v, e) in
                  enumerate(zip(res.per_step, res.per_step_stderr))])
    _emit(report, args, table=table)
    return 0


def _cmd_sweep(args) -> int:
    algo = Algo(args.algo)
    try:
        n0_values = [int(v) for v in args.n0.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"could not parse --n0 list {args.n0!r}")
    result = scaling_sweep(algo, args.d, n0_values, sigma=args.sigma)
    report = result.to_dict()
    report["config"] = _config_echo(args)
    rows = report["rows"]
    table = (list(rows[0]), [list(r.values()) for r in rows])
    _emit(report, args, table=table)
    return 0


def _add_common(p: argparse.ArgumentParser, problem: bool = True,
                config: bool = True):
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write the report to a file")
    if problem:
        p.add_argument("--spectrum", help="comma-separated eigenvalues")
        p.add_argument("--kappa", type=float,
                       help="condition number (with --n)")
        p.add_argument("--n", type=int, help="problem dimension (with --kappa)")
        p.add_argument("--torus", help="torus network 'd,n0'")
    if config:
        p.add_argument("--algo", choices=["gd", "hb", "na"], required=True)
        p.add_argument("--params", choices=["table1", "table2", "explicit"],
                       default="table2",
                       help="table1: guaranteed tuning, table2: "
                            "quadratic-optimal tuning, explicit: --alpha/--beta")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--sigma-mode", choices=["fixed", "equals-alpha"],
                       default="fixed", dest="sigma_mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noiseamp",
        description="Noise amplification of noisy first-order methods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact J on a spectrum")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("bounds", help="spectrum-free variance bounds")
    p.add_argument("--algo", choices=["gd", "hb", "na"], required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, problem=False, config=False)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("certify", help="LMI variance certificate")
    p.add_argument("--algo", choices=["gd", "na"], required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--refine", type=int, default=0,
                   help="coordinate-descent budget to tighten the bound")
    _add_common(p, problem=False, config=False)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("tune", help="minimize J under a rate cap")
    p.add_argument("--algo", choices=["gd", "hb"], required=True)
    p.add_argument("--spectrum")
    p.add_argument("--kappa", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--torus")
    p.add_argument("--cap-constant", type=float, default=1.0,
                   dest="cap_constant")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--sigma-mode", choices=["fixed", "equals-alpha"],
                   default="fixed", dest="sigma_mode")
    _add_common(p, problem=False, config=False)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("consensus", help="averaging over a torus network")
    p.add_argument("--algo", choices=["gd", "hb", "na"], required=True)
    p.add_argument("--torus", required=True, help="'d,n0'")
    p.add_argument("--params", choices=["table1", "table2", "explicit"],
                   default="table2")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--sigma", type=float, default=1.0)
    _add_common(p, problem=False, config=False)
    p.set_defaults(fn=_cmd_consensus)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of J")
    _add_common(p)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objective", choices=["quadratic", "pseudo-huber"],
                   default="quadratic")
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="network-size scaling of J-bar/n")
    p.add_argument("--algo", choices=["gd", "hb", "na"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n0", required=True,
                   help="comma-separated lattice sizes, e.g. '8,16,32'")
    p.add_argument("--sigma", type=float, default=1.0)
    _add_common(p, problem=False, config=False)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NoiseAmpError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3


def main():  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
