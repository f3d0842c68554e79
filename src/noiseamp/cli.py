"""Command-line interface.

Subcommands::

    analyze    exact J, J', per-mode variances and rate on a spectrum
               (--torus: one mode per eigenvalue multiset, with its count)
    bounds     spectrum-free variance bounds and ratio identities
    certify    LMI variance certificates for GD / NA on general problems
    tune       constrained variance minimization under a rate cap
    consensus  J-bar of averaging over a torus (--params table2|explicit)
    simulate   seeded Monte Carlo estimate of J
    sweep      network-size scaling of J-bar/n with slope and regime

A report's "config" echoes the settings that changed its numbers, and
nothing else: under --sigma-mode equals-alpha the noise scale is alpha, so
--sigma is left out.

Exit codes: 0 on success, 2 on usage errors (including an --out that
cannot be written), 3 on domain errors (unstable iteration, infeasible
cap, oversized lattice, diverged trajectory, a float overflow, ...).
Domain errors emit a single JSON object {"error": ..., "message": ...} on
stderr.  Reports are JSON by default; --format csv flattens the same numeric
content into header-bearing comma-separated rows.  The JSON is
json.dumps(report, indent=2), byte for byte.  The writer formats lists of
numbers or strs, and of records of them, a column at a time and hands the
few other values to json.dumps: the largest report, analyze --torus 2,324
(13,365 modes, 1.3 MB), takes about 0.035 s to write on a 2-CPU x86 VM,
most of it in float repr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Iterable

import numpy as np

from .consensus import (MAX_NETWORK_SIZE, ConsensusRecord, TorusSpec,
                        scaling_sweep, torus_spectrum)
from .dynamics import Algo, AlgoConfig, SigmaMode
from .errors import NoiseAmpError, SizeOverflow
from .lmi import gd_certificate, na_certificate, q_bounds, refine_bound
from .montecarlo import PseudoHuber, Quadratic, ensemble_variance, simulate
from .spectrum import Spectrum, make_spectrum
from .tuning import (conventional_params, optimal_quadratic_params,
                     tune_constrained)
from .variance import (hb_gd_ratio, na_gd_ratio_bounds,
                       variance_amplification, variance_bounds)


_SIGMA_MODES = {"fixed": SigmaMode.FIXED,
                "equals-alpha": SigmaMode.EQUALS_ALPHA}


def _parse_torus(text: str) -> TorusSpec:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("--torus expects 'd,n0'")
    try:
        d, n0 = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"could not parse torus {text!r}")
    return TorusSpec(d=d, n0=n0)


def _check_kappa_n(kappa: float, n: int):
    """Usage errors for a --kappa that is not finite and >= 1, or an --n
    below 1."""
    if not 1.0 <= kappa < math.inf:  # NaN too
        raise ValueError("--kappa must be >= 1 and finite")
    if n < 1:
        raise ValueError("--n must be >= 1")


def _resolve_spectrum(args) -> Spectrum:
    sources = [args.spectrum is not None,
               args.kappa is not None or args.n is not None,
               args.torus is not None]
    if sum(sources) != 1:
        raise ValueError(
            "give exactly one problem source: --spectrum, --kappa with --n, "
            "or --torus")
    if args.spectrum is not None:
        try:
            vals = [float(v) for v in args.spectrum.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"could not parse spectrum {args.spectrum!r}")
        return make_spectrum(vals)
    if args.torus is not None:
        return torus_spectrum(_parse_torus(args.torus))
    if args.kappa is None or args.n is None:
        raise ValueError("--kappa and --n must be given together")
    kappa, n = args.kappa, args.n
    _check_kappa_n(kappa, n)
    if n == 1 and kappa != 1.0:
        raise ValueError("--n 1 requires --kappa 1")
    if n > MAX_NETWORK_SIZE:  # the cap on a torus's eigenvalues too
        raise SizeOverflow(f"--n {n} exceeds the supported size "
                           f"{MAX_NETWORK_SIZE}")
    return make_spectrum(np.linspace(1.0, kappa, n))


def _resolve_config(args, s: Spectrum) -> AlgoConfig:
    """The --algo, --params, --alpha/--beta and noise flags on spectrum s."""
    algo = Algo(args.algo)
    if args.params == "explicit":
        if args.alpha is None:
            raise ValueError("--params explicit requires --alpha")
        alpha = args.alpha
        beta = args.beta if args.beta is not None else 0.0
    else:
        if args.alpha is not None or args.beta is not None:
            raise ValueError(
                "--alpha/--beta only combine with --params explicit")
        picker = (conventional_params if args.params == "table1"
                  else optimal_quadratic_params)
        tuned = picker(algo, s.m, s.L)
        alpha, beta = tuned.alpha, tuned.beta
    mode = getattr(args, "sigma_mode", "fixed")  # consensus has no flag
    return AlgoConfig(algo=algo, alpha=alpha, beta=beta, sigma=args.sigma,
                      sigma_mode=_SIGMA_MODES[mode])


# The report writer.  JSON is json.dumps(report, indent=2)'s text and CSV
# the field,value rows that csv.writer gives for the report's leaves, byte
# for byte.  Both walks take a list of leaves, or of dicts that share their
# keys in one order (``per_mode``, ``rows``; see ``_records``), a column at
# a time: there json's pure-Python indent encoder and a csv.writer row per
# leaf cost far more than the float reprs themselves.  The JSON walk also
# descends dicts with str keys and writes plain finite floats, ints and
# strs itself.  Anything else (a bool, None, a non-finite float, a mixed or
# empty list, a dict with other keys) is json.dumps's own text, each line
# re-indented to its depth: exact, as JSON text holds no raw newline.


def _json_column(values: list | tuple) -> Iterable[str] | None:
    """The JSON texts of plain finite floats, of ints or of strs; else None."""
    kinds = set(map(type, values))
    if kinds == {float}:
        total = sum(values)
        if total - total == 0.0:  # every value is finite
            return map(float.__repr__, values)
    elif kinds == {int}:
        return map(int.__repr__, values)
    elif kinds == {str}:
        return map(encode_basestring_ascii, values)
    return None


def _csv_column(values: list) -> Iterable[str] | None:
    """csv.writer's texts of a list of plain floats or ints, else None."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return None


def _records(seq: list | tuple) -> tuple[list, list[list]] | None:
    """Keys and value columns of dicts sharing their keys in one order."""
    if set(map(type, seq)) != {dict}:
        return None
    keys = list(seq[0])
    if not keys or set(map(tuple, seq)) != {tuple(keys)}:
        return None
    return keys, [list(map(itemgetter(k), seq)) for k in keys]


def _json_items(seq: list | tuple, inner: str) -> Iterable[str] | None:
    """The element texts of a column, or of records of columns with str
    keys, at depth ``inner``; None for any other list."""
    items = _json_column(seq)
    if items is None and (records := _records(seq)) is not None:
        keys, columns = records
        columns = [_json_column(c) for c in columns]
        if None not in columns and all(isinstance(k, str) for k in keys):
            template = "{\n" + ",\n".join(
                f"{inner}  {encode_basestring_ascii(k)}: ".replace("%", "%%")
                + "%s" for k in keys) + f"\n{inner}}}"
            items = map(template.__mod__, zip(*columns))
    return items


def _write_json(obj: Any, indent: str, out: list[str]):
    """Append ``obj`` in json.dumps's indent=2 layout at depth ``indent``."""
    kind = type(obj)
    if kind is float and obj - obj == 0.0:  # finite
        out.append(float.__repr__(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif (isinstance(obj, dict) and obj
          and all(isinstance(k, str) for k in obj)):
        inner = indent + "  "
        sep = "{\n"
        for key, value in obj.items():
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value, inner, out)
            sep = ",\n"
        out.append(f"\n{indent}}}")
    elif (isinstance(obj, (list, tuple))
          and (items := _json_items(obj, indent + "  ")) is not None):
        inner = indent + "  "
        out.append(f"[\n{inner}" + f",\n{inner}".join(items)
                   + f"\n{indent}]")
    else:
        out.append(json.dumps(obj, indent=2).replace("\n", "\n" + indent))


def _csv_lines(prefix: str, seq: list | tuple) -> str | None:
    """The rows of a list of numbers, or of records of numbers, as
    preformatted lines; None where a field might need csv's quoting."""
    records = _records(seq)
    names, columns = (([""], [seq]) if records is None else
                      ([f".{k}" for k in records[0]], records[1]))
    columns = [_csv_column(c) for c in columns]
    fields = prefix + "".join(names)
    if None in columns or any(c in fields for c in ',"\r\n'):
        return None
    head = prefix.replace("%", "%%")
    template = "".join(f"{head}[%d]{name.replace('%', '%%')},%s\r\n"
                       for name in names)
    index = range(len(seq))
    return "".join(map(template.__mod__,
                       zip(*[v for c in columns for v in (index, c)])))


def _write_csv(prefix: str, obj: Any, writer, buf: io.StringIO):
    """Write the field,value rows of ``obj``'s leaves under ``prefix``."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _write_csv(f"{prefix}.{k}" if prefix else str(k), v, writer, buf)
    elif isinstance(obj, (list, tuple)):
        lines = _csv_lines(prefix, obj)
        if lines is not None:
            buf.write(lines)
            return
        for i, v in enumerate(obj):
            _write_csv(f"{prefix}[{i}]", v, writer, buf)
    else:
        writer.writerow((prefix, obj))


def _emit(report: dict[str, Any], args, table: tuple[list[str], list[list]] | None = None):
    """Write a report as JSON or CSV to --out (default stdout).

    ``table`` optionally supplies a natural tabular layout (header, rows)
    for CSV output; otherwise the report is flattened to field,value rows.
    """
    if args.format == "json":
        out: list[str] = []
        _write_json(report, "", out)
        text = "".join(out) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if table is not None:
            header, rows = table
            writer.writerow(header)
            writer.writerows(rows)
        else:
            writer.writerow(["field", "value"])
            _write_csv("", report, writer, buf)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _config_echo(args, cfg: AlgoConfig | None = None,
                 **settings: Any) -> dict[str, Any]:
    """The command, the flags below that it was given, then ``settings``
    (other inputs its numbers depend on) and the resolved ``cfg``."""
    echo: dict[str, Any] = {"command": args.command}
    for name in ("spectrum", "kappa", "L", "n", "torus", "params", "steps",
                 "replicates", "seed", "cap_constant", "objective", "d",
                 "n0", "refine"):
        if getattr(args, name, None) is not None:
            echo[name] = getattr(args, name)
    echo.update(settings)
    if cfg is not None:
        echo.update({"algo": cfg.algo.value, "alpha": cfg.alpha,
                     "beta": cfg.beta, "sigma": cfg.sigma,
                     "sigma_mode": cfg.sigma_mode.value})
    if echo.get("sigma_mode") == SigmaMode.EQUALS_ALPHA.value:
        del echo["sigma"]  # the noise scale is alpha; --sigma does nothing
    return echo


def _cmd_analyze(args):
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    rep = variance_amplification(cfg, s)
    report = {"config": _config_echo(args, cfg), **rep.to_dict()}
    _emit(report, args)


def _cmd_bounds(args):
    algo = Algo(args.algo)
    _check_kappa_n(args.kappa, args.n)
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


def _cmd_certify(args):
    algo = Algo(args.algo)
    if args.refine < 0:
        raise ValueError("--refine must be >= 0")
    _check_kappa_n(args.kappa, args.n)
    if not 0.0 < args.L < math.inf:  # NaN too
        raise ValueError("--L must be positive and finite")
    if algo == Algo.GD:
        prob, cert = gd_certificate(args.L / args.kappa, args.L, n=args.n)
    else:
        prob, cert = na_certificate(args.kappa, args.L, n=args.n)
    if args.refine:
        cert = refine_bound(prob, cert, budget=args.refine)
    report = {"config": _config_echo(args),
              "algo": algo.value, "kappa": prob.kappa, "m": prob.m,
              "L": prob.L, "alpha": prob.alpha, "beta": prob.beta,
              "n": prob.n, **cert.to_dict(),
              "reference": q_bounds(algo, prob.kappa, prob.n)}
    _emit(report, args)


def _cmd_tune(args):
    s = _resolve_spectrum(args)
    sigma_mode = _SIGMA_MODES[args.sigma_mode]
    result = tune_constrained(Algo(args.algo), s,
                              cap_constant=args.cap_constant,
                              sigma=args.sigma, sigma_mode=sigma_mode)
    echo = _config_echo(args, sigma=args.sigma, sigma_mode=sigma_mode.value)
    _emit({"config": echo, **result.to_dict()}, args)


def _cmd_consensus(args):
    # The spectrum is built once: it sets the table2 tuning and J-bar.
    t = _parse_torus(args.torus)
    s = torus_spectrum(t)
    rep = variance_amplification(_resolve_config(args, s), s)
    report = {"config": _config_echo(args, rep.cfg),
              **ConsensusRecord.from_report(t, rep).to_dict()}
    _emit(report, args)


def _cmd_simulate(args):
    if args.replicates < 1:
        raise ValueError("--replicates must be >= 1")
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    if args.objective == "pseudo-huber":
        obj = PseudoHuber(s.m, s.L, s.n, delta=args.delta)
        echo = _config_echo(args, cfg, delta=args.delta)
    else:
        obj = Quadratic(s)
        echo = _config_echo(args, cfg)
    if args.replicates > 1:
        res = ensemble_variance(cfg, obj, args.steps, args.replicates,
                                args.seed)
    else:
        res = simulate(cfg, obj, args.steps, args.seed)
    report = {"config": echo, **res.to_dict()}
    if args.objective == "quadratic":
        j_exact = variance_amplification(cfg, s).j
        report["j_exact"] = j_exact
        # j_hat's distance from j_exact in standard errors, if it has one.
        report["j_hat_z"] = (None if not res.j_hat_stderr else
                             (res.j_hat - j_exact) / res.j_hat_stderr)
    table = None
    if args.format == "csv" and res.per_step is not None:
        table = (["step", "mean_sq_error", "stderr"],
                 [[t, float(v), float(e)] for t, (v, e) in
                  enumerate(zip(res.per_step, res.per_step_stderr))])
    _emit(report, args, table=table)


def _cmd_sweep(args):
    algo = Algo(args.algo)
    try:
        n0_values = [int(v) for v in args.n0.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"could not parse --n0 list {args.n0!r}")
    result = scaling_sweep(algo, args.d, n0_values, sigma=args.sigma)
    report = result.to_dict()
    report["config"] = _config_echo(args, sigma=args.sigma)
    rows = report["rows"]
    table = (list(rows[0]), [list(r.values()) for r in rows])
    _emit(report, args, table=table)


# Flag groups, each declared once and added by every command that takes it.

_PRESETS = {"table1": "guaranteed tuning",
            "table2": "quadratic-optimal tuning",
            "explicit": "--alpha/--beta"}


def _add_algo(p: argparse.ArgumentParser, choices=("gd", "hb", "na")):
    p.add_argument("--algo", choices=list(choices), required=True)


def _add_problem(p: argparse.ArgumentParser):
    p.add_argument("--spectrum", help="comma-separated eigenvalues")
    p.add_argument("--kappa", type=float, help="condition number (with --n)")
    p.add_argument("--n", type=int, help="problem dimension (with --kappa)")
    p.add_argument("--torus", help="torus network 'd,n0'")


def _add_params(p: argparse.ArgumentParser, presets=tuple(_PRESETS)):
    p.add_argument("--params", choices=list(presets), default="table2",
                   help=", ".join(f"{k}: {_PRESETS[k]}" for k in presets))
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)


def _add_noise(p: argparse.ArgumentParser, sigma_mode: bool = True):
    p.add_argument("--sigma", type=float, default=1.0)
    if sigma_mode:
        p.add_argument("--sigma-mode", choices=list(_SIGMA_MODES),
                       default="fixed", dest="sigma_mode")


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="write the report to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="noiseamp",
        description="Noise amplification of noisy first-order methods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact J on a spectrum")
    _add_output(p)
    _add_problem(p)
    _add_algo(p)
    _add_params(p)
    _add_noise(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("bounds", help="spectrum-free variance bounds")
    _add_algo(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("certify", help="LMI variance certificate")
    _add_algo(p, ("gd", "na"))
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--refine", type=int, default=0,
                   help="coordinate-descent budget to tighten the bound")
    _add_output(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("tune", help="minimize J under a rate cap")
    _add_algo(p)
    _add_problem(p)
    p.add_argument("--cap-constant", type=float, default=1.0,
                   dest="cap_constant")
    _add_noise(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("consensus", help="averaging over a torus network")
    _add_algo(p)
    p.add_argument("--torus", required=True, help="'d,n0'")
    _add_params(p, ("table2", "explicit"))
    _add_noise(p, sigma_mode=False)
    _add_output(p)
    p.set_defaults(fn=_cmd_consensus)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of J")
    _add_output(p)
    _add_problem(p)
    _add_algo(p)
    _add_params(p)
    _add_noise(p)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objective", choices=["quadratic", "pseudo-huber"],
                   default="quadratic")
    p.add_argument("--delta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="network-size scaling of J-bar/n")
    _add_algo(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n0", required=True,
                   help="comma-separated lattice sizes, e.g. '8,16,32'")
    _add_noise(p, sigma_mode=False)
    _add_output(p)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.fn(args)
        return 0
    except ValueError as exc:  # a usage error, --out included
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NoiseAmpError, OverflowError) as exc:
        # OverflowError: a float ** (sigma^2, say) left double precision.
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3


def main():  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
