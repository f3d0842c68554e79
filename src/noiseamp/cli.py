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
stderr.  Reports are JSON (json.dumps(report, indent=2), byte for byte) or
CSV: one field,value row per leaf, except sweep's table of rows and an
ensemble simulate's per-step table.  Tables (per_mode, sweep rows) are
Records, one column per key.  Every number is computed before the sink is
opened; the writer streams RECORDS_PER_WRITE records per write.  A chunk
whose columns are all 1-D integer or float numpy arrays (every float
finite, for JSON) is written a column at a time; any other chunk, one
with a list column such as sweep's rows, record by record.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

import numpy as np

from .consensus import (MAX_NETWORK_SIZE, TorusSpec, consensus_record,
                        scaling_sweep, torus_spectrum)
from .dynamics import Algo, AlgoConfig, SigmaMode
from .errors import NoGuarantee, NoiseAmpError, SizeOverflow
from .lmi import gd_certificate, na_certificate, q_bounds, refine_bound
from .montecarlo import PseudoHuber, Quadratic, ensemble_variance, simulate
from .spectrum import Spectrum, make_spectrum
from .tuning import (conventional_params, optimal_quadratic_params,
                     tune_constrained)
from .variance import (Records, hb_gd_ratio, na_gd_ratio_bounds,
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
    below 1; SizeOverflow above MAX_NETWORK_SIZE, a torus's cap too."""
    if not 1.0 <= kappa < math.inf:  # NaN too
        raise ValueError("--kappa must be >= 1 and finite")
    if n < 1:
        raise ValueError("--n must be >= 1")
    if n > MAX_NETWORK_SIZE:
        raise SizeOverflow(f"--n {n} exceeds the supported size "
                           f"{MAX_NETWORK_SIZE}")


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
    return make_spectrum(np.linspace(1.0, kappa, n))


def _resolve_config(args, s: Spectrum | TorusSpec) -> AlgoConfig:
    """The --algo, --params, --alpha/--beta and noise flags on s's extremes."""
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


# The report writer: json.dumps(report, indent=2)'s text, or csv.writer's
# field,value rows of the report's leaves, byte for byte.  Lists, 1-D
# arrays and Records go to the sink a chunk at a time.  Where the chunk's
# columns are plain (see _texts), their texts go out a column at a time,
# joined once with each record's fixed text (json's pure-Python indent
# encoder and a csv.writer row per leaf cost far more than the float
# reprs); any other chunk goes record by record.

RECORDS_PER_WRITE = 4096


def _chunks(seq: list | tuple | np.ndarray | Records):
    """(start, keys, columns) per RECORDS_PER_WRITE elements: a list or 1-D
    array has keys None and one column, a table one slice per key."""
    keys = list(seq.columns) if isinstance(seq, Records) else None
    columns = [seq] if keys is None else seq.columns.values()
    for start in range(0, len(seq), RECORDS_PER_WRITE):
        part = slice(start, start + RECORDS_PER_WRITE)
        yield start, keys, [c[part] for c in columns]


def _values(columns: list) -> list:
    """A chunk's columns with each array as its list of Python values."""
    return [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]


def _elements(keys: list[str] | None, columns: list) -> Iterable:
    """A chunk's elements: a list's values, or each record as a dict."""
    columns = _values(columns)
    return columns[0] if keys is None else (
        dict(zip(keys, row)) for row in zip(*columns))


def _as_list(obj: Any) -> list:
    """json.dumps's ``default``: an array as its list, a table as dicts."""
    if not isinstance(obj, (np.ndarray, Records)):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return [r for _, keys, cols in _chunks(obj) for r in _elements(keys, cols)]


# The Python type a 1-D array lists as, by its dtype's kind: every
# integer or float dtype of up to 8 bytes (a longdouble lists as numpy
# scalars).
_DTYPE_KINDS = {"i": int, "u": int, "f": float}


def _texts(values: list | tuple | np.ndarray,
           fmt: str) -> Iterable[str] | None:
    """The texts of a plain column, else None: a 1-D integer or float
    array, as its dtype says, with every value finite for JSON."""
    kind = (_DTYPE_KINDS.get(values.dtype.kind)
            if isinstance(values, np.ndarray) and values.ndim == 1
            and values.itemsize <= 8 else None)
    if kind is None or (kind is float and fmt == "json"
                        and not np.isfinite(values).all()):
        return None
    return map(kind.__repr__, values.tolist())


def _interleaved(parts: list) -> str:
    """One string: element by element, each str of ``parts`` and the next
    text of each of its iterables, in order."""
    return "".join(chain.from_iterable(zip(*[
        repeat(p) if isinstance(p, str) else p for p in parts])))


def _write_json(obj: Any, indent: str, write):
    """Write ``obj`` in json.dumps's indent=2 layout at depth ``indent``:
    dicts with str keys, lists and tables walked, any other value but a
    finite float, int or str as json.dumps's text (exact, re-indented)."""
    kind = type(obj)
    if kind is float and obj - obj == 0.0:  # finite
        write(float.__repr__(obj))
    elif kind is int:
        write(int.__repr__(obj))
    elif kind is str:
        write(encode_basestring_ascii(obj))
    elif (isinstance(obj, dict) and obj
          and all(isinstance(k, str) for k in obj)):
        inner = indent + "  "
        sep = "{\n"
        for key, value in obj.items():
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value, inner, write)
            sep = ",\n"
        write(f"\n{indent}}}")
    elif isinstance(obj, (list, tuple, np.ndarray, Records)) and len(obj):
        inner = indent + "  "
        sep = f",\n{inner}"
        write(f"[\n{inner}")
        for start, keys, columns in _chunks(obj):
            texts = [_texts(c, "json") for c in columns]
            if None in texts:
                for i, item in enumerate(_elements(keys, columns), start):
                    write(sep if i else "")
                    _write_json(item, inner, write)
                continue
            if keys is None:
                write((sep if start else "") + sep.join(texts[0]))
                continue
            parts, head = [], sep + "{"
            for key, text in zip(keys, texts):
                key = encode_basestring_ascii(key)
                parts += [f"{head}\n{inner}  {key}: ", text]
                head = ","
            parts.append(f"\n{inner}}}")
            skip = len(sep) if start == 0 else 0  # the first has none
            write(_interleaved(parts)[skip:])
        write(f"\n{indent}]")
    else:
        write(json.dumps(obj, indent=2, default=_as_list)
              .replace("\n", "\n" + indent))


def _write_csv(prefix: str, obj: Any, sink):
    """Write the field,value rows of ``obj``'s leaves under ``prefix``:
    a chunk of numbers as preformatted lines where no field needs csv's
    quoting, anything else leaf by leaf."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _write_csv(f"{prefix}.{k}" if prefix else str(k), v, sink)
    elif isinstance(obj, (list, tuple, np.ndarray, Records)):
        for start, keys, columns in _chunks(obj):
            names = [""] if keys is None else [f".{k}" for k in keys]
            texts = [_texts(c, "csv") for c in columns]
            fields = prefix + "".join(names)
            if None in texts or any(c in fields for c in ',"\r\n'):
                for i, v in enumerate(_elements(keys, columns), start):
                    _write_csv(f"{prefix}[{i}]", v, sink)
                continue
            index = list(map(int.__repr__,
                             range(start, start + len(columns[0]))))
            parts, head = [], ""
            for name, text in zip(names, texts):
                parts += [f"{head}{prefix}[", index, f"]{name},", text]
                head = "\r\n"
            parts.append("\r\n")
            sink.write(_interleaved(parts))
    else:
        csv.writer(sink).writerow((prefix, obj))


def _emit(report: dict[str, Any], args, table: Records | None = None):
    """Write a report as JSON or CSV to --out (default stdout); a CSV
    ``table`` is a header of its keys and one row per record."""
    try:
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as sink:
            writer = csv.writer(sink)
            if args.format == "json":
                _write_json(report, "", sink.write)
                sink.write("\n")
            elif table is None:
                writer.writerow(["field", "value"])
                _write_csv("", report, sink)
            else:
                writer.writerow(table.columns)
                for _, _, columns in _chunks(table):
                    writer.writerows(zip(*_values(columns)))
    except OSError as exc:
        if not args.out:
            raise
        raise ValueError(f"cannot write --out {args.out}: "
                         f"{exc.strerror}") from exc


def _config_echo(args, cfg: AlgoConfig | None = None,
                 **settings: Any) -> dict[str, Any]:
    """The command, the flags below that it was given, then ``settings``
    (other inputs its numbers depend on) and the resolved ``cfg``."""
    echo: dict[str, Any] = {"command": args.command}
    for name in ("spectrum", "kappa", "L", "n", "torus", "params", "steps",
                 "replicates", "seed", "cap_constant", "objective", "d",
                 "n0"):
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
        if not cert.valid:
            raise NoGuarantee(
                f"the closed-form {algo.value} certificate fails its float "
                f"check at kappa={prob.kappa!r}, so --refine has no valid "
                f"start")
        cert = refine_bound(prob, cert, budget=args.refine)
    # A --refine of 0 changes no number, so config leaves it out.
    refined = {"refine": args.refine} if args.refine else {}
    report = {"config": _config_echo(args, **refined),
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
    # The tuning reads the extremes alone; J-bar streams the modes once.
    t = _parse_torus(args.torus)
    cfg = _resolve_config(args, t)
    report = {"config": _config_echo(args, cfg),
              **consensus_record(cfg, t).to_dict()}
    _emit(report, args)


def _cmd_simulate(args):
    if args.replicates < 1:
        raise ValueError("--replicates must be >= 1")
    s = _resolve_spectrum(args)
    cfg = _resolve_config(args, s)
    if args.objective == "pseudo-huber":
        if not 0.0 < args.delta < math.inf:  # NaN too
            raise ValueError("--delta must be finite, with delta > 0")
        obj = PseudoHuber(s.m, s.L, s.n, delta=args.delta)
        echo = _config_echo(args, cfg, delta=args.delta)
    else:
        # Stability and J first: an unstable run draws no noise.
        j_exact = variance_amplification(cfg, s).j
        obj = Quadratic(s)
        echo = _config_echo(args, cfg)
    if args.replicates > 1:
        res = ensemble_variance(cfg, obj, args.steps, args.replicates,
                                args.seed)
    else:
        res = simulate(cfg, obj, args.steps, args.seed)
    report = {"config": echo, **res.to_dict()}
    if args.objective == "quadratic":
        report["j_exact"] = j_exact
        # j_hat's distance from j_exact in standard errors, if it has one.
        report["j_hat_z"] = (None if not res.j_hat_stderr else
                             (res.j_hat - j_exact) / res.j_hat_stderr)
    table = None if res.per_step is None else Records({
        "step": range(len(res.per_step)), "mean_sq_error": res.per_step,
        "stderr": res.per_step_stderr})
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
    _emit(report, args, table=report["rows"])


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
