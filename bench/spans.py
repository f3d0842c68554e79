"""Span recording around the program's layers, from outside the program.

Each layer is a module of the ``noiseamp`` package.  The tracer replaces
the layer's public functions with wrappers that record a span (name,
start, end, parent span, request id) plus a work count taken at the same
boundary.  Modules bind these functions by name at import
(``from .consensus import consensus_variance``), so each wrapper is
installed under every module attribute that holds the original function;
otherwise calls through those names would go unrecorded.  Functions a
later version of the program no longer has are skipped, and their metrics
read zero.

Spans are kept in memory and written out at the end of the run.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# layer -> {function: work count taken from (args, kwargs, result)}
TARGETS = {
    "cli": {"run": None},
    "spectrum": {"make_spectrum": lambda a, k, r: r.n},
    "dynamics": {
        "modal_spectral_radius": lambda a, k, r: np.size(_arg(a, k, 1, "lam")),
        "check_stable": None,
    },
    "variance": {
        "variance_amplification": lambda a, k, r: _arg(a, k, 1, "s").n,
        "variance_bounds": None,
        # Private, but consensus calls it directly on every torus mode.
        "_modal_variance_raw": lambda a, k, r: np.size(_arg(a, k, 1, "lams")),
    },
    "lmi": {
        "refine_bound": None,
        "gd_certificate": None,
        "na_certificate": None,
        "evaluate_certificate": lambda a, k, r: int(bool(r.valid)),
        "assemble_lmi": None,
        "jacobi_eigenvalues": None,
    },
    "tuning": {
        "tune_constrained": None,
        "optimal_quadratic_params": None,
        "conventional_params": None,
    },
    "consensus": {
        "scaling_sweep": None,
        "consensus_variance": lambda a, k, r: r.n - 1,
        "nonzero_torus_eigenvalues": None,
        "torus_eigenvalues": lambda a, k, r: np.size(r),
    },
    "montecarlo": {
        "ensemble_variance": None,
        "simulate": lambda a, k, r: (_arg(a, k, 2, "steps")
                                     * _arg(a, k, 1, "obj").dim),
        "standard_normals": lambda a, k, r: _arg(a, k, 2, "count"),
    },
}

LAYERS = tuple(TARGETS)

# Span fields, stored as lists to keep the per-call cost low.
NAME, START, END, PARENT, REQUEST, WORK, TAG = range(7)


class Tracer:
    """Records spans while a request is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, request: int):
        self._request = request

    def end(self):
        self._request = None
        self._stack.clear()

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tag_objective = name == "montecarlo.simulate"

        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self._request,
                    0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            if tag_objective:
                span[TAG] = type(_arg(args, kwargs, 1, "obj")).__name__
            return result

        return wrapper

    def install(self):
        """Wrap every target under each module attribute that names it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "noiseamp"
                                         or n.startswith("noiseamp."))]
        for layer, funcs in TARGETS.items():
            home = sys.modules.get(f"noiseamp.{layer}")
            for fname, work in funcs.items():
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original, work)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "request", "parent", "name", "start_ns",
                          "end_ns", "work"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[REQUEST], s[PARENT], s[NAME], s[START],
                              s[END], s[WORK]])


def layer_metrics(spans: list[list], offset: int, walls_s: list[float],
                  out_bytes: int, exit_nonzero: int) -> dict[str, float]:
    """Per-layer metrics of one pass over the request list.

    ``spans`` are the pass's spans in recording order (a parent always
    precedes its children), starting at index ``offset`` of the tracer's
    list; ``walls_s`` are the request latencies measured around ``cli.run``.
    """
    parents = [s[PARENT] - offset if s[PARENT] >= 0 else -1 for s in spans]
    child = [0] * len(spans)
    for s, parent in zip(spans, parents):
        if parent >= 0:
            child[parent] += s[END] - s[START]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    peak: dict[str, int] = defaultdict(int)
    path_ns: dict[str, int] = defaultdict(int)
    path_steps: dict[str, int] = defaultdict(int)
    in_tune = [False] * len(spans)
    tune_children: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        own = dur - child[i]
        calls[name] += 1
        total[name] += dur
        self_ns[name] += own
        work[name] += s[WORK]
        peak[name] = max(peak[name], s[WORK])
        if name == "montecarlo.simulate":
            path = "quadratic" if s[TAG] == "Quadratic" else "generic"
            path_ns[path] += own
            path_steps[path] += s[WORK]
        parent = parents[i]
        in_tune[i] = (name == "tuning.tune_constrained"
                      or (parent >= 0 and in_tune[parent]))
        if parent >= 0 and in_tune[parent]:
            tune_children[name] += 1

    ms = lambda ns: ns / 1e6
    per_s = lambda count, ns: count / (ns / 1e9) if ns else 0.0
    m = {
        "cli.run.calls": calls["cli.run"],
        "cli.out_bytes": out_bytes,
        "cli.exit_nonzero": exit_nonzero,
        "spectrum.make_spectrum.values": work["spectrum.make_spectrum"],
        "dynamics.modal_spectral_radius.modes":
            work["dynamics.modal_spectral_radius"],
        "variance.variance_amplification.modes":
            work["variance.variance_amplification"],
        "variance._modal_variance_raw.modes":
            work["variance._modal_variance_raw"],
        "lmi.valid_ratio": (work["lmi.evaluate_certificate"]
                            / calls["lmi.evaluate_certificate"]
                            if calls["lmi.evaluate_certificate"] else 0.0),
        "tuning.variance_calls":
            tune_children["variance.variance_amplification"],
        "tuning.rho_calls": tune_children["dynamics.modal_spectral_radius"],
        "consensus.modes": work["consensus.consensus_variance"],
        "consensus.modes_per_s": per_s(work["consensus.consensus_variance"],
                                       total["consensus.consensus_variance"]),
        "consensus.spectrum_bytes": 8 * peak["consensus.torus_eigenvalues"],
        "montecarlo.standard_normals.draws":
            work["montecarlo.standard_normals"],
        "montecarlo.draws_per_s": per_s(work["montecarlo.standard_normals"],
                                        total["montecarlo.standard_normals"]),
        "montecarlo.noise_bytes": 8 * peak["montecarlo.standard_normals"],
    }
    for name in ("spectrum.make_spectrum", "dynamics.modal_spectral_radius",
                 "dynamics.check_stable", "variance.variance_amplification",
                 "variance._modal_variance_raw",
                 "lmi.evaluate_certificate", "lmi.jacobi_eigenvalues",
                 "lmi.refine_bound", "tuning.tune_constrained",
                 "consensus.consensus_variance",
                 "montecarlo.standard_normals"):
        m[f"{name}.calls"] = calls[name]
    for name in ("spectrum.make_spectrum", "dynamics.modal_spectral_radius",
                 "dynamics.check_stable", "variance._modal_variance_raw",
                 "lmi.evaluate_certificate",
                 "lmi.jacobi_eigenvalues", "lmi.assemble_lmi",
                 "consensus.torus_eigenvalues", "consensus.scaling_sweep",
                 "montecarlo.standard_normals"):
        m[f"{name}.ms"] = ms(total[name])
    for name in ("variance.variance_amplification", "lmi.refine_bound",
                 "tuning.tune_constrained", "consensus.consensus_variance",
                 "montecarlo.simulate", "montecarlo.ensemble_variance"):
        m[f"{name}.self_ms"] = ms(self_ns[name])
    for path in ("quadratic", "generic"):
        m[f"montecarlo.ns_per_coord_step.{path}"] = (
            path_ns[path] / path_steps[path] if path_steps[path] else 0.0)
    layer_self = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns.items():
        layer_self[name.split(".", 1)[0]] += ns
    for layer, ns in layer_self.items():
        m[f"layer.{layer}.self_ms"] = ms(ns)
    m["cli.self_ms"] = m["layer.cli.self_ms"]
    m["layer.unattributed_ms"] = (sum(walls_s) * 1e3
                                  - ms(sum(layer_self.values())))
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
